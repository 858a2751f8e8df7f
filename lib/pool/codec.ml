let magic = "ISEP"
let version = 2
let header_bytes = 10
let default_max_payload = 64 * 1024 * 1024

type error =
  | Bad_magic
  | Unsupported_version of int
  | Oversized of int
  | Truncated

let error_to_string = function
  | Bad_magic -> "bad magic bytes (stream desynchronised?)"
  | Unsupported_version v ->
    Printf.sprintf "unsupported frame version %d (this reader handles %d)" v
      version
  | Oversized n -> Printf.sprintf "claimed payload of %d bytes exceeds the cap" n
  | Truncated -> "stream ended inside a frame"

(* Layout: magic(4) version(1) proto(1) len(4).  The version byte is
   checked before any later field is read, so a frame of another
   layout is rejected at that byte instead of being mis-parsed. *)

let encode ?(proto = 0) payload =
  if proto < 0 || proto > 0xff then invalid_arg "Codec.encode: bad proto";
  let n = String.length payload in
  let b = Bytes.create (header_bytes + n) in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set b 4 (Char.chr version);
  Bytes.set b 5 (Char.chr proto);
  Bytes.set_int32_be b 6 (Int32.of_int n);
  Bytes.blit_string payload 0 b header_bytes n;
  Bytes.unsafe_to_string b

type decoded =
  | Frame of { payload : string; proto : int; consumed : int }
  | Need_more
  | Corrupt of error

let payload_len buf ~pos =
  let byte i = Char.code (Bytes.get buf (pos + i)) in
  (byte 6 lsl 24) lor (byte 7 lsl 16) lor (byte 8 lsl 8) lor byte 9

(* Validate as much of the header as is present, so corruption is
   reported from the first bad byte rather than after buffering a
   bogus multi-megabyte "payload". *)
let decode ?(max_payload = default_max_payload) buf ~pos ~len =
  let magic_len = min len 4 in
  let rec magic_ok i =
    i >= magic_len || (Bytes.get buf (pos + i) = magic.[i] && magic_ok (i + 1))
  in
  if not (magic_ok 0) then Corrupt Bad_magic
  else if len < 5 then Need_more
  else
    let v = Char.code (Bytes.get buf (pos + 4)) in
    if v <> version then Corrupt (Unsupported_version v)
    else if len < header_bytes then Need_more
    else
      let n = payload_len buf ~pos in
      if n > max_payload then Corrupt (Oversized n)
      else if len < header_bytes + n then Need_more
      else
        Frame
          { payload = Bytes.sub_string buf (pos + header_bytes) n;
            proto = Char.code (Bytes.get buf (pos + 5));
            consumed = header_bytes + n }

let write_frame ?proto fd payload =
  let msg = encode ?proto payload in
  let n = String.length msg in
  let off = ref 0 in
  while !off < n do
    let w = Unix.write_substring fd msg !off (n - !off) in
    off := !off + w
  done

let read_exactly fd buf ~pos n =
  let off = ref 0 in
  let eof = ref false in
  while (not !eof) && !off < n do
    match Unix.read fd buf (pos + !off) (n - !off) with
    | 0 -> eof := true
    | k -> off := !off + k
  done;
  !off

let read_frame_ext ?(max_payload = default_max_payload) fd =
  (* read up to the version byte first: a frame of another version
     is refused there, without waiting for header bytes it may not
     have *)
  let hdr = Bytes.create header_bytes in
  match read_exactly fd hdr ~pos:0 5 with
  | 0 -> Error `Eof
  | k when k < 5 -> Error (`Corrupt Truncated)
  | _ -> (
    match decode ~max_payload hdr ~pos:0 ~len:5 with
    | Corrupt e -> Error (`Corrupt e)
    | Frame _ | Need_more ->
      if read_exactly fd hdr ~pos:5 (header_bytes - 5) < header_bytes - 5
      then Error (`Corrupt Truncated)
      else (
        match decode ~max_payload hdr ~pos:0 ~len:header_bytes with
        | Corrupt e -> Error (`Corrupt e)
        | Frame { payload; proto; _ } ->
          Ok (proto, payload) (* only possible for empty payloads *)
        | Need_more ->
          let n = payload_len hdr ~pos:0 in
          let payload = Bytes.create n in
          if read_exactly fd payload ~pos:0 n < n then
            Error (`Corrupt Truncated)
          else
            Ok (Char.code (Bytes.get hdr 5), Bytes.unsafe_to_string payload)))

let read_frame ?max_payload fd =
  match read_frame_ext ?max_payload fd with
  | Ok (_proto, payload) -> Ok payload
  | Error _ as e -> e

let marshal v = Marshal.to_string v []
let unmarshal s = Marshal.from_string s 0

(* ------------------------------------------------------------------ *)
(* crash-safe unmarshal for untrusted payloads                         *)

(* [Marshal.from_string] trusts its input: a corrupted stream can make
   the runtime's intern loop overread the buffer, overflow the shared-
   object table, or build a type-confused value — all of which segfault
   rather than raise.  [valid_marshal] walks the compact extern format
   (see caml/intext.h) with every read bounds-checked and cross-checks
   the three header invariants intern relies on: the byte length of the
   data segment, the number of shared-table registrations, and the
   total 64-bit word size of the decoded heap graph.  A stream that
   passes cannot make intern read outside the buffer, index outside the
   object table, or allocate more than the header promised.  Type
   confusion within a structurally valid stream is still possible —
   integrity needs the checksum envelope of [seal] on top — but decode
   becomes total: corrupt bytes yield [None],
   never a crash.

   Opcodes never produced for this codec's payloads (closures, custom
   blocks, 64-bit length forms) are rejected outright. *)

let valid_marshal s =
  let len = String.length s in
  let byte i = Char.code (String.unsafe_get s i) in
  let u32 i = (byte i lsl 24) lor (byte (i + 1) lsl 16)
              lor (byte (i + 2) lsl 8) lor byte (i + 3) in
  if len < 20 || u32 0 <> 0x8495A6BE then false
  else begin
    let data_len = u32 4 and num_objects = u32 8 and words64 = u32 16 in
    if 20 + data_len <> len then false
    else begin
      let limit = len in
      let pos = ref 20 and needed = ref 1 and objs = ref 0 and words = ref 0 in
      let ok = ref true in
      let take n = (* consume n raw bytes, return offset or fail *)
        let p = !pos in
        if n < 0 || p + n > limit then (ok := false; p) else (pos := p + n; p)
      in
      let string_words n = (n / 8) + 2 in      (* data words + header, 64-bit *)
      let register () = incr objs in
      let block size =
        if size > 0 then begin register (); words := !words + size + 1 end;
        needed := !needed + size
      in
      while !ok && !needed > 0 do
        if !pos >= limit then ok := false
        else begin
          let c = byte !pos in
          incr pos;
          decr needed;
          if c >= 0x80 then block ((c lsr 4) land 0x7)          (* small block *)
          else if c >= 0x40 then ()                             (* small int *)
          else if c >= 0x20 then begin                          (* small string *)
            let n = c land 0x1F in
            ignore (take n);
            if !ok then begin register (); words := !words + string_words n end
          end
          else
            match c with
            | 0x0 -> ignore (take 1)                            (* INT8 *)
            | 0x1 -> ignore (take 2)                            (* INT16 *)
            | 0x2 -> ignore (take 4)                            (* INT32 *)
            | 0x3 -> ignore (take 8)                            (* INT64 *)
            | 0x4 | 0x5 | 0x6 ->                                (* SHAREDn *)
              let n = match c with 0x4 -> 1 | 0x5 -> 2 | _ -> 4 in
              let p = take n in
              if !ok then begin
                let d = ref 0 in
                for k = 0 to n - 1 do d := (!d lsl 8) lor byte (p + k) done;
                if !d < 1 || !d > !objs then ok := false
              end
            | 0x8 ->                                            (* BLOCK32 *)
              let p = take 4 in
              if !ok then begin
                let hd = u32 p in
                let size = hd lsr 10 in
                if size = 0 then ok := false else block size
              end
            | 0x9 | 0xA ->                                      (* STRING8/32 *)
              let p = take (if c = 0x9 then 1 else 4) in
              if !ok then begin
                let n = if c = 0x9 then byte p else u32 p in
                ignore (take n);
                if !ok then begin register (); words := !words + string_words n end
              end
            | 0xB | 0xC ->                                      (* DOUBLE *)
              ignore (take 8);
              if !ok then begin register (); words := !words + 2 end
            | 0xD | 0xE | 0x7 | 0xF ->                          (* DOUBLE_ARRAYn *)
              let p = take (if c = 0xD || c = 0xE then 1 else 4) in
              if !ok then begin
                let n = if c = 0xD || c = 0xE then byte p else u32 p in
                ignore (take (8 * n));
                if !ok then begin register (); words := !words + n + 1 end
              end
            | _ -> ok := false    (* closures, custom blocks, 64-bit forms *)
        end
      done;
      !ok && !pos = limit && !objs = num_objects && !words = words64
    end
  end

let unmarshal_opt s =
  if not (valid_marshal s) then None
  else match unmarshal s with v -> Some v | exception _ -> None

(* ------------------------------------------------------------------ *)
(* the sealed envelope of every socket payload                         *)

(* A leading MD5 of the marshalled value: Marshal has no integrity
   check of its own, and a wire-corrupted payload that still
   unmarshals (flipped bytes inside an int field) would silently
   poison a merge or a cached result.  The digest makes corruption in
   transit a typed decode failure; the structural validator behind it
   makes a well-digested but malformed stream one too.  Neither checks
   the type of a well-formed value: peers are the same image. *)

let seal v =
  let m = marshal v in
  Digest.string m ^ m

let unseal s =
  if String.length s < 16 then None
  else
    let body = String.sub s 16 (String.length s - 16) in
    if not (String.equal (Digest.string body) (String.sub s 0 16)) then None
    else unmarshal_opt body

let write_sealed ~proto fd v = write_frame ~proto fd (seal v)

let read_sealed ?max_payload ~proto ~peer fd =
  match read_frame_ext ?max_payload fd with
  | Error `Eof -> Error ("connection closed by " ^ peer)
  | Error (`Corrupt e) -> Error ("corrupt frame: " ^ error_to_string e)
  | Ok (got, _) when got <> proto ->
    Error
      (Printf.sprintf "protocol mismatch: %s speaks v%d, we speak v%d" peer
         got proto)
  | Ok (_, payload) -> (
    match unseal payload with
    | Some v -> Ok v
    | None -> Error "undecodable payload")
