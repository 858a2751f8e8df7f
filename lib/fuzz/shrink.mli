(** Litmus-test minimization.

    Collapses a failing test towards a herd-style minimal shape the
    way diy-derived tooling does: drop whole threads, drop
    instructions, replace dependency-carrying and atomic instructions
    with their plain equivalents, shrink store values, and merge
    locations — each candidate is re-checked against the failing
    property, so minimization never loses the failure.

    Every candidate strictly decreases {!size}, so minimization
    terminates; tests for which no candidate keeps failing are already
    minimal, and re-minimizing a minimum takes 0 steps. *)

val size : Ise_litmus.Lit_test.t -> int
(** Well-founded measure: instruction count dominates, then distinct
    locations, then thread count, then instruction complexity
    (deps/AMOs cost more than plain accesses) plus store-value
    magnitude.  Every candidate strictly decreases it. *)

val candidates : Ise_litmus.Lit_test.t -> Ise_litmus.Lit_test.t Seq.t
(** Strictly-smaller variants, most aggressive first (threads, then
    instructions, then instruction simplification, then location
    merging).  The test's name is preserved so the operational runner's
    perturbation seed — derived from the name — replays identically.
    Location merging is only proposed for tests with an empty
    condition (generated tests), since the condition names
    locations. *)

val minimize :
  ?max_evals:int -> keeps_failing:(Ise_litmus.Lit_test.t -> bool) ->
  Ise_litmus.Lit_test.t -> Ise_litmus.Lit_test.t * int
(** Greedy fixpoint over {!candidates}: repeatedly takes the first
    candidate for which [keeps_failing] holds.  Returns the minimum and
    the number of accepted steps (0 when [t] is already minimal).
    [keeps_failing t] is assumed for the input.  [max_evals] (default
    10_000) bounds the total calls to [keeps_failing]; when it is
    spent, minimization stops at the current test without building
    further candidates. *)
