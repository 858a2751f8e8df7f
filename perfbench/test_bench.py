#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_bench.py

On a held-out seed (one not used while the benchmark was tuned; its
Table 3 row is in table3_ref.tsv) it runs every workload untraced and
traced and checks that every output check passes, that every metric of
BENCHMARK.json is reported and non-zero where it must be, that a second
run repeats the deterministic counters exactly, that the trace loads
with `ise trace stitch`, and that the benchmark refuses to run without
the repository's sources.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HELD_OUT_SEED = 4242
OUT = os.path.join(ROOT, "perfbench", "out")


def run(workload, seed, trace, cwd=ROOT, check=True):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)
    if not check:
        return proc
    if proc.returncode != 0:
        sys.exit("FAIL %s trace=%d exited %d:\n%s" % (workload, trace, proc.returncode, proc.stderr))
    lines = proc.stdout.splitlines()
    digest = [l.split()[-1] for l in lines if l.startswith("sim_digest ")]
    return json.loads(lines[-1]), digest, proc.stdout


failures = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    subprocess.run(["dune", "build", "--root", ".", "./bin/ise.exe"], cwd=ROOT, check=True,
                   env=dict(os.environ, DUNE_CACHE="disabled"))
    for w in (w["name"] for w in bench["workloads"]):
        res, digest, _ = run(w, HELD_OUT_SEED, 0)
        expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
               "%s seed %d: every output check passes (%d attempted)"
               % (w, HELD_OUT_SEED, res["attempted"]))
        expect({k: v["unit"] for k, v in res["metrics"].items()} == e2e,
               "%s: reports exactly the end-to-end metrics, with their units" % w)
        expect(all(v["value"] > 0 for v in res["metrics"].values()),
               "%s: every end-to-end metric is non-zero" % w)
        again, digest2, _ = run(w, HELD_OUT_SEED, 0)
        expect(digest and digest == digest2, "%s: sim_digest repeats exactly" % w)
        # the fuzz_campaign supervisor polls its pool workers, and each poll
        # allocates, so its allocation depends on how long the workers take
        if w != "fuzz_campaign":
            expect(res["metrics"]["alloc_mwords"]["value"]
                   == again["metrics"]["alloc_mwords"]["value"],
                   "%s: alloc_mwords repeats exactly" % w)
        traced, digest3, text = run(w, HELD_OUT_SEED, 1)
        expect(traced["correct"] and digest3 == digest,
               "%s: traced run passes its checks with the same sim_digest" % w)
        expect({k: v["unit"] for k, v in traced["metrics"].items()} == layer,
               "%s: traced run reports exactly the per-layer metrics" % w)
        expect(all(("  %s " % name) in text for name in layer),
               "%s: per-layer table lists every per-layer metric" % w)
        if w in ("table3_row", "fuzz_campaign"):
            expect("n/a:" in text,
                   "%s: per-layer table names what cannot be measured from outside" % w)
        trace_file = os.path.join(OUT, "trace-%s-seed%d.json" % (w, HELD_OUT_SEED))
        stitched = os.path.join(OUT, "stitched-%s.json" % w)
        st = subprocess.run([os.path.join(ROOT, "_build", "default", "bin", "ise.exe"),
                             "trace", "stitch", trace_file, "-o", stitched],
                            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        expect(st.returncode == 0, "%s: trace opens with `ise trace stitch`" % w)
    # without the repository's sources the benchmark must refuse to run
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run(bench["workloads"][0]["name"], HELD_OUT_SEED, 0, cwd=bare, check=False)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "refuses to run without the repository's sources")
    shutil.rmtree(bare, ignore_errors=True)
    if failures:
        sys.exit("%d check(s) failed" % len(failures))
    print("all checks passed")


if __name__ == "__main__":
    main()
