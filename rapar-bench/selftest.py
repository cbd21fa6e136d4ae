#!/usr/bin/env python3
"""Self-tests of the rapar benchmark.

    python3 rapar-bench/selftest.py

Run from the root of a checkout (builds rapar_bench like run.py). Checks:
  1. the metric and workload names rapar_bench prints equal BENCHMARK.json;
  2. a short smoke run of every workload, untraced and traced, prints a
     well-formed result whose metrics are exactly BENCHMARK.json's;
  3. the oracle rejects an injected wrong verdict;
  4. crash isolation counts an injected abort as one failed request and
     the run goes on in a fresh child.
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

import run

SMOKE_SECONDS = "1"
# deep-solve inputs all have analytic answers and none of them fails, so
# an injected fault is the only failure a run can contain.
INJECT_WORKLOAD = "deep-solve"

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def bench(binary, *args):
    out = os.path.join(run.ROOT, ".bench_results", "selftest")
    os.makedirs(out, exist_ok=True)
    r = subprocess.run([binary, *args, "--out", out], capture_output=True,
                       text=True, cwd=run.ROOT, timeout=run.RUN_TIMEOUT_S)
    lines = r.stdout.rstrip("\n").split("\n")
    return r.returncode, json.loads(lines[-1]) if lines[-1] else None, out


def result_file(out, workload, seed, trace):
    path = os.path.join(out, f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path) as f:
        return json.load(f)


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = run.build()

    # 1. Names.
    listed = json.loads(subprocess.run([binary, "--list-metrics"],
                                       capture_output=True, text=True,
                                       check=True).stdout)
    for group in ("end_to_end", "per_layer"):
        want = {(m["name"], m["unit"]) for m in spec[group]}
        got = {(m["name"], m["unit"]) for m in listed[group]}
        check(want == got, f"{group} names and units match BENCHMARK.json"
              f" (missing {sorted(want - got)}, extra {sorted(got - want)})")
    check(listed["workloads"] == [w["name"] for w in spec["workloads"]],
          "workload names match BENCHMARK.json")

    # 2. Smoke runs.
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, res, _ = bench(binary, "--workload", w["name"], "--seed",
                                  "1", "--seconds", SMOKE_SECONDS, "--trace",
                                  str(trace))
            names = {m["name"] for m in spec[group]}
            ok = (code == 0 and res is not None and
                  set(res) == {"correct", "attempted", "failed", "metrics"}
                  and res["correct"] is True and res["attempted"] >= 1 and
                  set(res["metrics"]) == names)
            check(ok, f"smoke {w['name']} trace={trace}")

    # 3. Injected wrong verdict.
    code, res, out = bench(binary, "--workload", INJECT_WORKLOAD, "--seed",
                            "1", "--seconds", SMOKE_SECONDS,
                            "--trace", "0", "--inject-wrong-verdict", "3")
    fails = result_file(out, INJECT_WORKLOAD, 1, 0)["failures"]
    check(code == 0 and res["failed"] == 1 and len(fails) == 1 and
          fails[0]["index"] == 3 and "verdict" in fails[0]["reason"],
          "oracle rejects an injected wrong verdict")

    # 4. Injected abort.
    code, res, out = bench(binary, "--workload", INJECT_WORKLOAD, "--seed",
                            "1", "--seconds", SMOKE_SECONDS,
                            "--trace", "0", "--inject-abort", "2")
    full = result_file(out, INJECT_WORKLOAD, 1, 0)
    fails = full["failures"]
    check(code == 0 and res["failed"] == 1 and len(fails) == 1 and
          fails[0]["index"] == 2 and fails[0]["reason"].startswith("crash")
          and full["completed"] == res["attempted"] - 1 and
          full["completed"] > 2 and full["loop"]["children"] == 2,
          "crash isolation counts an injected abort as one failed request")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
