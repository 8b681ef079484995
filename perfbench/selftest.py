#!/usr/bin/env python3
"""Reduced-scale self-test of the benchmark (about a minute).

    python3 perfbench/selftest.py

Checks, on small generated inputs and two-second runs, that:
  - every workload runs end to end, traced and untraced, with correct
    outputs and no failed operation;
  - every metric BENCHMARK.json names is printed, with its unit;
  - a traced run reports its tracing overhead against the untraced run;
  - an injected body mismatch shows up as a failed operation;
  - compare.py refuses results from a foreign host fingerprint.
Exits 0 when all hold.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH)
RESULTS = os.path.join(REPO, ".bench_work", "results")
FAILURES = []


def check(ok, what):
    print("%-4s %s" % ("ok" if ok else "FAIL", what), flush=True)
    if not ok:
        FAILURES.append(what)


def bench(workload, trace, inject=0):
    args = [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
            workload, "--seed", "7", "--seconds", "2", "--trace", str(trace),
            "--scale", "small"]
    if inject:
        args += ["--inject-mismatch", str(inject)]
    done = subprocess.run(args, cwd=REPO, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        check(False, "%s trace=%d exits 0 (stderr: %s)" % (
            workload, trace, done.stderr.strip()[-500:]))
        return None, ""
    return json.loads(lines[-1]), done.stdout


def main():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        contract = json.load(f)
    for w in contract["workloads"]:
        for trace in (0, 1):
            result, out = bench(w["name"], trace)
            if result is None:
                continue
            if trace:
                check("tracing overhead (traced - untraced" in out,
                      "%s trace=1 reports the tracing overhead against the "
                      "untraced run" % w["name"])
            want = contract["per_layer" if trace else "end_to_end"]
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  "%s trace=%d prints exactly the four result keys" %
                  (w["name"], trace))
            check(result["correct"] and result["failed"] == 0 and
                  result["attempted"] >= 1,
                  "%s trace=%d is correct with no failed operation" %
                  (w["name"], trace))
            check(all(m["name"] in result["metrics"] and
                      result["metrics"][m["name"]]["unit"] == m["unit"]
                      for m in want),
                  "%s trace=%d prints every metric with its unit" %
                  (w["name"], trace))
        result, _ = bench(w["name"], 0, inject=1)
        check(result is not None and result["failed"] >= 1 and
              not result["correct"],
              "%s counts an injected body mismatch as failed" % w["name"])

    # Foreign fingerprint: the same results with another CPU model must be
    # refused; with the same fingerprint they compare.
    compare = os.path.join(BENCH, "compare.py")
    with tempfile.TemporaryDirectory() as tmp:
        base = os.path.join(tmp, "base.json")
        result_file = os.path.join(RESULTS, "mine_quest.seed7.trace0.json")
        subprocess.run([sys.executable, compare, "record", base, result_file],
                       check=True)
        with open(base) as f:
            foreign = copy.deepcopy(json.load(f))
        foreign["fingerprint"]["cpu"] = "some other CPU"
        other = os.path.join(tmp, "foreign.json")
        with open(other, "w") as f:
            json.dump(foreign, f)
        same = subprocess.run([sys.executable, compare, "compare", base, base],
                              stdout=subprocess.PIPE, text=True)
        check(same.returncode == 0, "compare accepts its own host")
        refused = subprocess.run(
            [sys.executable, compare, "compare", base, other],
            stdout=subprocess.PIPE, text=True)
        check(refused.returncode == 2 and "refused" in refused.stdout,
              "compare refuses a foreign host fingerprint")

    print("self-test %s" % ("FAILED: " + "; ".join(FAILURES) if FAILURES
                            else "passed"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
