#!/usr/bin/env python3
"""Records and compares benchmark results; refuses foreign hosts.

    python3 perfbench/compare.py record OUT.json RESULT.json...
    python3 perfbench/compare.py compare BASE.json NEW.json

`record` gathers the per-run result files that perfbench/run.py writes
under .bench_work/results/ into one trajectory file: every untraced run's
end-to-end metrics, and every traced run's per-layer metrics, by workload.
All runs must come from one host fingerprint.

`compare` reads two trajectory files (or single result files) and, for
every end-to-end metric on every workload, prints both medians, the
change, and the verdict against the bound in BENCHMARK.json: a regression
when the new median is worse by more than the bound, "unresolved" when
either side's quartile spread is wider than the bound. It exits 2 without
comparing anything when the two host fingerprints differ (CPU model,
nproc, kernel, compiler and flags, build type, trie_probe kernel): numbers
from different hosts are not comparable. Exit 1 = some regression.
"""

import json
import os
import statistics
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
FINGERPRINT_KEYS = ("cpu", "nproc", "kernel", "compiler", "cxx_flags",
                    "build_type", "trie_probe")


def load(path):
    """A trajectory: {"fingerprint", "workloads": {name: {"end_to_end":
    {metric: [values]}, "per_layer": {metric: [values]}}}}. A single
    result file is read as a one-run trajectory."""
    with open(path) as f:
        data = json.load(f)
    if "workloads" in data:
        return data
    return to_trajectory([data])


def to_trajectory(results):
    fingerprint = results[0]["fingerprint"]
    workloads = {}
    for r in results:
        if fingerprint_of(r) != fingerprint_of({"fingerprint": fingerprint}):
            sys.exit("compare.py: results from different hosts cannot be "
                     "recorded together")
        w = workloads.setdefault(r["workload"],
                                 {"seeds": [], "end_to_end": {},
                                  "per_layer": {}})
        section = "per_layer" if r["trace"] else "end_to_end"
        if not r["trace"]:
            w["seeds"].append(r["seed"])
        for name, metric in r["metrics"].items():
            w[section].setdefault(name, []).append(metric["value"])
    return {"fingerprint": fingerprint, "workloads": workloads}


def fingerprint_of(data):
    fp = data.get("fingerprint", {})
    return {k: fp.get(k) for k in FINGERPRINT_KEYS}


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def compare(base_path, new_path):
    base, new = load(base_path), load(new_path)
    fb, fn = fingerprint_of(base), fingerprint_of(new)
    if fb != fn:
        print("refused: host fingerprints differ; results are only "
              "comparable on the same host and build")
        for k in FINGERPRINT_KEYS:
            if fb[k] != fn[k]:
                print("  %-11s %r != %r" % (k, fb[k], fn[k]))
        return 2
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as f:
        contract = json.load(f)
    regressions = 0
    print("%-13s %-18s %12s %12s %8s %6s  %s" % (
        "workload", "metric", "base", "new", "change", "bound", "verdict"))
    for workload in sorted(set(base["workloads"]) & set(new["workloads"])):
        b = base["workloads"][workload]["end_to_end"]
        n = new["workloads"][workload]["end_to_end"]
        for m in contract["end_to_end"]:
            name = m["name"]
            if name not in b or name not in n:
                continue
            mb, mn = statistics.median(b[name]), statistics.median(n[name])
            change = (mn - mb) / mb if mb else 0.0
            worse = change if m["better"] == "lower" else -change
            if max(spread(b[name]), spread(n[name])) > m["bound"]:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "ok"
            print("%-13s %-18s %12.4f %12.4f %+7.1f%% %5.0f%%  %s" % (
                workload, name, mb, mn, 100 * change, 100 * m["bound"],
                verdict))
    return 1 if regressions else 0


def main(argv):
    if len(argv) >= 3 and argv[0] == "record":
        results = []
        for path in argv[2:]:
            with open(path) as f:
                results.append(json.load(f))
        with open(argv[1], "w") as f:
            json.dump(to_trajectory(results), f, indent=1, sort_keys=True)
            f.write("\n")
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
