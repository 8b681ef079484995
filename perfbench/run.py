#!/usr/bin/env python3
"""The flipper benchmark: one-shot mines and served reads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mine_quest --seed 1 --seconds 40 --trace 0

It builds the program from source (Release, into .bench_build/), makes the
workload's inputs from --seed (into .bench_work/), measures for --seconds,
checks every output, and prints as its last stdout line one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 the per-layer ones. perfbench/README.md says
why each workload exists and what each metric means.
"""

import argparse
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH)
BUILD = os.path.join(REPO, ".bench_build")
WORK = os.path.join(REPO, ".bench_work")
CLI = os.path.join(BUILD, "flipper", "flipper_cli")
DRIVER = os.path.join(BUILD, "perfbench_driver")

# Table 3 thr10: the paper's headline regime for mine_quest.
THR10 = "0.001,0.0001,0.00006,0.00003"
# serve_read's open loop: Poisson arrivals at RATE per second, keys
# Zipf(ZIPF) over the driver's 900-key grid, through CONNS connections.
# About two thirds of the queries are first sights (misses), arriving at
# a near-steady rate that keeps the seed build's daemon about a quarter
# busy: at higher rates the tail percentiles swung with the host's own
# speed from run to run.
RATE = 8.0
ZIPF = 0.8
CONNS = 4
# Each run makes APPENDS append sessions of APPEND_BATCH fresh quest
# transactions each: a session is mostly one fsync, whose time varies
# widely, so the median takes many samples to settle.
APPENDS = 41
# A traced run also makes RELOADS append sessions to a served store, each
# followed by the query that reloads it.
RELOADS = 21
APPEND_BATCH = 1000
# A failed operation counts as exceeding every latency percentile; this is
# the value such a percentile reports.
FAILED_MS = 1e9

WORKLOADS = ("mine_quest", "serve_read")


def log(message):
    print(message, flush=True)


def fail(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)
    sys.exit(1)


# --- processes -----------------------------------------------------------

CHILDREN = []


def stop_children():
    for proc in CHILDREN:
        if proc.poll() is None:
            proc.kill()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass
    CHILDREN.clear()


def run(args):
    """Runs a child to completion; exits the benchmark if it fails."""
    done = subprocess.run(args, cwd=WORK, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        fail("%s failed (%d): %s" % (" ".join(args[:3]), done.returncode,
                                     done.stderr.strip()[-2000:]))


def build():
    if not os.path.isfile(os.path.join(REPO, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(REPO, "src")):
        fail("no program sources beside perfbench/ to build")
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, "build.log"), "w") as out:
        for cmd in (["cmake", "-S", BENCH, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 4),
                     "--target", "flipper_cli", "perfbench_driver"]):
            if subprocess.run(cmd, cwd=REPO, stdout=out,
                              stderr=subprocess.STDOUT).returncode != 0:
                fail("build failed; see .bench_work/build.log")


def driver(*args):
    """Runs perfbench_driver; returns the JSON it wrote to --out."""
    out = os.path.join(WORK, "driver.%s.json" % args[0])
    run([DRIVER] + [str(a) for a in args] + ["--out", out])
    with open(out) as f:
        return json.load(f)


def timed_mine(args):
    """Forks one `flipper_cli mine`, reads its stdout to EOF and waits for
    it; returns (ms, ok, maxrss KiB, stdout bytes)."""
    start = time.perf_counter_ns()
    proc = subprocess.Popen([CLI, "mine"] + args, cwd=WORK,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    body = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    ms = (time.perf_counter_ns() - start) / 1e6
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return ms, proc.returncode == 0, usage.ru_maxrss, body


class Daemon:
    """A `flipper_cli serve` child; returns once it prints its readiness
    line. Its stderr goes to .bench_work/<socket>.log."""

    def __init__(self, stores, socket="serve.sock"):
        sock = os.path.join(WORK, socket)
        if os.path.exists(sock):
            os.unlink(sock)
        self.socket = socket
        with open(sock + ".log", "w") as err:
            self.proc = subprocess.Popen(
                [CLI, "serve", "--socket", socket, "--stores",
                 ",".join("%s=%s" % kv for kv in stores)],
                cwd=WORK, stdout=subprocess.PIPE, stderr=err, text=True)
        CHILDREN.append(self.proc)
        ready, _, _ = select.select([self.proc.stdout], [], [], 120)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("serving "):
            self.stop()
            fail("daemon did not become ready: " + line.strip())
        self.pid = self.proc.pid

    def vm_hwm_mb(self):
        with open("/proc/%d/status" % self.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        CHILDREN.remove(self.proc)


# --- statistics ----------------------------------------------------------

def pct(values, p):
    """Nearest-rank percentile; None entries (failures) rank above all."""
    if not values:
        return FAILED_MS
    ranked = sorted(FAILED_MS if v is None else v for v in values)
    return ranked[max(0, math.ceil(p / 100.0 * len(ranked)) - 1)]


def iqm(values):
    """Interquartile mean: the mean of the middle half of the ranked
    samples; None entries (failures) rank above all. Unlike a percentile
    it moves smoothly when the samples fall on a few discrete levels, as
    the daemon's answers do (a query's reply waits for the next 20 ms
    tick of its hang-up watcher)."""
    if not values:
        return FAILED_MS
    ranked = sorted(FAILED_MS if v is None else v for v in values)
    quarter = len(ranked) // 4
    return statistics.fmean(ranked[quarter:len(ranked) - quarter])


def median(values):
    return statistics.median(values) if values else 0.0


def host_fingerprint():
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    fp = {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
          "kernel": platform.release()}
    fp.update(driver("fingerprint"))
    return fp


# --- inputs ----------------------------------------------------------------

def datagen(scenario, path, scale):
    """The scenario's default dataset (its default generator seed)."""
    args = [CLI, "datagen", scenario, path]
    if scale == "small":
        args += ["--txns", "5000" if scenario == "quest" else "20000"]
    run(args)


def store_setup(scale, serve, reps):
    """Writes the workload's stores (and, for serve_read, launches the
    daemon to readiness) `reps` times; returns (median seconds, stores,
    daemon). Both workloads use the scenarios' default datasets: what
    mining a generated store costs varies widely with its generator seed,
    so the run's seed drives the traffic and the append batches instead."""
    times, daemon = [], None
    for i in range(reps):
        d = "setup%d" % i
        shutil.rmtree(os.path.join(WORK, d), ignore_errors=True)
        os.makedirs(os.path.join(WORK, d))
        stores = [("quest", d + "/quest.fdb")]
        if serve:
            stores.append(("medline", d + "/medline.fdb"))
        if daemon:
            daemon.stop()
        start = time.perf_counter_ns()
        for name, path in stores:
            datagen(name, path, scale)
        if serve:
            daemon = Daemon(stores)
        times.append((time.perf_counter_ns() - start) / 1e9)
    # Let the set-up's writes reach the disk before anything is timed, so
    # the first fsyncs of a run do not pay for them.
    os.sync()
    return median(times), stores, daemon


def registry_value(registry, name):
    """A counter, gauge, or histogram total from a MetricsRegistry JSON."""
    for section in ("counters", "gauges"):
        if name in registry.get(section, {}):
            return float(registry[section][name])
    hist = registry.get("histograms", {}).get(name)
    return float(hist["sum_ms"]) if hist else 0.0


STAGES = ("views_build", "count_wait", "count_start", "plan", "evaluate",
          "sibp", "subset_filter")
MINE_COUNTS = ("candidates_generated", "candidates_counted", "db_scans",
               "txns_prefiltered", "segments_skipped", "peak_candidate_bytes")


def miner_layers(registries, combine):
    """Stage times, miner counts and pool figures from mining registries."""
    out = {}
    for stage in STAGES:
        out["stage.%s_ms" % stage] = combine(
            [registry_value(r, "stage.%s_ms" % stage) for r in registries])
    for count in MINE_COUNTS:
        out["mine." + count] = combine(
            [registry_value(r, "mine." + count) for r in registries])
    labelled = combine([registry_value(r, "mine.positive_itemsets") +
                        registry_value(r, "mine.negative_itemsets")
                        for r in registries])
    counted = out["mine.candidates_counted"]
    out["mine.count_yield"] = labelled / counted if counted else 0.0
    out["pipeline.spec_adoption_rate"] = median(
        [registry_value(r, "pipeline.spec_adoption_rate") for r in registries])
    out["pool.utilization"] = median(
        [registry_value(r, "pool.utilization") for r in registries])
    out["pool.queue_wait_ms"] = combine(
        [registry_value(r, "pool.queue_wait_ms_total") for r in registries])
    return out


def one_shot_ms(path, minsup):
    """Median wall of 5 untraced `mine --format csv` processes."""
    return median([timed_mine(["--input", path, "--format", "csv",
                               "--minsup", minsup, "--out", "/dev/null"])[0]
                   for _ in range(5)])


def layers_pass(stores, queries):
    """Driver-timed layer calls over `stores`, mining `queries` (default:
    each store at each of its served profiles). Returns the per-layer
    metrics, the queries' MetricsRegistry JSONs, and process.residual_ms:
    an untraced one-shot `mine` of each store's first query minus that
    query's in-process open + views + run + render, summed over stores.
    Its views are the query's own `stage.views_build_ms`: a one-shot mine
    builds only the catalogs its config uses, where views.build_ms always
    builds them, as the daemon does."""
    args = ["layers"]
    for name, path in stores:
        args += ["--store", "%s=%s" % (name, path)]
    for store, params in queries:
        args += ["--query", store + "|" + ";".join(
            "%s=%s" % kv for kv in params)]
    data = driver(*args)["stores"]
    out = {
        "storage.open_ms": sum(s["open_ms"] for s in data.values()),
        "storage.write_s": sum(s["write_s"] for s in data.values()),
        "storage.bytes_per_item": sum(s["bytes"] for s in data.values()) /
        sum(s["items"] for s in data.values()),
        "views.build_ms": sum(s["views_build_ms"] for s in data.values()),
    }
    runs = [q for s in data.values() for q in s["queries"]]
    out["miner.run_ms"] = sum(q["run_ms"] for q in runs)
    out["render.ms"] = sum(q["render_ms"] for q in runs)
    residual = 0.0
    for name, path in stores:
        s = data[name]
        first = s["queries"][0]
        residual += one_shot_ms(path, first["params"]["minsup"]) - (
            s["open_ms"] + first["run_ms"] + first["render_ms"] +
            registry_value(first["registry"], "stage.views_build_ms"))
    out["process.residual_ms"] = residual
    return out, [q["registry"] for q in runs]


# --- workloads ------------------------------------------------------------

def mine_args(minsup, extra=()):
    return ["--input", "quest.fdb", "--format", "csv", "--minsup",
            minsup] + list(extra)


def fidelity(minsup):
    """Runs the NaiveMiner oracle (BASIC) beside FLIPPING, FLIPPING+TPG and
    the full stack; checks the outputs agree and the paper's count claims."""
    results = {}

    def one(variant, extra):
        out = "fidelity.%s.csv" % variant
        done = subprocess.run(
            [CLI, "mine"] + mine_args(minsup, extra) + ["--stats", "--out", out],
            cwd=WORK, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True)
        if done.returncode != 0:
            return
        # --stats prints MiningStats to stderr, the one report both the
        # NaiveMiner and Flipper paths fill in.
        stats = {}
        for line in done.stderr.splitlines():
            key, _, value = line.partition(":")
            if value.strip():
                stats[key.strip()] = value.split()[0].replace(",", "")
        with open(os.path.join(WORK, out), "rb") as f:
            results[variant] = (stats, f.read())

    start = time.perf_counter()
    oracle = threading.Thread(target=one, args=("basic", ["--baseline"]))
    oracle.start()
    for variant, pruning in (("flipping", "flipping"), ("tpg", "tpg"),
                             ("full", "full")):
        one(variant, ["--pruning", pruning])
    oracle.join()
    if len(results) != 4:
        fail("a fidelity run failed (the oracle or a pruning variant)")
    counted = {v: int(results[v][0]["candidates cnt"])
               for v in ("basic", "flipping", "tpg", "full")}
    body = results["basic"][1]
    # One csv row per level of each pattern's chain: count pattern_ids.
    flips = len({row.split(b",", 1)[0] for row in body.splitlines()[1:]})
    negatives = int(results["basic"][0]["negative itemsets"])
    claims = {
        "counted_non_increasing": counted["basic"] >= counted["flipping"] >=
        counted["tpg"] >= counted["full"],
        "basic_at_least_10x_full": counted["basic"] >= 10 * counted["full"],
        "flips_far_fewer_than_negatives": flips * 100 <= negatives,
        "pruned_outputs_match_oracle": all(
            results[v][1] == body for v in ("flipping", "tpg", "full")),
    }
    return body, {"candidates_counted": counted, "flips": flips,
                  "negative_itemsets": negatives, "claims": claims,
                  "oracle_s": time.perf_counter() - start}


class Probe:
    """perfbench_driver's step-driven service probe (see driver.cc)."""

    def __init__(self, daemon, path, opts, inject=0):
        self.out = os.path.join(WORK, "driver.probe.json")
        args = [DRIVER, "probe", "--socket", daemon.socket, "--path", path,
                "--append-path", "probe.append.fdb", "--pid", daemon.pid,
                "--seed", opts.seed, "--batch", append_batch(opts),
                "--appends", APPENDS + RELOADS, "--out", self.out]
        if inject:
            args += ["--inject-mismatch", inject]
        os.sync()
        self.proc = subprocess.Popen([str(a) for a in args], cwd=WORK,
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        CHILDREN.append(self.proc)

    def step(self, name, times=1):
        for _ in range(times):
            self.proc.stdin.write(name + "\n")
            self.proc.stdin.flush()
            if self.proc.stdout.readline().strip() != "ok":
                fail("the probe failed at step '%s'" % name)

    def end(self):
        self.proc.stdin.write("end\n")
        self.proc.stdin.close()
        if self.proc.wait(timeout=120) != 0:
            fail("the probe failed")
        self.proc.stdout.close()
        CHILDREN.remove(self.proc)
        with open(self.out) as f:
            return json.load(f)


def append_batch(opts):
    """Fresh transactions per append session."""
    return 100 if opts.scale == "small" else APPEND_BATCH


def append_every_s(opts):
    """APPENDS append sessions per run, evenly spaced."""
    return opts.seconds / (APPENDS + 1)


def service_layers(stats, threads_peak, cpu_ms, queries):
    return {
        "daemon.threads_peak": float(threads_peak),
        "daemon.cpu_ms_per_query": cpu_ms / max(1, queries),
        "cache.evictions": registry_value(stats, "cache.evictions"),
        "scheduler.rejected": registry_value(stats, "scheduler.rejected"),
        "scheduler.timed_out": registry_value(stats, "scheduler.timed_out"),
    }


def run_mine_quest(opts):
    minsup = THR10
    setup_s, stores, _ = store_setup(opts.scale, False, 9)
    shutil.copy(os.path.join(WORK, stores[0][1]),
                os.path.join(WORK, "quest.fdb"))
    expected, fid = fidelity(minsup)
    for claim, held in fid["claims"].items():
        log("fidelity: %-32s %s" % (claim, "ok" if held else "VIOLATED"))
    log("fidelity: candidates_counted %s, flips %d, negative itemsets %d" %
        (fid["candidates_counted"], fid["flips"], fid["negative_itemsets"]))

    # The service probe's samples are spread across the run, between
    # children: three hits after each, and APPENDS evenly spaced append
    # sessions (to an unserved copy of the store). The first hit after a
    # child finds the daemon's caches cold and takes about three times as
    # long as the next two; with two of three warm, the median lies well
    # inside the warm hits, not in the gap between the two kinds.
    shutil.copy(os.path.join(WORK, "quest.fdb"),
                os.path.join(WORK, "probe.quest.fdb"))
    daemon = Daemon([("quest", "probe.quest.fdb")], "probe.sock")
    probe = Probe(daemon, "probe.quest.fdb", opts, opts.inject_mismatch)

    # The measured loop: one `mine` process at a time for --seconds. In a
    # traced run every child also writes --metrics-json/--trace-out.
    walls, rss, gaps, registries = [], [], [], []
    failed = 0
    start = time.perf_counter()
    next_append, appended = append_every_s(opts), 0
    last_exit = None
    i = 0
    while time.perf_counter() - start < opts.seconds:
        extra = []
        if opts.trace:
            extra += ["--metrics-json", "mine.metrics.json",
                      "--trace-out", "mine.trace.json"]
        if last_exit is not None:
            gaps.append((time.perf_counter() - last_exit) * 1e3)
        ms, ok, maxrss, body = timed_mine(mine_args(minsup, extra))
        last_exit = time.perf_counter()
        if i == 0 and opts.inject_mismatch:
            body = body[:-1] + b"?"
        if ok and body == expected:
            walls.append(ms)
        else:
            failed += 1
            walls.append(None)
        rss.append(maxrss)
        if opts.trace:
            with open(os.path.join(WORK, "mine.metrics.json")) as f:
                registries.append(json.load(f))
        probe.step("hit", 3)
        if appended < APPENDS and time.perf_counter() - start >= next_append:
            probe.step("append")
            appended += 1
            next_append += append_every_s(opts)
        i += 1
    span_s = last_exit - start
    ok_walls = [w for w in walls if w is not None]
    if opts.trace:
        probe.step("reload", RELOADS if opts.scale == "paper" else 3)
    probe = probe.end()
    daemon.stop()
    attempted = len(walls) + probe["attempted"]
    failed += probe["failed"]

    e2e = {
        "setup_s": (setup_s, "s", 9),
        "mine_wall_iqm_ms": (iqm(walls), "ms", len(walls)),
        "mine_wall_p90_ms": (pct(walls, 90), "ms", len(walls)),
        "peak_rss_mb": (max(rss) / 1024.0, "MiB", len(rss)),
        "hit_p50_ms": (pct(probe["hit_ms"], 50), "ms", len(probe["hit_ms"])),
        # Every mine query of the run: the one-shot processes and the
        # probe's served queries.
        "query_p95_ms": (pct(walls + probe["query_ms"], 95), "ms",
                         len(walls) + len(probe["query_ms"])),
        "served_qps": (len(ok_walls) / span_s, "1/s", len(ok_walls)),
        "append_p50_ms": (pct(probe["append_ms"], 50), "ms",
                          len(probe["append_ms"])),
    }
    layers = {}
    if opts.trace:
        layers, _ = layers_pass([("quest", "quest.fdb")],
                                [("quest", [("minsup", minsup),
                                            ("format", "csv")])])
        layers.update(miner_layers(registries, median))
        layers.update(probe_layers(probe))
        layers.update({
            "storage.append_commit_ms": median(probe["append_commit_ms"]),
            "storage.append_bytes_per_txn": median(
                probe["append_bytes_per_txn"]),
            "loadgen.late_p95_ms": pct(gaps, 95),
        })
    extra = {"fidelity": fid, "probe_errors": probe["errors"]}
    return e2e, layers, attempted, failed, all(fid["claims"].values()), extra


def probe_layers(probe):
    """Service-layer figures from a probe: hits, reloads, stats."""
    stats = probe["stats"]
    hits = registry_value(stats, "cache.hits")
    misses = registry_value(stats, "cache.misses")
    out = service_layers(stats, probe["threads_peak"], probe["cpu_ms"],
                         probe["attempted"])
    out.update({
        "server.latency_ms": median(probe["hit_server_ms"]),
        "wire_ms": median(probe["hit_wire_ms"]),
        "cache.hit_ratio": hits / max(1.0, hits + misses),
        "cache.dup_misses": 0.0,
        "registry.post_append_query_ms": median(probe["post_append_query_ms"]),
    })
    return out


def run_serve(opts):
    setup_s, stores, daemon = store_setup(opts.scale, True, 5)
    batch = append_batch(opts)
    args = ["load", "--socket", daemon.socket, "--seed", opts.seed,
            "--seconds", opts.seconds, "--rate", RATE, "--zipf", ZIPF,
            "--conns", CONNS, "--pid", daemon.pid, "--trace", int(opts.trace),
            "--appends", APPENDS, "--append-batch", batch,
            "--append-copy", "append.quest.fdb"]
    for name, path in stores:
        args += ["--store", "%s=%s" % (name, path)]
    if opts.inject_mismatch:
        args += ["--inject-mismatch", opts.inject_mismatch]
    load = driver(*args)
    peak_rss_mb = daemon.vm_hwm_mb()
    log("load: %d keys, oracle %.1f s, %d bodies checked" %
        (load["num_keys"], load["oracle_s"], load["checked"]))
    for error in load["errors"]:
        log("load error: " + error)

    # Record columns: due, send, done, store, key, spec, outcome, cache,
    # server_ms (outcome 0 = ok).
    recs = load["records"]
    lat = [None if r[6] else (r[2] - r[0]) / 1e6 for r in recs]
    miss = [l for r, l in zip(recs, lat) if r[6] or r[7] == "miss"]
    hit = [l for r, l in zip(recs, lat) if r[6] or r[7] == "hit"]
    ok = [r for r in recs if r[6] == 0]
    span_s = (max(r[2] for r in recs) - min(r[0] for r in recs)) / 1e9
    appends = load["appends"]  # due, session, commit, bytes
    append_ms = [a[1] for a in appends]
    failed = sum(1 for r in recs if r[6])
    attempted = len(recs) + len(appends)
    e2e = {
        "setup_s": (setup_s, "s", 5),
        "mine_wall_iqm_ms": (iqm(miss), "ms", len(miss)),
        "mine_wall_p90_ms": (pct(miss, 90), "ms", len(miss)),
        "peak_rss_mb": (peak_rss_mb, "MiB", 1),
        "hit_p50_ms": (pct(hit, 50), "ms", len(hit)),
        "query_p95_ms": (pct(lat, 95), "ms", len(lat)),
        "served_qps": (len(ok) / span_s, "1/s", len(ok)),
        "append_p50_ms": (pct(append_ms, 50), "ms", len(append_ms)),
    }
    layers, probe = {}, None
    if opts.trace:
        # The load never changes a served store; a probe after it measures
        # the first query after a commit (the registry reload).
        probe = Probe(daemon, dict(stores)["quest"], opts)
        probe.step("hit", 40)
        probe.step("reload", RELOADS if opts.scale == "paper" else 3)
        probe = probe.end()
        attempted += probe["attempted"]
        failed += probe["failed"]
        layers, registries = layers_pass(stores, [])
        layers.update(miner_layers(registries, sum))
        layers.update(service_layers(load["stats"], load["threads_peak"],
                                     load["cpu_ms"], len(recs)))
        hits = [r for r in ok if r[7] == "hit"]
        misses = [r for r in ok if r[7] == "miss"]
        seen, dups = set(), 0
        for r in sorted(misses, key=lambda r: r[1]):
            dups += (r[3], r[4]) in seen
            seen.add((r[3], r[4]))
        layers.update({
            "storage.append_commit_ms": median([a[2] for a in appends]),
            "storage.append_bytes_per_txn": median(
                [a[3] for a in appends]) / batch,
            "server.latency_ms": median([r[8] for r in ok]),
            "wire_ms": median([(r[2] - r[1]) / 1e6 - r[8] for r in hits]),
            "cache.hit_ratio": len(hits) / max(1, len(hits) + len(misses)),
            "cache.dup_misses": float(dups),
            "registry.post_append_query_ms": median(
                probe["post_append_query_ms"]),
            "loadgen.late_p95_ms": pct([(r[1] - r[0]) / 1e6 for r in recs], 95),
        })
    daemon.stop()
    extra = {"oracle_s": load["oracle_s"], "checked": load["checked"],
             "errors": load["errors"] + (probe["errors"] if probe else [])}
    return e2e, layers, attempted, failed, True, extra


# --- main -------------------------------------------------------------------

def result_path(opts, trace):
    return os.path.join(WORK, "results", "%s.seed%d.trace%d.json" % (
        opts.workload, opts.seed, trace))


def tracing_overhead(opts, e2e):
    """This traced run's end-to-end figures minus those of the untraced
    run of the same workload, seed, scale and length, when this checkout
    holds its record; else None."""
    try:
        with open(result_path(opts, 0)) as f:
            untraced = json.load(f)
    except FileNotFoundError:
        return None
    if (untraced["scale"], untraced["seconds"]) != (opts.scale, opts.seconds):
        return None
    return {k: v[0] - untraced["end_to_end"][k] for k, v in e2e.items()}


def load_contract():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test knobs: reduced-scale inputs, and corrupt N checked bodies
    # to prove a mismatch is counted as a failed operation.
    parser.add_argument("--scale", choices=("paper", "small"), default="paper")
    parser.add_argument("--inject-mismatch", type=int, default=0)
    opts = parser.parse_args()

    contract = load_contract()
    build()
    fingerprint = host_fingerprint()
    if opts.workload == "mine_quest":
        outcome = run_mine_quest(opts)
    else:
        outcome = run_serve(opts)
    e2e, layers, attempted, failed, claims_hold, extra = outcome

    names = ([m["name"] for m in contract["per_layer"]] if opts.trace
             else [m["name"] for m in contract["end_to_end"]])
    units = {m["name"]: m["unit"] for m in
             contract["end_to_end"] + contract["per_layer"]}
    metrics = {}
    for name in names:
        if opts.trace:
            value, count = layers[name], None
        else:
            value, _, count = e2e[name]
        metrics[name] = {"value": value, "unit": units[name]}
        log("%-34s %14.6g %-6s%s" % (name, value, units[name],
                                     "" if count is None else
                                     "  (n=%d)" % count))
    overhead = None
    if opts.trace:
        log("traced end-to-end: " + ", ".join(
            "%s %.6g" % (k, v[0]) for k, v in e2e.items()))
        overhead = tracing_overhead(opts, e2e)
        if overhead is None:
            log("tracing overhead: no untraced run of seed %d in this "
                "checkout; run --trace 0 first" % opts.seed)
        else:
            log("tracing overhead (traced - untraced, seed %d): " % opts.seed +
                ", ".join("%s %+.6g" % kv for kv in overhead.items()))
    log("ops %d, ops_failed %d" % (attempted, failed))

    result = {"correct": failed == 0 and claims_hold, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = dict(result, workload=opts.workload, seed=opts.seed,
                  seconds=opts.seconds, trace=opts.trace, scale=opts.scale,
                  fingerprint=fingerprint, extra=extra,
                  tracing_overhead=overhead,
                  samples={k: v[2] for k, v in e2e.items()},
                  end_to_end={k: v[0] for k, v in e2e.items()})
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(result_path(opts, opts.trace), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    try:
        main()
    finally:
        stop_children()
