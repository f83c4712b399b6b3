#!/usr/bin/env python3
"""The CPDB benchmark: one command, three workloads.

    python3 perfbench/run.py --workload serve_write --seed 1 --seconds 20 --trace 0

Builds the library, the server (cpdb_serve), its load rig
(cpdb_bench_client) and the round program (perfbench_round) from the
checkout's sources, runs a fixed number of rounds of the named workload
(set by --seconds: as many as fill it on the reference host), checks every
round's outputs, prints a latency budget, and prints one JSON object as the
last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 reports the per-layer metrics: rounds alternate between untraced
and traced, registry deltas come from the untraced rounds, span self times
from the traced ones, and obs.trace_overhead_pct compares the two.

Workloads (see perfbench/README.md):
  serve_write     4 curators commit into an empty durable HT store
  serve_read      3 readers query a preloaded store beside 1 writer
  paper_curation  the paper's Table-1 mix under strategy H, in-process

Every file this writes lives under .bench_build/ in the checkout.
"""

import argparse
import atexit
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(REPO, ".bench_build", "perfbench")
RUN_DIR = os.path.join(REPO, ".bench_build", "run-%d" % os.getpid())
ROUND = os.path.join(BUILD, "perfbench_round")
SERVE = os.path.join(BUILD, "cpdb", "cpdb_serve")
CLIENT = os.path.join(BUILD, "cpdb", "cpdb_bench_client")

WORKLOADS = ("serve_write", "serve_read", "paper_curation")
MIN_ROUNDS = 3
MIN_TRACE_ROUNDS = 4     # two untraced, two traced
# Wall seconds one untraced round takes on the reference host (4 vCPUs).
# The round count is --seconds / ROUND_S, fixed before the first round, so
# two runs with one --seconds always take their statistics over the same
# number of rounds however fast the host is.
ROUND_S = {"serve_write": 2.5, "serve_read": 3.0, "paper_curation": 0.65}
WALL_CAP_S = 150         # start no round past this (the run must end in 180 s)
# perfbench_round's reference computation on the reference host, in CPU us.
# CPU figures are scaled by REFERENCE_US / (this run's reference time).
REFERENCE_US = 3200.0
SAMPLES = ("txn_us", "apply_us", "commit_us", "query_us", "op_us", "cpu_marks_us",
           "request_marks")
TRACE_EVERY = {"serve_write": 4, "serve_read": 16, "paper_curation": 4}
QUERY_VERBS = ("GETMOD", "TRACEBACK", "GET")

END_TO_END = [
    ("setup_s", "s"),
    ("norm_cpu_us_per_request", "us"),
    ("store_bytes_per_op", "B"),
    ("peak_rss_mb", "MiB"),
]

CLIENT_WALL = [
    ("client.txn_per_s", "1/s"),
    ("client.txn_p50_us", "us"),
    ("client.txn_p99_us", "us"),
    ("client.op_p50_us", "us"),
    ("client.op_p99_us", "us"),
    ("client.query_per_s", "1/s"),
    ("client.query_p50_us", "us"),
    ("client.query_p99_us", "us"),
]

PER_LAYER = (
    CLIENT_WALL
    + [("net.exec_us.%s" % v.lower(), "us") for v in ("APPLY", "COMMIT") + QUERY_VERBS]
    + [
        ("net.unattributed_us.txn", "us"),
        ("net.unattributed_us.query", "us"),
        ("net.requests", "count"),
        ("net.retries", "count"),
        ("net.bad_frames", "count"),
    ]
    + [("service.commit.%s_us" % s, "us") for s in ("queue", "apply", "seal", "wake")]
    + [
        ("service.commit.cohort_size", "txn"),
        ("service.fsyncs_per_commit", "ratio"),
        ("service.latch.excl_wait_us", "us"),
        ("service.latch.shared_wait_us", "us"),
        ("service.session.latch_wait_us", "us"),
        ("service.sessions.built", "count"),
        ("service.sessions.refreshed", "count"),
        ("service.snapshot_rebuild_rows", "count"),
        ("service.versions_live", "count"),
        ("storage.wal.append_us", "us"),
        ("storage.wal.fsync_us", "us"),
        ("storage.wal.bytes_per_commit", "B"),
        ("storage.fsyncs", "count"),
    ]
    + [("query.%s_us" % k, "us") for k in ("execute", "subtree_scan", "ancestor_batch", "loc_scan")]
    + [("query.%s_us" % k, "us") for k in ("getmod", "getsrc", "gethist")]
    + [
        ("query.modelled_round_trips_per_query", "count"),
        ("cpdb.apply_update_us", "us"),
        ("cpdb.commit_us", "us"),
        ("provenance.modelled_round_trips_per_op", "count"),
        ("provenance.modelled_write_trips_per_op", "count"),
        ("provenance.modelled_rows_per_op", "count"),
        ("provenance.records", "count"),
        ("provenance.records_per_op", "count"),
        ("wrap.modelled_target_write_trips_per_op", "count"),
        ("client.fail_ratio", "ratio"),
        ("host.cpu_us_per_request", "us"),
        ("host.reference_us", "us"),
        ("obs.trace_overhead_pct.txn", "%"),
        ("obs.trace_overhead_pct.query", "%"),
    ]
)

_live = []  # server processes to reap on any exit path


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def die(msg):
    log("perfbench: " + msg)
    sys.exit(2)


def reap():
    for proc in _live:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    _live.clear()
    shutil.rmtree(RUN_DIR, ignore_errors=True)


def build():
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(REPO, needed)):
            die("the repository sources are missing (%s); nothing to build" % needed)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench_round", "cpdb_serve", "cpdb_bench_client"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            die("build failed: " + " ".join(cmd))


# ----- servers ---------------------------------------------------------------

class Server:
    """cpdb_serve on an ephemeral port with its store in `data_dir`."""

    def __init__(self, data_dir):
        self.errlog = open(os.path.join(RUN_DIR, "serve.log"), "a")
        self.proc = subprocess.Popen(
            [SERVE, "--dir=" + data_dir, "--port=0", "--strategy=HT"],
            stdout=subprocess.PIPE, stderr=self.errlog, text=True)
        _live.append(self.proc)
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        banner = self.proc.stdout.readline() if ready else ""
        if "listening on" not in banner:
            self.stop()
            die("cpdb_serve did not start: %r" % banner)
        self.port = int(banner.split("listening on ")[1].split()[0].rsplit(":", 1)[1])

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        """SIGTERM (graceful drain); True when the server exited 0."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        _live.remove(self.proc)
        self.errlog.close()
        return self.proc.returncode == 0


def dir_bytes(path):
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def parse_metrics(text):
    """The METRICS exposition minus histogram buckets: "name{labels}" -> value."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#") or "_bucket" in line:
            continue
        name, _, value = line.rpartition(" ")
        out[name] = float(value)
    return out


def drive(*args):
    """Runs one round of perfbench_round and decodes its flat JSON object."""
    done = subprocess.run([ROUND] + list(args), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=90)
    if done.returncode != 0:
        die("perfbench_round %s failed: %s" % (args[0], done.stderr[-2000:]))
    r = json.loads(done.stdout.strip().splitlines()[-1])
    traces, verbs = {}, {}
    for key in list(r):
        if key in SAMPLES:
            r[key] = [float(x) for x in r[key].split()]
        elif key.startswith("query_us."):
            verbs[key.split(".", 1)[1]] = [float(x) for x in r.pop(key).split()]
        elif key.startswith("trace."):
            traces[int(key.split(".", 1)[1])] = json.loads(r.pop(key))
        elif key in ("m0", "m1"):
            r[key] = parse_metrics(r[key])
    r["query_verb_us"] = verbs
    r["traces"] = [traces[i] for i in sorted(traces)]
    return r


def digest(port, path):
    """cpdb_bench_client's digest of the serve_write rows (GET and GETMOD of
    every key, TRACEBACK of the first two per connection) into `path`."""
    done = subprocess.run([CLIENT, "--mode=digest", "--port=%d" % port, "--connections=4",
                           "--keys=1000", "--digest=" + path],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=90)
    if done.returncode != 0:
        die("cpdb_bench_client --mode=digest failed: " + done.stdout[-2000:])
    with open(path) as f:
        return f.read()


def serve_round(workload, seed, trace_every, index):
    data = os.path.join(RUN_DIR, "db-%d" % index)
    check_restart = workload == "serve_write" and index == 0
    server = Server(data)
    try:
        r = drive("--mode=" + workload, "--port=%d" % server.port, "--seed=%d" % seed,
                  "--server-pid=%d" % server.proc.pid, "--trace-every=%d" % trace_every)
        r["peak_rss_mb"] = server.peak_rss_mb()
        before = digest(server.port, os.path.join(RUN_DIR, "digest-before")) if check_restart else None
    finally:
        r_drained = server.stop()
    r["drained"] = r_drained
    r["store_bytes"] = dir_bytes(data)
    if check_restart:
        # Durability gate: the digest taken before SIGTERM must equal the
        # one a restarted server answers from disk.
        again = Server(data)
        try:
            after = digest(again.port, os.path.join(RUN_DIR, "digest-after"))
        finally:
            drained = again.stop()
        r["restart_ok"] = drained and after == before
    shutil.rmtree(data, ignore_errors=True)
    return r


def curation_round(seed, trace_every):
    return drive("--mode=paper_curation", "--seed=%d" % seed, "--trace-every=%d" % trace_every)


# ----- statistics --------------------------------------------------------------

def pct(samples, q):
    """Nearest-rank percentile, as the repository's bench harness defines it."""
    s = sorted(samples)
    return s[min(len(s) - 1, int(q * len(s)))] if s else 0.0


def mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def pooled(rounds, key):
    out = []
    for r in rounds:
        out.extend(r[key])
    return out


def delta(rounds, name):
    return sum(r["m1"].get(name, 0.0) - r["m0"].get(name, 0.0) for r in rounds)


def ratio(num, den):
    return num / den if den else 0.0


def hist_mean(rounds, base, label=None):
    lab = "{%s}" % label if label else ""
    return ratio(delta(rounds, base + "_sum" + lab), delta(rounds, base + "_count" + lab))


def span_self_times(rounds):
    """Mean self time per span kind over the traced rounds' traces, deduped
    by trace id within each round (ids repeat across rounds of one seed)."""
    acc, traces = {}, 0

    def walk(span):
        children = span.get("children", [])
        self_us = span["dur_us"] - sum(c["dur_us"] for c in children)
        acc.setdefault(span["kind"], []).append(self_us)
        for c in children:
            walk(c)

    for r in rounds:
        seen = set()
        for body in r["traces"]:
            for t in body.get("traces", []):
                if t["trace_id"] in seen or "root" not in t:
                    continue
                seen.add(t["trace_id"])
                walk(t["root"])
        traces += len(seen)
    return {kind: mean(v) for kind, v in acc.items()}, traces


def query_time_s(workload, r):
    return r["queries_s"] if workload == "paper_curation" else r["window_s"]


def cpu_per_request(r):
    """CPU time of the system under test per client request over one
    round's window: the server process for serve_*, the editor and query
    calls in-process for paper_curation."""
    return r["cpu_marks_us"][-1] / r["request_marks"][-1]


def quietest_cpu_per_request(rounds):
    """CPU per request over the rounds' windows, taking each stretch between
    two marks from the round that ran it cheapest. Rounds of one run repeat
    the same work, and contention from other tenants of the host only ever
    adds CPU time, so the quietest observation of each stretch is the
    steadiest estimate of its cost."""
    stretches = min(len(r["cpu_marks_us"]) for r in rounds) - 1
    cpu = requests = 0.0
    for i in range(stretches):
        costs, counts = [], []
        for r in rounds:
            n = r["request_marks"][i + 1] - r["request_marks"][i]
            if n > 0:
                costs.append((r["cpu_marks_us"][i + 1] - r["cpu_marks_us"][i]) / n)
                counts.append(n)
        if costs:
            cpu += min(costs) * statistics.median(counts)
            requests += statistics.median(counts)
    return ratio(cpu, requests)


def store_bytes_per_op(workload, r):
    if workload == "paper_curation":
        return ratio(r["prov_bytes"], r["applies"])
    return ratio(r["store_bytes"], r["applies"] + r.get("preload_applies", 0))


def host_speed(rounds):
    """How much slower than the reference host this run's CPU is: the
    quietest reference time over REFERENCE_US."""
    return min(r["reference_us"] for r in rounds) / REFERENCE_US


def end_to_end(workload, rounds):
    """The gated metrics over the run's rounds. CPU times take the quietest
    observation (of the set-up, and of each stretch of the window), sizes
    the median. CPU per request is scaled to the reference host's speed."""
    def med(fn):
        return statistics.median(fn(r) for r in rounds)
    return {
        "setup_s": min(r["setup_cpu_s"] for r in rounds),
        "norm_cpu_us_per_request": quietest_cpu_per_request(rounds) / host_speed(rounds),
        "store_bytes_per_op": med(lambda r: store_bytes_per_op(workload, r)),
        "peak_rss_mb": med(lambda r: r["peak_rss_mb"]),
    }


def client_wall(workload, rounds):
    """Client-observed wall-clock latency and rate, pooled over the rounds."""
    ops = pooled(rounds, "op_us" if workload == "paper_curation" else "apply_us")
    txn, query = pooled(rounds, "txn_us"), pooled(rounds, "query_us")
    txn_time = "ops_s" if workload == "paper_curation" else "window_s"
    return {
        "client.txn_per_s": statistics.median(ratio(r["committed"], r[txn_time]) for r in rounds),
        "client.txn_p50_us": pct(txn, 0.50),
        "client.txn_p99_us": pct(txn, 0.99),
        "client.op_p50_us": pct(ops, 0.50),
        "client.op_p99_us": pct(ops, 0.99),
        "client.query_per_s": statistics.median(
            ratio(len(r["query_us"]), query_time_s(workload, r)) for r in rounds),
        "client.query_p50_us": pct(query, 0.50),
        "client.query_p99_us": pct(query, 0.99),
    }


def registry_layers(rounds):
    """Per-layer means from METRICS deltas over the rounds' windows."""
    commits = delta(rounds, "cpdb_commits_total")
    m = {}
    for verb in ("APPLY", "COMMIT") + QUERY_VERBS:
        m["net.exec_us.%s" % verb.lower()] = hist_mean(rounds, "cpdb_request_us", 'verb="%s"' % verb)
    txn_exec = ratio(delta(rounds, 'cpdb_request_us_sum{verb="APPLY"}')
                     + delta(rounds, 'cpdb_request_us_sum{verb="COMMIT"}'), commits)
    q_sum = sum(delta(rounds, 'cpdb_request_us_sum{verb="%s"}' % v) for v in QUERY_VERBS)
    q_cnt = sum(delta(rounds, 'cpdb_request_us_count{verb="%s"}' % v) for v in QUERY_VERBS)
    txn = pooled(rounds, "txn_us")
    query = pooled(rounds, "query_us")
    m["net.unattributed_us.txn"] = mean(txn) - txn_exec if commits else 0.0
    m["net.unattributed_us.query"] = mean(query) - ratio(q_sum, q_cnt) if q_cnt else 0.0
    n = len(rounds)
    m["net.requests"] = delta(rounds, "cpdb_requests_total") / n
    m["net.retries"] = delta(rounds, "cpdb_retries_total") / n
    m["net.bad_frames"] = delta(rounds, "cpdb_bad_frames_total") / n
    for stage in ("queue", "apply", "seal", "wake"):
        m["service.commit.%s_us" % stage] = hist_mean(rounds, "cpdb_commit_stage_us", 'stage="%s"' % stage)
    m["service.commit.cohort_size"] = hist_mean(rounds, "cpdb_commit_cohort_size")
    m["service.fsyncs_per_commit"] = ratio(delta(rounds, "cpdb_fsyncs_total"), commits)
    m["service.latch.excl_wait_us"] = hist_mean(rounds, "cpdb_latch_excl_wait_us")
    m["service.latch.shared_wait_us"] = hist_mean(rounds, "cpdb_latch_shared_wait_us")
    m["service.sessions.built"] = delta(rounds, "cpdb_sessions_built_total") / n
    m["service.sessions.refreshed"] = delta(rounds, "cpdb_sessions_refreshed_total") / n
    m["service.snapshot_rebuild_rows"] = delta(rounds, "cpdb_snapshot_rebuild_rows_total") / n
    m["service.versions_live"] = mean([r["m1"].get("cpdb_versions_live", 0.0) for r in rounds])
    m["storage.wal.append_us"] = hist_mean(rounds, "cpdb_wal_append_us")
    m["storage.wal.fsync_us"] = hist_mean(rounds, "cpdb_wal_fsync_us")
    m["storage.wal.bytes_per_commit"] = ratio(delta(rounds, "cpdb_log_bytes_total"), commits)
    m["storage.fsyncs"] = delta(rounds, "cpdb_fsyncs_total") / n
    return m


def curation_layers(rounds):
    applies = sum(r["applies"] for r in rounds)
    m = {
        "cpdb.apply_update_us": mean(pooled(rounds, "op_us")),
        "cpdb.commit_us": mean(pooled(rounds, "commit_us")),
        "query.modelled_round_trips_per_query": ratio(
            sum(r["modelled_query_round_trips"] for r in rounds), len(pooled(rounds, "query_us"))),
        "provenance.modelled_round_trips_per_op": ratio(sum(r["modelled_round_trips"] for r in rounds), applies),
        "provenance.modelled_write_trips_per_op": ratio(sum(r["modelled_write_trips"] for r in rounds), applies),
        "provenance.modelled_rows_per_op": ratio(sum(r["modelled_rows"] for r in rounds), applies),
        "provenance.records": mean([r["prov_records"] for r in rounds]),
        "provenance.records_per_op": ratio(sum(r["prov_records"] for r in rounds), applies),
        "wrap.modelled_target_write_trips_per_op": ratio(
            sum(r["modelled_target_write_trips"] for r in rounds), applies),
    }
    for verb in ("GETMOD", "GETSRC", "GETHIST"):
        m["query.%s_us" % verb.lower()] = mean(pooled_verb(rounds, verb))
    return m


def pooled_verb(rounds, verb):
    out = []
    for r in rounds:
        out.extend(r["query_verb_us"].get(verb, []))
    return out


def per_layer(workload, plain, traced):
    m = {name: 0.0 for name, _ in PER_LAYER}  # a layer this workload leaves idle reads 0
    m.update(client_wall(workload, plain))
    if workload == "paper_curation":
        m.update(curation_layers(plain))
    else:
        m.update(registry_layers(plain))
    selfs, n_traces = span_self_times(traced)
    for kind in ("execute", "subtree_scan", "ancestor_batch", "loc_scan"):
        m["query.%s_us" % kind] = selfs.get("query." + kind, 0.0)
    m["service.session.latch_wait_us"] = selfs.get("session.latch_wait", 0.0)
    for what, key in (("txn", "txn_us"), ("query", "query_us")):
        base = pct(pooled(plain, key), 0.5)
        m["obs.trace_overhead_pct." + what] = (
            100.0 * (pct(pooled(traced, key), 0.5) - base) / base if base else 0.0)
    attempted, failed = attempts(plain + traced)
    m["client.fail_ratio"] = ratio(failed, attempted)
    m["host.cpu_us_per_request"] = quietest_cpu_per_request(plain)
    m["host.reference_us"] = host_speed(plain) * REFERENCE_US
    return m, n_traces


def attempts(rounds):
    attempted = sum(len(r["txn_us"]) + len(r["query_us"]) + r["failed"] for r in rounds)
    return attempted, sum(int(r["failed"]) for r in rounds)


# ----- correctness -------------------------------------------------------------

def check(workload, rounds):
    """Returns the list of failed gates (empty when every round is correct)."""
    bad = []
    for i, r in enumerate(rounds):
        tag = "round %d: " % i
        if r["failed"]:
            bad.append(tag + "%d requests failed" % r["failed"])
        if not r.get("drained", True):
            bad.append(tag + "server did not drain cleanly")
        if not r.get("restart_ok", True):
            bad.append(tag + "digest after restart differs from the digest before SIGTERM")
        if workload == "paper_curation":
            continue
        # m0 and m1 bracket the window, whose commits are all the client's.
        counted = r["m1"].get("cpdb_commits_total", 0) - r["m0"].get("cpdb_commits_total", 0)
        if r["committed"] != counted:
            bad.append(tag + "%d acknowledged commits, server counted %d" % (r["committed"], counted))
        preload = r.get("preload_committed", 0)
        if preload and preload != r["m0"].get("cpdb_commits_total", 0):
            bad.append(tag + "%d preload commits acknowledged, server counted %d" % (
                preload, r["m0"].get("cpdb_commits_total", 0)))
        if r["mirror_mismatches"]:
            bad.append(tag + "%d rows differ from the client mirror" % r["mirror_mismatches"])
        if r["empty_getmods"]:
            bad.append(tag + "%d GETMODs on preloaded rows were empty" % r["empty_getmods"])
        if r.get("poll_failed"):
            bad.append(tag + "TRACES polling failed")
    if workload == "paper_curation":
        answers = {(r["digest"], r["prov_records"], r["applies"]) for r in rounds}
        if len(answers) != 1:
            bad.append("query answers or provenance records differ between rounds of one seed")
    return bad


# ----- report ------------------------------------------------------------------

def budget_table(workload, rounds):
    """Client-observed means beside the server stages that make them up."""
    reg = registry_layers(rounds)
    txn = mean(pooled(rounds, "txn_us"))
    query = mean(pooled(rounds, "query_us"))
    lines = ["latency budget: %s, %d untraced rounds, mean us" % (workload, len(rounds))]
    if txn:
        apply_share = reg["net.exec_us.apply"] * ratio(
            delta(rounds, 'cpdb_request_us_count{verb="APPLY"}'), delta(rounds, "cpdb_commits_total"))
        lines += [
            "  client txn (APPLY x8 + COMMIT)      %10.1f" % txn,
            "    server exec, APPLYs               %10.1f" % apply_share,
            "    server exec, COMMIT               %10.1f" % reg["net.exec_us.commit"],
            "      commit.queue                    %10.1f" % reg["service.commit.queue_us"],
            "      commit.apply                    %10.1f" % reg["service.commit.apply_us"],
            "      commit.seal                     %10.1f" % reg["service.commit.seal_us"],
            "        wal append / fsync per cohort %10.1f / %.1f" % (
                reg["storage.wal.append_us"], reg["storage.wal.fsync_us"]),
            "      commit.wake                     %10.1f" % reg["service.commit.wake_us"],
            "    net.unattributed_us.txn           %10.1f" % reg["net.unattributed_us.txn"],
        ]
    if query:
        lines.append("  client query                        %10.1f" % query)
        for verb in QUERY_VERBS:
            lines.append("    server exec, %-9s (mean)      %10.1f" % (
                verb, reg["net.exec_us.%s" % verb.lower()]))
        lines.append("    net.unattributed_us.query         %10.1f" % reg["net.unattributed_us.query"])
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    atexit.register(reap)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))
    build()
    os.makedirs(RUN_DIR, exist_ok=True)

    started = time.perf_counter()
    n_rounds = max(MIN_TRACE_ROUNDS if args.trace else MIN_ROUNDS,
                   int(args.seconds / ROUND_S[args.workload] + 0.5))
    plain, traced = [], []
    for index in range(n_rounds):
        round_start = time.perf_counter()
        if round_start - started > WALL_CAP_S:
            log("perfbench: stopped after %d of %d rounds at the %d s wall cap" % (
                index, n_rounds, WALL_CAP_S))
            break
        trace_every = TRACE_EVERY[args.workload] if args.trace and index % 2 == 1 else 0
        if args.workload == "paper_curation":
            r = curation_round(args.seed, trace_every)
        else:
            r = serve_round(args.workload, args.seed, trace_every, index)
        (traced if trace_every else plain).append(r)
        log("round %d%s: %.2f s, window %.2f s, %d txns, %d queries, %.1f cpu us/request" % (
            index, " (traced)" if trace_every else "", time.perf_counter() - round_start,
            r["window_s"], r["committed"],
            len(r["query_us"]), cpu_per_request(r)))

    rounds = plain + traced
    bad = check(args.workload, rounds)
    for b in bad:
        log("perfbench: CHECK FAILED: " + b)
    if args.workload != "paper_curation":
        print(budget_table(args.workload, plain))
    else:
        r = rounds[0]
        print("paper_curation: %d ops (%d adds, %d deletes, %d copies), %d provenance records, "
              "answers digest %s" % (r["applies"], r["adds"], r["deletes"], r["copies"],
                                     r["prov_records"], r["digest"]))
    if args.trace:
        values, n_traces = per_layer(args.workload, plain, traced)
        units = dict(PER_LAYER)
        print("%d traces sampled over %d traced rounds" % (n_traces, len(traced)))
    else:
        print("client wall clock (reported by --trace 1, not gated):")
        for name, value in client_wall(args.workload, plain).items():
            print("  %-44s %14.4f %s" % (name, value, dict(CLIENT_WALL)[name]))
        print("  %-44s %14.4f us (host speed %.3f of the reference)" % (
            "cpu_us_per_request, unscaled", quietest_cpu_per_request(plain), 1 / host_speed(plain)))
        values = end_to_end(args.workload, plain)
        units = dict(END_TO_END)
    for name in sorted(values):
        print("  %-44s %14.4f %s" % (name, values[name], units[name]))
    attempted, failed = attempts(rounds)
    result = {
        "correct": not bad,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main())
