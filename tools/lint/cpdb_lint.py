#!/usr/bin/env python3
"""cpdb_lint: repo-specific invariants that neither the compiler nor
clang-tidy can express. Runs in CI (the `analyze` job) and locally:

    python3 tools/lint/cpdb_lint.py [--root .]

Exit status 0 means every rule holds; 1 means findings were printed,
one per line, as `RULE path:line: message`.

Rules
-----
DURABILITY-FSYNC
    fsync/fdatasync may appear only under src/storage/. The durability
    story (one group-commit fsync per cohort, counted in
    DurabilityStats and charged on the CostModel) depends on every
    barrier going through Wal::Sync; a stray fsync elsewhere silently
    breaks both the perf model and the crash-consistency argument.

ANNOTATED-MUTEX
    src/service/ and src/storage/ must use the annotated primitives
    from util/mutex.h (cpdb::Mutex, cpdb::MutexLock, cpdb::CondVar),
    never raw std::mutex & friends: Clang's thread-safety analysis
    cannot see through libstdc++'s unannotated types, so a raw mutex
    in those layers is an unchecked lock. The escape hatch
    CPDB_NO_THREAD_SAFETY_ANALYSIS is likewise banned there — the
    concurrency core must stay fully analyzed (zero suppressions).
    util/mutex.h itself is the one sanctioned wrapper site.

PROV-TABLE-WRITES
    The Prov/TxnMeta tables may be touched by name only inside
    provenance/backend.cc: all writes funnel through
    ProvBackend::WriteRecords / WriteTxnMeta (that is what makes the
    round-trip accounting and the service layer's shared-table
    contract enforceable). Production code and benches must go through
    the backend; tests/ may read the tables to assert on them.

BENCH-JSON
    Every figure bench in bench/*.cc must emit the harness JSON schema
    ({"bench":..., "config":..., "rows":[...]}) behind a --json flag,
    via bench::JsonReport, so BENCH_*.json perf-trajectory tracking
    can diff any bench across PRs. bench_micro.cc is exempt: it is a
    google-benchmark binary with that framework's own JSON reporter.

NET-FRAMING
    Raw socket byte movement (send/recv/sendto/recvfrom/sendmsg/
    recvmsg) may appear only in src/net/frame.cc: every wire byte in
    src/net/ and tools/ travels as a `varint(len)|crc32|payload` frame
    through the helpers there, so no unframed payload can ever reach
    the wire and the robustness guarantees (torn/oversized/bit-flipped
    input -> typed error + close, never a crash or partial apply) hold
    at a single choke point. Even the tests' deliberate violations go
    through frame.cc's WriteRaw. Pipe/file read(2)/write(2) are fine —
    the rule names only the socket verbs. (src/net/metrics_http.cc's
    plain-HTTP GET /metrics endpoint speaks read(2)/write(2) by design:
    standard Prometheus scrapers do not speak the cpdb frame protocol,
    and keeping it off the framed path is exactly what this rule wants.)

OBS-METRICS
    src/service/ and src/net/ must export operational counters through
    the obs::Registry (src/obs/metrics.h), not ad-hoc std::atomic
    members: the registry is the single typed surface behind STATS,
    METRICS, /metrics, and the bench JSON, and a counter living outside
    it is invisible to all four. The allowlist names the std::atomic
    members that are NOT metrics — engine tid allocation and seal
    probes, the latch's epoch, the snapshot chain's watermark, and the
    server's lifecycle flags — each of which is load-bearing
    synchronization state with its own reader, not telemetry. The same
    layers may not declare a `struct Stats` either: a private counter
    block under the component's mutex, re-exported to the registry by a
    scrape callback, is the second copy of every counter this rule
    exists to prevent — components bump registry counters handed in
    through set_metrics instead.

OBS-TRACE
    Every protocol verb the server executes must pass through the ONE
    tracing choke point, Server::ExecuteTraced (src/net/server.cc):
    that is where the sampled/EXPLAIN/slow-request decision is made, the
    root span ("server.<VERB>") is opened, and the assembled tree is
    recorded into the engine's SpanStore. Concretely: WorkerLoop must
    dispatch via ExecuteTraced (never Execute directly), Execute may be
    called only from ExecuteTraced (plus its own definition), and
    ExecuteTraced must open the "server."-prefixed root span. A verb
    handler that bypasses the choke point is invisible to TRACES,
    EXPLAIN, and the slow-request log all at once.
"""

import argparse
import pathlib
import re
import sys

FINDINGS = []


def finding(rule, path, lineno, msg):
    FINDINGS.append(f"{rule} {path}:{lineno}: {msg}")


def strip_comments(line):
    """Drop // comments; enough for these rules (no /* */ spans in rules'
    target patterns that matter, and string literals never contain them)."""
    pos = line.find("//")
    return line if pos < 0 else line[:pos]


def iter_source(root, subdir, suffixes=(".cc", ".h")):
    base = root / subdir
    if not base.is_dir():
        return
    for path in sorted(base.rglob("*")):
        if path.suffix in suffixes and path.is_file():
            yield path


FSYNC_RE = re.compile(r"\b(?:::)?f(?:data)?sync\s*\(")
# ChargeFsync()/Fsyncs() are cost-model accounting, not barriers.
FSYNC_OK_RE = re.compile(r"(?:ChargeFsync|Fsyncs)\s*\(")


def check_fsync(root):
    for path in iter_source(root, "src"):
        rel = path.relative_to(root)
        if rel.parts[:2] == ("src", "storage"):
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            code = strip_comments(line)
            if FSYNC_OK_RE.search(code):
                code = FSYNC_OK_RE.sub("", code)
            if FSYNC_RE.search(code):
                finding("DURABILITY-FSYNC", rel, lineno,
                        "fsync/fdatasync outside src/storage/ "
                        "(barriers must go through Wal::Sync)")


RAW_SYNC_RE = re.compile(
    r"std::(?:mutex|timed_mutex|recursive_mutex|shared_mutex|"
    r"condition_variable(?:_any)?|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock)\b")


def check_annotated_mutex(root):
    for subdir in ("src/service", "src/storage"):
        for path in iter_source(root, subdir):
            rel = path.relative_to(root)
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                code = strip_comments(line)
                m = RAW_SYNC_RE.search(code)
                if m:
                    finding("ANNOTATED-MUTEX", rel, lineno,
                            f"raw {m.group(0)} in a concurrency layer; "
                            "use cpdb::Mutex/MutexLock/CondVar "
                            "(util/mutex.h) so -Wthread-safety sees it")
                if "CPDB_NO_THREAD_SAFETY_ANALYSIS" in code:
                    finding("ANNOTATED-MUTEX", rel, lineno,
                            "thread-safety suppression in a concurrency "
                            "layer; src/service and src/storage must stay "
                            "fully analyzed")


PROV_TABLE_RE = re.compile(
    r"kProvTable|kMetaTable|"
    r"(?:GetTable|CreateTable|DropTable)\s*\(\s*\"(?:Prov|TxnMeta)\"")
PROV_ALLOWED = {
    pathlib.PurePath("src/provenance/backend.cc"),
    pathlib.PurePath("src/provenance/backend.h"),
}


def check_prov_table_writes(root):
    dirs = ["src", "bench", "examples"]
    for subdir in dirs:
        for path in iter_source(root, subdir):
            rel = path.relative_to(root)
            if pathlib.PurePath(rel) in PROV_ALLOWED:
                continue
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                if PROV_TABLE_RE.search(strip_comments(line)):
                    finding("PROV-TABLE-WRITES", rel, lineno,
                            "direct Prov/TxnMeta table access outside "
                            "ProvBackend; writes must funnel through "
                            "WriteRecords/WriteTxnMeta")


BENCH_EXEMPT = {"bench_micro.cc"}  # google-benchmark's own reporter


def check_bench_json(root):
    bench = root / "bench"
    if not bench.is_dir():
        return
    for path in sorted(bench.glob("*.cc")):
        if path.name in BENCH_EXEMPT:
            continue
        rel = path.relative_to(root)
        text = path.read_text()
        missing = []
        if not re.search(r'#include\s+"harness\.h"', text):
            missing.append('#include "harness.h"')
        if "JsonReport" not in text:
            missing.append("a bench::JsonReport")
        if not re.search(r'GetString\s*\(\s*"json"', text):
            missing.append('the --json flag (GetString("json", ...))')
        if missing:
            finding("BENCH-JSON", rel, 1,
                    "bench does not emit the harness JSON schema; "
                    "missing " + ", ".join(missing))


SOCKET_VERB_RE = re.compile(
    r"\b(?:::)?(?:send|recv|sendto|recvfrom|sendmsg|recvmsg)\s*\(")
NET_FRAMING_ALLOWED = {pathlib.PurePath("src/net/frame.cc")}


def check_net_framing(root):
    for subdir in ("src/net", "tools"):
        for path in iter_source(root, subdir, suffixes=(".cc", ".h")):
            rel = path.relative_to(root)
            if pathlib.PurePath(rel) in NET_FRAMING_ALLOWED:
                continue
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                if SOCKET_VERB_RE.search(strip_comments(line)):
                    finding("NET-FRAMING", rel, lineno,
                            "raw socket send/recv outside src/net/frame.cc; "
                            "wire bytes must travel as frames through "
                            "WriteFrame/ReadFrame (net/frame.h)")


ATOMIC_DECL_RE = re.compile(r"std::atomic(?:<|_)")
STATS_STRUCT_RE = re.compile(r"\bstruct\s+Stats\b")
# Synchronization state, not telemetry: each entry is (file, member) for a
# std::atomic whose readers are correctness logic rather than a scrape.
OBS_METRICS_ALLOWED = {
    ("src/service/engine.h", "next_tid_"),       # tid allocator
    ("src/service/engine.h", "trace_id_seq_"),   # trace-id allocator
    ("src/service/engine.h", "committed_tid_"),  # MVCC watermark
    ("src/service/engine.h", "sync_calls_"),     # ONE-seal probe
    ("src/service/latch.h", "epoch_"),           # exclusive-section count
    ("src/service/snapshots.h", "latest_tid_"),  # version-chain watermark
    ("src/net/server.h", "draining_"),           # lifecycle flag
    ("src/net/server.h", "started_"),            # lifecycle flag
    ("src/net/metrics_http.h", "stopping_"),     # lifecycle flag
}


def check_obs_metrics(root):
    member_re = re.compile(r"std::atomic<[^>]*>\s+(\w+)")
    for subdir in ("src/service", "src/net"):
        for path in iter_source(root, subdir):
            rel = path.relative_to(root)
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                code = strip_comments(line)
                if STATS_STRUCT_RE.search(code):
                    finding("OBS-METRICS", rel, lineno,
                            "struct Stats in an instrumented layer; keep "
                            "counters in the obs::Registry (bump "
                            "obs::Counter sinks passed in via set_metrics) "
                            "instead of a private copy re-exported by a "
                            "scrape callback")
                if not ATOMIC_DECL_RE.search(code):
                    continue
                m = member_re.search(code)
                member = m.group(1) if m else "<expression>"
                if (str(rel), member) in OBS_METRICS_ALLOWED:
                    continue
                finding("OBS-METRICS", rel, lineno,
                        f"ad-hoc std::atomic '{member}' in an instrumented "
                        "layer; operational counters must register in the "
                        "obs::Registry (src/obs/metrics.h) so STATS/METRICS/"
                        "/metrics/bench JSON all see them (extend the "
                        "allowlist only for synchronization state)")


def check_obs_trace(root):
    """Pins the server's verb dispatch to the tracing choke point.

    Line-oriented, like the other rules: finds the function each line
    belongs to by tracking `Server::<name>(` definition headers, then
    enforces (a) WorkerLoop dispatches via ExecuteTraced, (b) Execute is
    invoked only from ExecuteTraced, (c) ExecuteTraced opens the
    "server." root span and records into the span store.
    """
    path = root / "src" / "net" / "server.cc"
    if not path.is_file():
        return
    rel = path.relative_to(root)
    defn_re = re.compile(r"\bServer::(\w+)\s*\(")
    execute_call_re = re.compile(r"(?<![\w:])Execute\s*\(")
    current_fn = None
    workerloop_dispatches = False
    execute_calls = []  # (lineno, enclosing function)
    traced_opens_root = False
    traced_records = False
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        code = strip_comments(line)
        m = defn_re.search(code)
        if m:
            current_fn = m.group(1)
            continue  # the definition header itself is not a call
        if current_fn == "WorkerLoop" and "ExecuteTraced(" in code:
            workerloop_dispatches = True
        if execute_call_re.search(code) and "ExecuteTraced" not in code:
            execute_calls.append((lineno, current_fn))
        if current_fn == "ExecuteTraced":
            if '"server."' in code:
                traced_opens_root = True
            if "spans().Record(" in code:
                traced_records = True
    if not workerloop_dispatches:
        finding("OBS-TRACE", rel, 1,
                "WorkerLoop does not dispatch through ExecuteTraced; "
                "every verb must pass the tracing choke point")
    for lineno, fn in execute_calls:
        if fn != "ExecuteTraced":
            finding("OBS-TRACE", rel, lineno,
                    f"direct Execute() call in {fn or '<toplevel>'}; only "
                    "ExecuteTraced may invoke Execute (the tracing choke "
                    "point decides collection for every verb)")
    if not traced_opens_root:
        finding("OBS-TRACE", rel, 1,
                'ExecuteTraced does not open the "server." root span')
    if not traced_records:
        finding("OBS-TRACE", rel, 1,
                "ExecuteTraced does not record into the engine SpanStore "
                "(spans().Record)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    args = parser.parse_args()
    root = pathlib.Path(args.root).resolve()
    if not (root / "src").is_dir():
        print(f"cpdb_lint: no src/ under {root}", file=sys.stderr)
        return 2

    check_fsync(root)
    check_annotated_mutex(root)
    check_prov_table_writes(root)
    check_bench_json(root)
    check_net_framing(root)
    check_obs_metrics(root)
    check_obs_trace(root)

    for f in FINDINGS:
        print(f)
    if FINDINGS:
        print(f"cpdb_lint: {len(FINDINGS)} finding(s)", file=sys.stderr)
        return 1
    print("cpdb_lint: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
