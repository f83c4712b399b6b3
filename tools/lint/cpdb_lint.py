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
    story (one group-commit fsync per cohort, counted once in
    DurabilityStats, its modelled time charged by CostModel::ChargeFsync)
    depends on every barrier going through Wal::Sync; a stray fsync
    elsewhere silently breaks both the perf model and the
    crash-consistency argument.

FRAME-CODEC
    One frame codec: the `varint(len) | fixed32 crc32 | payload` frame
    is encoded and parsed only by EncodeFrame/FrameReader in
    src/util/crc32.cc, which the write-ahead log and the wire both call.
    So in src/ and tools/, `Crc32(` may be called only under src/util/
    and in src/storage/snapshot.cc (the checkpoint's CRC trailer), and a
    fixed32 helper (`PutU32`/`GetU32`, `PutFixed32`/`GetFixed32`) may be
    defined only under src/util/. A second framer is a second decoder to
    fuzz and a second place for the on-disk and on-wire bytes to drift.

ANNOTATED-MUTEX
    src/service/ and src/storage/ must use the annotated primitives
    from util/mutex.h (cpdb::Mutex, cpdb::MutexLock, cpdb::CondVar),
    never raw std::mutex & friends: Clang's thread-safety analysis
    cannot see through libstdc++'s unannotated types, so a raw mutex
    in those layers is an unchecked lock. The escape hatch
    CPDB_NO_THREAD_SAFETY_ANALYSIS is likewise banned there — the
    concurrency core must stay fully analyzed (zero suppressions).
    util/mutex.h itself is the one sanctioned wrapper site.

SERVICE-NO-THREADS
    src/service/ starts no threads: no std::thread (or std::jthread)
    there. The commit queue runs every cohort on the thread of the
    committer that leads it, in enqueue order, so tid order, apply
    order and commit order coincide with no exception. Threads belong
    to the callers — curator sessions, the network server's workers —
    never to the engine.

PROV-TABLE-WRITES
    The Prov/TxnMeta tables may be touched by name only inside
    provenance/backend.cc: all writes funnel through
    ProvBackend::WriteRecords / WriteTxnMeta (that is what makes the
    round-trip accounting and the service layer's shared-table
    contract enforceable). Production code and benches must go through
    the backend; tests/ may read the tables to assert on them.

EDITOR-WRITE-PATH
    The provenance-aware editor is the only writer of the provenance
    record: "it is essential that the target database and provenance
    record are writable only via high-level interfaces that track
    provenance" (paper Section 1.3). In src/ and tools/, the provenance
    write calls — ProvStore::TrackBatch, ProvBackend::WriteRecords and
    ProvBackend::WriteTxnMeta — may be called only under
    src/provenance/ (the stores and the backend themselves) and from
    src/cpdb/editor.cc. Everything else — the service layer, the
    network server, the tools — writes by driving an Editor. Tests and
    benches exercise the stores directly and are exempt. Together with
    PROV-TABLE-WRITES this pins every provenance write to one path.

EDITOR-ONE-SEAL
    Every strategy commits through one seal: src/cpdb/editor.cc stages
    updates into one unit and Editor::Seal is the only place that ships
    it. So each of the seal's steps — the checked native replay
    (`target_->Prepare(`, whose write the seal runs after the provenance
    write), the archive run (`archive_->Record(`), the TxnMeta rows
    (`WriteTxnMeta(`) and the durability barrier (`SyncDurable()`) —
    must have exactly one call site in that file; definitions and
    comments do not count. A second commit tail would let strategies
    drift apart again in what they write and in how they fail.

WRAP-KEYED-LOOKUP
    src/wrap/relational_target.cc calls no scan: no `Scan(` call,
    ignoring comments, and none of the scan-named Table calls either
    (`OpenScan(`, `ScanIndex(`, `ScanPrefix(`). The relational target's
    write path finds each tuple it replays with one descent of the
    wrapped table's key index (a unique B-tree index on the identifier
    column), and its TreeFromDb delegates to RelationalSourceDb. A scan
    there puts a whole-table walk back under every replayed update, and
    commit cost grows with the table behind it.

WRAP-NET-EFFECT
    src/wrap/relational_target.cc calls `Insert(` and `Delete(` at
    exactly one site each, ignoring comments (`InsertBatch(` and
    `DeleteRowImage(` count as sites too). Those sites are the per-tuple
    write that RelationalTargetDb::Prepare returns, which stores each
    touched tuple's net image once per batch after the fold has checked
    every op. A second site means some op writes the table on its own again:
    a transaction's replay goes back to one heap rewrite, its index
    updates and two logged row images per op, and a rewrite can again
    delete a row before its replacement is checked.

RELSTORE-ONE-COMPARE
    src/relstore/ names no std::lexicographical_compare, and
    src/relstore/btree.cc no RowLess (called or passed as a comparator),
    comments ignored. Keys are ordered only through CompareRows
    (relstore/datum.h): one Datum::Compare per column, and one
    three-way (key, rid) comparison per step of the B+-tree's binary
    searches. A lexicographical_compare over Datum's operator< makes up
    to two value comparisons per column, and a RowLess pair in the tree
    makes two row comparisons per step.

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
    (FRAME-CODEC's one codec) through the helpers there, so no unframed payload can ever reach
    the wire and the robustness guarantees (torn/oversized/bit-flipped
    input -> typed error + close, never a crash or partial apply) hold
    at a single choke point. Even the tests' deliberate violations go
    through frame.cc's WriteRaw. Pipe/file read(2)/write(2) are fine —
    the rule names only the socket verbs.

OBS-METRICS
    src/service/ and src/net/ must export operational counters through
    the obs::Registry (src/obs/metrics.h), not ad-hoc std::atomic
    members: the registry is the single typed surface behind METRICS, the
    one metrics export, and a counter living outside it is invisible. The
    allowlist names the std::atomic members that are NOT metrics —
    engine tid and trace-id allocation, the committed watermark, and the
    engine's and server's lifecycle flags — each of which is load-bearing
    synchronization state with its own reader, not telemetry. The same
    layers may not declare a `struct Stats` either: a private counter
    block under the component's mutex, re-exported to the registry by a
    scrape callback, is the second copy of every counter this rule
    exists to prevent — components bump registry counters handed in
    through set_metrics instead. And every series has one name: the
    registry (src/obs/metrics.h) declares exactly one Render method, the
    Prometheus text exposition, and no `json_key` appears under src/. A
    second renderer gives each series a second name to keep in step.

OBS-TRACE
    Every protocol verb the server executes must pass through the ONE
    tracing choke point, Server::ExecuteTraced (src/net/server.cc):
    that is where the sampled/EXPLAIN/slow-request decision is made, the
    root span ("server.<VERB>") is opened, and the assembled tree is
    recorded into the engine's SpanStore. Concretely: Serve (the worker's
    per-connection loop that runs each request it reads) must dispatch
    via ExecuteTraced (never Execute directly), Execute may be called
    only from ExecuteTraced (plus its own definition), and ExecuteTraced
    must open the "server."-prefixed root span. A verb handler that
    bypasses the choke point is invisible to TRACES, EXPLAIN, and the
    slow-request log all at once.

SERVICE-ONE-SNAPSHOT
    src/service/ has exactly one `TreeFromDb(` call site, comments
    ignored, and no `SnapshotManager` or `CheapSnapshots` appears
    anywhere under src/. A session's snapshot is a copy-on-write clone
    that owns its nodes, so the service keeps one snapshot path:
    SessionPool::Snapshot takes the target's tree at a committed
    watermark, caches it, and every build and refresh at that watermark
    clones it. A second call site reads the target again for a state
    the pool already holds (a relational target scans its table each
    time), and a version chain has nothing left to protect.

TREE-FLAT-CHILDREN
    src/tree/tree.h and src/tree/tree.cc name no std::map or
    std::unordered_map and include neither header, comments ignored. A
    node keeps its children in one label-sorted vector of (label,
    shared_ptr) pairs: a copy-on-write clone copies one array instead of
    allocating a node per child, and a lookup is a binary search over
    contiguous memory. A map beside or instead of it is a second
    container to keep in step, and brings back the per-child allocations
    behind every clone.

TREE-FLAT-PATH
    Class Path in src/tree/path.h has exactly one non-static data member, a
    std::string, and src/tree/path.cc calls neither `Split(` nor
    `Join(`, comments ignored. A path is stored as its rendering ("T/c1/y"),
    the form the Prov table, the wire and the update language carry: a
    copy is one allocation, ToString() is free, Parse validates in place,
    and a prefix test is a byte comparison. A vector of labels beside or
    instead of it brings back one allocation per label for every path
    built or copied, and a join or split wherever a path meets a row or a
    frame.

NET-NO-HANDOFF
    src/net/server.h and src/net/server.cc declare and use no CondVar.
    The server is leader/followers over one epoll set: the worker that
    receives a connection's readiness runs its requests and sends the
    answers itself, and an idle worker waits only in epoll_wait. A
    condition variable there means a queue between threads is back, and
    with it the wake-ups and handoffs this design removed.
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
# ChargeFsync() is cost-model accounting, not a barrier.
FSYNC_OK_RE = re.compile(r"ChargeFsync\s*\(")


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


CRC_CALL_RE = re.compile(r"\bCrc32\s*\(")
FIXED32_DEF_RE = re.compile(
    r"^\s*(?:(?:static|inline|constexpr)\s+)*[\w:<>]+\s+"
    r"(?:PutU32|GetU32|PutFixed32|GetFixed32)\s*\(")
CRC_CALL_ALLOWED = {pathlib.PurePath("src/storage/snapshot.cc")}


def check_frame_codec(root):
    for subdir in ("src", "tools"):
        for path in iter_source(root, subdir):
            rel = path.relative_to(root)
            in_util = rel.parts[:2] == ("src", "util")
            crc_ok = in_util or pathlib.PurePath(rel) in CRC_CALL_ALLOWED
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                code = strip_comments(line)
                if not crc_ok and CRC_CALL_RE.search(code):
                    finding("FRAME-CODEC", rel, lineno,
                            "Crc32 outside src/util/ and the checkpoint "
                            "trailer; frame records with EncodeFrame/"
                            "FrameReader (util/crc32.h)")
                if not in_util and FIXED32_DEF_RE.search(code):
                    finding("FRAME-CODEC", rel, lineno,
                            "fixed32 helper defined outside src/util/; "
                            "use PutFixed32/GetFixed32 (util/crc32.h)")


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


SERVICE_THREAD_RE = re.compile(r"\bstd::j?thread\b")


def check_service_no_threads(root):
    for path in iter_source(root, "src/service"):
        rel = path.relative_to(root)
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            m = SERVICE_THREAD_RE.search(strip_comments(line))
            if m:
                finding("SERVICE-NO-THREADS", rel, lineno,
                        f"{m.group(0)} in the service layer; cohorts apply "
                        "in enqueue order on the leader's thread, and "
                        "threads belong to the engine's callers")


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


EDITOR_WRITE_RE = re.compile(r"\b(TrackBatch|WriteRecords|WriteTxnMeta)\s*\(")
EDITOR_WRITE_ALLOWED = {pathlib.PurePath("src/cpdb/editor.cc")}


def check_editor_write_path(root):
    for subdir in ("src", "tools"):
        for path in iter_source(root, subdir):
            rel = path.relative_to(root)
            if rel.parts[:2] == ("src", "provenance"):
                continue
            if pathlib.PurePath(rel) in EDITOR_WRITE_ALLOWED:
                continue
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                m = EDITOR_WRITE_RE.search(strip_comments(line))
                if m:
                    finding("EDITOR-WRITE-PATH", rel, lineno,
                            f"{m.group(1)}() outside the editor; provenance "
                            "is written only by cpdb::Editor (through "
                            "ProvStore::TrackBatch) and src/provenance/")


ONE_SEAL_PATH = pathlib.PurePath("src/cpdb/editor.cc")
ONE_SEAL_CALLS = ("target_->Prepare", "archive_->Record", "WriteTxnMeta",
                  "SyncDurable")
# `(?<!::)` skips definitions such as `Status Editor::SyncDurable() {`.
ONE_SEAL_RE = re.compile(r"(?<!::)\b(" +
                         "|".join(map(re.escape, ONE_SEAL_CALLS)) +
                         r")\s*\(")


def check_editor_one_seal(root):
    path = root / ONE_SEAL_PATH
    if not path.is_file():
        return
    sites = {call: [] for call in ONE_SEAL_CALLS}
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        for m in ONE_SEAL_RE.finditer(strip_comments(line)):
            sites[m.group(1)].append(lineno)
    for call, lines in sites.items():
        if not lines:
            finding("EDITOR-ONE-SEAL", ONE_SEAL_PATH, 1,
                    f"no {call}() call; the seal must run every step")
        for lineno in lines[1:]:
            finding("EDITOR-ONE-SEAL", ONE_SEAL_PATH, lineno,
                    f"second {call}() call site (first at line "
                    f"{lines[0]}); every strategy commits through "
                    "Editor::Seal alone")


WRAP_TARGET_PATH = pathlib.PurePath("src/wrap/relational_target.cc")
WRAP_SCAN_RE = re.compile(r"\b(?:Scan|OpenScan|ScanIndex|ScanPrefix)\s*\(")


def check_wrap_keyed_lookup(root):
    path = root / WRAP_TARGET_PATH
    if not path.is_file():
        return
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        m = WRAP_SCAN_RE.search(strip_comments(line))
        if m:
            finding("WRAP-KEYED-LOOKUP", WRAP_TARGET_PATH, lineno,
                    f"{m.group(0).rstrip('( ')}() in the relational "
                    "target; replay finds tuples through the key index "
                    "(Table::LookupEq), never by scanning the table")


NET_EFFECT_RE = re.compile(r"\b(Insert|Delete)(?:Batch|RowImage)?\s*\(")


def check_wrap_net_effect(root):
    path = root / WRAP_TARGET_PATH
    if not path.is_file():
        return
    sites = {"Insert": [], "Delete": []}
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        for m in NET_EFFECT_RE.finditer(strip_comments(line)):
            sites[m.group(1)].append(lineno)
    for call, lines in sites.items():
        if not lines:
            finding("WRAP-NET-EFFECT", WRAP_TARGET_PATH, 1,
                    f"no {call}() call; the per-tuple write must store "
                    "each touched tuple's net image")
        for lineno in lines[1:]:
            finding("WRAP-NET-EFFECT", WRAP_TARGET_PATH, lineno,
                    f"second {call}() call site (first at line "
                    f"{lines[0]}); replay writes each touched tuple once, "
                    "from the fold's net image")


LEXICOGRAPHICAL_RE = re.compile(r"\blexicographical_compare\b")
ROW_LESS_RE = re.compile(r"\bRowLess\b")
BTREE_PATH = pathlib.PurePath("src/relstore/btree.cc")


def check_relstore_one_compare(root):
    for path in iter_source(root, "src/relstore"):
        rel = path.relative_to(root)
        in_btree = pathlib.PurePath(rel) == BTREE_PATH
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            code = strip_comments(line)
            if LEXICOGRAPHICAL_RE.search(code):
                finding("RELSTORE-ONE-COMPARE", rel, lineno,
                        "lexicographical_compare in relstore; order keys "
                        "with CompareRows, one Datum::Compare per column")
            if in_btree and ROW_LESS_RE.search(code):
                finding("RELSTORE-ONE-COMPARE", rel, lineno,
                        "RowLess in the B+-tree; each search step makes one "
                        "three-way (key, rid) comparison (CompareEntry)")


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
RENDER_DECL_RE = re.compile(r"\bRender\w*\s*\(")
# Synchronization state, not telemetry: each entry is (file, member) for a
# std::atomic whose readers are correctness logic rather than a scrape.
OBS_METRICS_ALLOWED = {
    ("src/service/engine.h", "next_tid_"),       # tid allocator
    ("src/service/engine.h", "trace_id_seq_"),   # trace-id allocator
    ("src/service/engine.h", "committed_tid_"),  # MVCC watermark
    ("src/service/engine.h", "seal_failed_"),    # lifecycle flag
    ("src/net/server.h", "draining_"),           # lifecycle flag
    ("src/net/server.h", "started_"),            # lifecycle flag
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
                        "obs::Registry (src/obs/metrics.h) so METRICS "
                        "sees them (extend the allowlist only for "
                        "synchronization state)")
    metrics_h = root / "src" / "obs" / "metrics.h"
    if metrics_h.is_file():
        renders = [lineno for lineno, line in
                   enumerate(metrics_h.read_text().splitlines(), 1)
                   if RENDER_DECL_RE.search(strip_comments(line))]
        if len(renders) != 1:
            finding("OBS-METRICS", metrics_h.relative_to(root),
                    renders[1] if len(renders) > 1 else 1,
                    f"the registry declares {len(renders)} Render methods; "
                    "it renders one format, the Prometheus text exposition, "
                    "so every series has one name")
    for path in iter_source(root, "src"):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if "json_key" in line:
                finding("OBS-METRICS", path.relative_to(root), lineno,
                        "json_key: a series has one name, its Prometheus "
                        "series name")


def check_obs_trace(root):
    """Pins the server's verb dispatch to the tracing choke point.

    Line-oriented, like the other rules: finds the function each line
    belongs to by tracking `Server::<name>(` definition headers, then
    enforces (a) Serve dispatches via ExecuteTraced, (b) Execute is
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
    serve_dispatches = False
    execute_calls = []  # (lineno, enclosing function)
    traced_opens_root = False
    traced_records = False
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        code = strip_comments(line)
        m = defn_re.search(code)
        if m:
            current_fn = m.group(1)
            continue  # the definition header itself is not a call
        if current_fn == "Serve" and "ExecuteTraced(" in code:
            serve_dispatches = True
        if execute_call_re.search(code) and "ExecuteTraced" not in code:
            execute_calls.append((lineno, current_fn))
        if current_fn == "ExecuteTraced":
            if '"server."' in code:
                traced_opens_root = True
            if "spans().Record(" in code:
                traced_records = True
    if not serve_dispatches:
        finding("OBS-TRACE", rel, 1,
                "Serve does not dispatch through ExecuteTraced; "
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


NET_SERVER_FILES = ("src/net/server.h", "src/net/server.cc")
CONDVAR_RE = re.compile(r"\bCondVar\b")


TREE_FROM_DB_RE = re.compile(r"\bTreeFromDb\s*\(")
RETIRED_SNAPSHOT_RE = re.compile(r"\b(?:SnapshotManager|CheapSnapshots)\b")


def check_service_one_snapshot(root):
    sites = []
    for path in iter_source(root, "src/service"):
        rel = path.relative_to(root)
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for _ in TREE_FROM_DB_RE.finditer(strip_comments(line)):
                sites.append((rel, lineno))
    if not sites:
        finding("SERVICE-ONE-SNAPSHOT", "src/service", 1,
                "no TreeFromDb() call; the session pool takes its "
                "snapshots from the target")
    for rel, lineno in sites[1:]:
        finding("SERVICE-ONE-SNAPSHOT", rel, lineno,
                f"second TreeFromDb() call site (first at {sites[0][0]}:"
                f"{sites[0][1]}); builds and refreshes share "
                "SessionPool::Snapshot")
    for path in iter_source(root, "src"):
        rel = path.relative_to(root)
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            m = RETIRED_SNAPSHOT_RE.search(line)
            if m:
                finding("SERVICE-ONE-SNAPSHOT", rel, lineno,
                        f"{m.group(0)} is retired; sessions own their "
                        "copy-on-write snapshots and the pool caches one "
                        "per watermark")


TREE_FILES = ("src/tree/tree.h", "src/tree/tree.cc")
TREE_MAP_RE = re.compile(
    r"\bstd::(?:unordered_)?map\b|#\s*include\s*<(?:unordered_)?map>")


def check_tree_flat_children(root):
    for name in TREE_FILES:
        path = root / name
        if not path.is_file():
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            m = TREE_MAP_RE.search(strip_comments(line))
            if m:
                finding("TREE-FLAT-CHILDREN", name, lineno,
                        f"{m.group(0)} in the tree node; children live in "
                        "one label-sorted vector (Tree::Children)")


PATH_HEADER = "src/tree/path.h"
PATH_SOURCE = "src/tree/path.cc"
SPLIT_JOIN_RE = re.compile(r"\b(?:Split|Join)\s*\(")
ACCESS_LABEL_RE = re.compile(r"\s*(?:public|private|protected)\s*")
NOT_DATA_RE = re.compile(
    r"\s*(?:using|typedef|friend|static|template|enum|struct|class|union)\b")
STRING_MEMBER_RE = re.compile(r"\s*std::string\s+\w+\s*(?:=.*|\{.*\})?\s*",
                              re.S)


def data_members(text, cls):
    """(line, declaration) of every non-static data member of class `cls`
    in `text`, whose comments are stripped: the statements at the top level
    of the class body that hold no parenthesis, other than access labels,
    aliases, friends and nested types. None if the class is not found."""
    m = re.search(r"\bclass\s+" + cls + r"\b[^;{]*\{", text)
    if m is None:
        return None
    members = []
    depth = 0
    stmt = ""
    line = text.count("\n", 0, m.end()) + 1
    stmt_line = line
    for c in text[m.end():]:
        if c == "\n":
            line += 1
        if depth == 0 and c == "}":
            break  # the end of the class body
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0 and "(" in stmt:
                stmt = ""  # a member function's body ends its declaration
                continue
        if depth > 0:
            if "(" not in stmt:
                stmt += c  # a brace initializer is part of the declaration
            continue
        if c == ";":
            if "(" not in stmt and not NOT_DATA_RE.match(stmt):
                members.append((stmt_line, " ".join(stmt.split())))
            stmt = ""
        elif c == ":" and ACCESS_LABEL_RE.fullmatch(stmt):
            stmt = ""
        else:
            if not stmt.strip() and not c.isspace():
                stmt_line = line
            stmt += c
    return members


def check_tree_flat_path(root):
    header = root / PATH_HEADER
    if header.is_file():
        code = "\n".join(strip_comments(line)
                         for line in header.read_text().splitlines())
        members = data_members(code, "Path")
        if members is None:
            finding("TREE-FLAT-PATH", PATH_HEADER, 1, "no class Path")
            members = []
        elif not members:
            finding("TREE-FLAT-PATH", PATH_HEADER, 1,
                    "class Path has no data member; it holds its rendering "
                    "in one std::string")
        for lineno, decl in members:
            if len(members) > 1 or not STRING_MEMBER_RE.fullmatch(decl):
                finding("TREE-FLAT-PATH", PATH_HEADER, lineno,
                        f"data member `{decl}` in Path; a path is one "
                        "std::string holding its rendering, its only member")
    source = root / PATH_SOURCE
    if source.is_file():
        for lineno, line in enumerate(source.read_text().splitlines(), 1):
            m = SPLIT_JOIN_RE.search(strip_comments(line))
            if m:
                finding("TREE-FLAT-PATH", PATH_SOURCE, lineno,
                        f"{m.group(0)} in path.cc; a path is its rendering, "
                        "built and checked in place")


def check_net_no_handoff(root):
    for name in NET_SERVER_FILES:
        path = root / name
        if not path.is_file():
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if CONDVAR_RE.search(strip_comments(line)):
                finding("NET-NO-HANDOFF", name, lineno,
                        "CondVar in the server; a worker waits only in "
                        "epoll_wait and runs what it reads to completion, "
                        "with no queue or handoff between threads")


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
    check_frame_codec(root)
    check_annotated_mutex(root)
    check_service_no_threads(root)
    check_prov_table_writes(root)
    check_editor_write_path(root)
    check_editor_one_seal(root)
    check_wrap_keyed_lookup(root)
    check_wrap_net_effect(root)
    check_relstore_one_compare(root)
    check_bench_json(root)
    check_net_framing(root)
    check_obs_metrics(root)
    check_obs_trace(root)
    check_service_one_snapshot(root)
    check_tree_flat_children(root)
    check_tree_flat_path(root)
    check_net_no_handoff(root)

    for f in FINDINGS:
        print(f)
    if FINDINGS:
        print(f"cpdb_lint: {len(FINDINGS)} finding(s)", file=sys.stderr)
        return 1
    print("cpdb_lint: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
