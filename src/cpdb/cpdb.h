#pragma once

/// Umbrella header: the CPDB public API.
///
/// CPDB is a from-scratch C++20 reproduction of
///   Buneman, Chapman, Cheney. "Provenance Management in Curated
///   Databases". SIGMOD 2006.
///
/// Typical usage (see examples/quickstart.cc):
///
///   relstore::Database prov_db("provdb");
///   provenance::ProvBackend backend(&prov_db);
///   wrap::TreeTargetDb target("T", std::move(initial_tree));
///   auto editor = cpdb::Editor::Create(&target, &backend).value();
///   wrap::TreeSourceDb s1("S1", std::move(source_tree));
///   editor->MountSource(&s1);
///   editor->CopyPaste(Path::MustParse("S1/a1/y"),
///                     Path::MustParse("T/c1/y"));
///   editor->Commit();
///   auto hist = editor->query()->GetHist(Path::MustParse("T/c1/y"));
///
/// Provenance reads are cursor- and batch-oriented (provenance/backend.h):
///
///   provenance::ProvCursor scan = backend.ScanUnder(p);   // subtree range
///   std::vector<provenance::ProvRecord> batch;            // caller-owned
///   while (scan.Next(&batch, 512) > 0) { ...consume batch... }
///
/// Each fetch is one modelled round trip; a result that fits one batch
/// costs exactly one, and Next(&batch, ProvCursor::kNoLimit) drains a
/// whole scan in one. Ordering guarantees: ScanAll streams the table key
/// order (Tid, Loc); ScanForTid orders by Loc; the Loc-side scans
/// (ScanAtLoc, ScanUnder, ScanAtLocOrAncestors) order by (Loc, Tid).
/// ScanUnder and ScanAtLocOrAncestors also take ProvFields::kTid, which
/// fills only each record's tid straight from the (Loc, Tid) index key.
/// Consistency: a cursor borrows a position inside the store's indexes
/// and is invalidated by any provenance write — drain cursors before the
/// next tracked operation (the editor is the only writer, so reads
/// between transactions are stable). Point lookups go through
/// ProvBackend::LookupMany(tid, locs), one round trip for the whole
/// batch.
///
/// Migration note (reads): ProvStore's vector-returning read methods
/// (RecordsUnder, RecordsAtAncestors, RecordsForTid, AllRecords) and the
/// one-shot vector shims that later stood in for them on ProvBackend are
/// gone. Read through the cursors — ScanUnder, ScanAtLocOrAncestors,
/// ScanForTid, ScanAtLoc, ScanAll — or LookupMany for (tid, loc) points.
///
/// Writes are batched and group-committed, symmetric with the reads
/// (README "Write path"):
///
///   editor->ApplyScriptText(script);   // N/H: ONE WriteRecords +
///                                      // ONE target ApplyBatch flush
///   editor->ApplyUpdate(u);            // N/H: the same flush, batch of 1
///   editor->Commit();                  // T/HT: same, per transaction
///
/// relstore::Table::InsertBatch is the storage statement (insert-only,
/// as provenance is append-only; validated up front, indexes fed one
/// sorted run per batch via BTree::BulkUpsert); wrap::TargetDb::ApplyBatch
/// ships a committed transaction's native writes in one modelled call;
/// provenance::ProvStore::TrackBatch group-commits a staged script with
/// per-op semantics (tids, records, and H's per-insert probe) unchanged.
///
/// Migration note (writes): ProvStore::TrackBatch is the only tracking
/// call and TargetDb::ApplyBatch the only native write call; both are
/// pure virtual. The per-op tracking calls (one per update kind) and the
/// per-op native write are gone — track or mirror a single op as a batch
/// of one, which costs what the per-op call did.
/// ProvBackend::WriteRecords is atomic: a duplicate {Tid, Loc} rejects
/// the whole batch instead of leaving a partial insert prefix. Write
/// round trips are counted on CostModel's write-side counters
/// (WriteCalls/WriteRows, also in CostSnapshot), which ChargeWrite bumps
/// alongside the totals.
///
/// Migration note (one seal): every strategy stages into one unit that
/// either seals or unwinds as a whole (README "Write path").
/// ProvStore's pending-provlist probe and TxnStore's override of it are
/// gone: Editor::PendingOps() alone says whether anything is staged. A
/// T/HT Commit() whose provenance write fails now unwinds its
/// transaction, as Abort() would, instead of keeping it for the next
/// Commit() to publish. A bulk copy's glob record is stamped at the seal
/// with the tids its unit committed under, so an aborted T/HT bulk leaves
/// none. Editor::TotalOps() counts committed ops for T/HT too, as it did
/// for N/H; it used to count staged ones, aborted ones included.
/// service::SessionOptions lost record_txn_meta and user, which nothing
/// set; pool-built editors keep the EditorOptions defaults. A seal that
/// fails hands its tids back: LastCommittedTid() and CurrentTid() return
/// to where they were, so the next unit commits under the same tid and
/// an archived session's versions stay consecutive (engine sessions
/// still burn the allocator's tid; gaps are allowed there).
///
/// Durability (README "Durability"; storage/):
///
///   auto db = relstore::Database::Open("curated", dir).value();
///   if (!db->GetTable("prot").ok()) {              // first open
///     auto prot = db->CreateTable("prot", schema).value();
///     wrap::RelationalTargetDb::CreateKeyIndex(prot);  // the key index
///   }
///   provenance::ProvBackend backend(db.get());     // adopts recovered
///   wrap::RelationalTargetDb target("T", db.get(), {"prot"});
///   EditorOptions opts;
///   opts.first_tid = backend.MaxTid() + 1;         // tids continue
///   auto editor = Editor::Create(&target, &backend, opts).value();
///   ...edit...; editor->Commit();   // ONE log record + ONE fsync
///   db->Checkpoint();               // snapshot + truncate the log
///   db->Close();                    // clean shutdown (final Sync)
///
/// Open(name, dir) recovers checkpoint + log tail before returning,
/// truncating any torn/corrupt tail to the last committed transaction;
/// Sync() is the group-commit barrier the editor drives once per
/// committed transaction (TargetDb::Sync is the target-side hook — a
/// no-op by default, Database::Sync for relational wrappers; when target
/// and provenance share one durable Database, both recover to the same
/// transaction). Migration note for in-memory callers: nothing changes —
/// a directly constructed Database has no log, Sync()/Close() are free
/// no-ops, Checkpoint() fails with FailedPrecondition, and the editor's
/// per-commit barrier costs one null check. ProvBackend's constructor
/// now ADOPTS existing Prov/TxnMeta tables (recovered databases) instead
/// of failing; fresh databases are created as before.
///
/// Migration note (keyed target tables): every table a
/// wrap::RelationalTargetDb wraps needs its key index, a unique B-tree
/// index on the identifier column (column 0), created with the table
/// through RelationalTargetDb::CreateKeyIndex as above. The target finds
/// each tuple it replays through that index and no longer scans the
/// table. RelationalTargetDb::TreeFromDb, and with it Editor::Create and
/// SessionPool::Build, rejects a wrapped table without the index with
/// FailedPrecondition naming the table; CheckKeyIndexes() runs the same
/// check up front. Stores written by an older cpdb_serve have an
/// unindexed `data` table, which the server now refuses at startup:
/// re-create them (an index can only be added to an empty table). A
/// racing duplicate tuple insert now fails the second COMMIT with
/// AlreadyExists, where both used to commit and leave the table with two
/// rows for one identifier.
///
/// Concurrency (README "Service layer"; src/service/): N curator
/// sessions over ONE shared engine —
///
///   service::Engine engine(&backend, &target);  // tids seeded at attach
///   service::SessionOptions sopts;               // strategy, sources
///   service::SessionPool pool(&engine, sopts);
///   auto session = pool.Acquire().value();       // committed snapshot
///   session->Apply(...); session->Commit();      // group-committed
///   { auto g = session->ReadLock();              // shared grant
///     session->query()->GetMod(p); }             // reads run in parallel
///   pool.Release(std::move(session));            // folds session costs
///
/// Committed transactions apply under the engine's exclusive latch via
/// leader/follower group commit: concurrent committers form a cohort
/// that seals under ONE WAL record + ONE fsync (crash-atomic as a unit),
/// and every transaction number comes from the engine's atomic allocator
/// so sessions never mint the same tid. The leader applies the cohort's
/// members one after another on its own thread, in enqueue order, so tid
/// order, apply order and commit order coincide. Reads (queries, cursor
/// scans) run concurrently under shared grants; never commit while
/// holding one.
///
/// Migration note (one apply order): the disjoint-subtree apply pool is
/// gone, and every cohort applies in enqueue order on the leader's
/// thread. Removed with it: the Engine/CommitQueue call that enabled the
/// pool and the queue's parallel-prepare hook; the writeset (`claims`)
/// argument of Engine::Commit, CommitQueue::Commit and the Session
/// commit path; Editor's staged-writeset probe and the parallel-apply
/// preparation hook of TargetDb and TreeTargetDb; the cpdb_parallel_*
/// counters, the parallel batch-size histogram, and their STATS keys;
/// bench_concurrent's apply-worker flag and its two pool columns. The
/// commit.execute span detail lost its `parallel=` and `claims=` fields
/// and reads `cohort_size=N leader=0|1`. SessionPool's built(),
/// reused() and refreshed() getters are gone as well: read
/// cpdb_sessions_{built,reused,refreshed}_total from the engine's
/// registry.
///
/// Snapshots are copy-on-write clones: the committed state carries a
/// commit-ordered tid watermark (Engine::CommittedTid), and a session
/// opens a consistent view at Session::snapshot_tid() by cloning the
/// pool's snapshot of the target at that watermark, with provenance
/// reads bounded at the same tid. The pool takes one snapshot per
/// watermark (TargetDb::TreeFromDb) and shares it between every session
/// it builds or refreshes there.
///
/// Migration note (one snapshot path): the engine's version chain is
/// gone, and with it Engine::snapshots(), the session pins, TargetDb's
/// cheap-snapshot query, and the cpdb_versions_live,
/// cpdb_versions_published_total, cpdb_versions_gced_total and
/// cpdb_snapshot_refreshes_total series with their STATS keys (read
/// cpdb_sessions_refreshed_total for refreshes). A stale pooled session
/// is now refreshed in place over every target, relational ones
/// included. cpdb_snapshot_rebuilds_total counts every snapshot the pool
/// takes from the target, and cpdb_snapshot_rebuild_rows_total the rows
/// the target shipped for them (0 for a copy-on-write tree target).
///
/// Session staleness is a tid comparison — snapshot_tid() <
/// Engine::CommittedTid() — and a stale pooled session is refreshed in
/// place, not torn down and rebuilt, so cpdb_sessions_built_total stays
/// flat under churn.
///
/// Migration note (one metrics format): the registry renders only the
/// Prometheus text exposition (METRICS, /metrics), and every series has
/// one name. Removed: the STATS verb with its Request and Client helpers
/// and cpdb_bench_client's stats mode (tag 8 now decodes to a typed
/// "unknown type" error); the registry's flat JSON rendering, its
/// sampling and windowed-delta helpers, and the JSON-name argument of
/// every registration call; the histogram snapshot's difference and
/// merge operators; the periodic JSON reporter and the two cpdb_serve
/// flags that drove it; and the latch's exclusive-section count with its
/// cpdb_latch_epoch series (it counted cohorts plus checkpoints;
/// cpdb_cohorts_total counts the cohorts). Read a former STATS field
/// from METRICS under its series name (OPERATOR_GUIDE.md, "Metrics
/// catalogue"). The session pool now registers the snapshot counters and
/// the network server the slow-request counters, each where it bumps
/// them.
///
/// Migration note (sessions vs standalone Editor): a directly created
/// Editor is unchanged — private sequential tids from first_tid, its own
/// per-commit fsync — and remains the right tool for single-session use.
/// Acquire sessions from a SessionPool whenever more than one session
/// shares a backend; the pool wires EditorOptions::tid_allocator and
/// ::defer_sync (both new, default-off) so the engine owns numbering and
/// the durability barrier. Never mix the two against one live backend:
/// a standalone editor's writes would bypass the engine's latch.
///
/// Network service (README "Network service"; src/net/): the service
/// layer on a socket. cpdb_serve fronts one Engine over TCP with
/// checksummed length-prefixed frames (net/frame.h, the WAL's framing
/// discipline), one pooled Session per connection, transaction-atomic
/// RETRY shedding under commit-queue overload, and a graceful
/// SIGTERM/DRAIN path (finish in-flight, checkpoint, exit 0; a restart
/// serves bit-identical state). net/client.h is the pipelining client
/// library; tools/cpdb_bench_client drives it (QD sweeps, zipf keys,
/// open-loop pacing, p50/p99/p999). Deliberately NOT exported here:
/// servers and clients include net/ headers directly; embedding callers
/// never pay for the socket layer.
///
/// The latching rules above are compiler-checked, not just documented:
/// util/thread_annotations.h wraps Clang's Thread Safety Analysis
/// attributes (CPDB_GUARDED_BY, CPDB_REQUIRES, ...; no-ops on GCC),
/// SharedLatch is a capability, and the service/storage internals build
/// clean under -Wthread-safety as errors (the `analyze` preset; README
/// "Static analysis").

#include "archive/archive.h"          // IWYU pragma: export
#include "cpdb/editor.h"              // IWYU pragma: export
#include "provenance/backend.h"       // IWYU pragma: export
#include "provenance/inference.h"     // IWYU pragma: export
#include "provenance/store.h"         // IWYU pragma: export
#include "query/approx.h"             // IWYU pragma: export
#include "query/own.h"                // IWYU pragma: export
#include "query/spec.h"               // IWYU pragma: export
#include "query/trace.h"              // IWYU pragma: export
#include "service/commit_queue.h"     // IWYU pragma: export
#include "service/engine.h"           // IWYU pragma: export
#include "service/latch.h"            // IWYU pragma: export
#include "service/session.h"          // IWYU pragma: export
#include "storage/durable.h"          // IWYU pragma: export
#include "storage/snapshot.h"         // IWYU pragma: export
#include "storage/wal.h"              // IWYU pragma: export
#include "tree/serialize.h"           // IWYU pragma: export
#include "tree/tree.h"                // IWYU pragma: export
#include "tree/xml.h"                 // IWYU pragma: export
#include "update/bulk.h"              // IWYU pragma: export
#include "update/parser.h"            // IWYU pragma: export
#include "update/semantics.h"         // IWYU pragma: export
#include "workload/data_gen.h"        // IWYU pragma: export
#include "workload/update_gen.h"      // IWYU pragma: export
#include "wrap/relational_source.h"   // IWYU pragma: export
#include "wrap/relational_target.h"   // IWYU pragma: export
#include "wrap/source_db.h"           // IWYU pragma: export
#include "wrap/target_db.h"           // IWYU pragma: export
