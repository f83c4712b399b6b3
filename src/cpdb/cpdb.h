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
/// A tree::Path is stored as its rendering ("T/c1/y"): ToString() returns
/// a reference to it, At(i) and Leaf() return a label by value in
/// O(depth), and there is no labels() vector. Paths sort label by label,
/// not as strings, so "T/c1/x" < "T/c1-x".
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
/// order (Tid, Loc); the Loc-side scans (ScanAtLoc, ScanUnder,
/// ScanAtLocOrAncestors) order by (Loc, Tid).
/// ScanUnder and ScanAtLocOrAncestors also take ProvFields::kTid, which
/// fills only each record's tid straight from the (Loc, Tid) index key.
/// Consistency: a cursor borrows a position inside the store's indexes
/// and is invalidated by any provenance write — drain cursors before the
/// next tracked operation (the editor is the only writer, so reads
/// between transactions are stable). Point lookups go through
/// ProvBackend::LookupMany(tid, locs), one round trip for the whole
/// batch.
///
/// The cursors and LookupMany are the only provenance read API; no read
/// returns a whole result vector.
///
/// Writes are batched and group-committed, symmetric with the reads
/// (README "Write path"):
///
///   editor->ApplyScriptText(script);   // N/H: ONE WriteRecords +
///                                      // ONE target write flush
///   editor->ApplyUpdate(u);            // N/H: the same flush, batch of 1
///   editor->Commit();                  // T/HT: same, per transaction
///
/// relstore::Table::InsertBatch is the storage statement (insert-only,
/// as provenance is append-only; validated up front, indexes fed one
/// sorted run per batch via BTree::BulkUpsert); wrap::TargetDb::Prepare
/// checks a transaction's native writes before its provenance is written,
/// and the write it returns ships them in one modelled call;
/// provenance::ProvStore::TrackBatch group-commits a staged script with
/// per-op semantics (tids, records, and H's per-insert probe) unchanged.
///
/// ProvStore::TrackBatch is the only tracking call and
/// TargetDb::Prepare the only native write call; a single op is
/// tracked or mirrored as a batch of one. ProvBackend::WriteRecords is
/// atomic: a duplicate {Tid, Loc} rejects the whole batch. Write round
/// trips are counted on CostModel's write-side counters
/// (WriteCalls/WriteRows, also in CostSnapshot), which ChargeWrite bumps
/// alongside the totals.
///
/// Every strategy stages into one unit that either seals or unwinds as a
/// whole (README "Write path"); Editor::PendingOps() says whether
/// anything is staged. A unit whose native replay the target refuses, or
/// whose provenance write fails, unwinds whole before anything is
/// written: a T/HT Commit() as Abort() would, an N/H script reporting 0
/// applied. A bulk copy's glob record is stamped at the seal with the
/// tids its unit committed under, so an aborted T/HT bulk leaves none.
/// Editor::TotalOps() counts committed ops. A seal that fails hands its
/// tids back: LastCommittedTid() stays where it was, so the next unit
/// commits under the same tid and an archived session's versions stay
/// consecutive (engine sessions still burn the allocator's tid when the
/// provenance write fails; gaps are allowed there).
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
/// transaction). A directly constructed Database is in-memory: it has
/// no log and no durability engine, Sync()/Close() are free no-ops,
/// Checkpoint() fails with FailedPrecondition, and the editor's
/// per-commit barrier costs one null check. A closed durable Database
/// refuses Sync() with FailedPrecondition, so an editor commit over a
/// closed store fails. storage::DurabilityStats
/// (Database::durability()->stats(); none for an in-memory database) is
/// the only count of WAL records, fsyncs and log bytes; the CostModel's
/// ChargeFsync only advances the modelled clock. ProvBackend's
/// constructor adopts existing Prov/TxnMeta tables (recovered databases)
/// and creates them in a fresh one.
///
/// Every table a wrap::RelationalTargetDb wraps needs its key index, a
/// unique B-tree index on the identifier column (column 0), created with
/// the table through RelationalTargetDb::CreateKeyIndex as above; the
/// target finds each tuple it replays through that index.
/// RelationalTargetDb::TreeFromDb, and with it Editor::Create and
/// SessionPool::Build, rejects a wrapped table without the index with
/// FailedPrecondition naming the table; CheckKeyIndexes() runs the same
/// check up front, and cpdb_serve refuses such a `data` table at startup
/// (an index can only be added to an empty table). A racing duplicate
/// tuple insert fails the second COMMIT with AlreadyExists.
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
/// holding one. Only a sealed cohort advances the committed watermark. A
/// failed seal stops the engine (Engine::Running): the shared state is
/// then ahead of the log, so Commit and SessionPool::Acquire answer
/// Unavailable from then on.
///
/// A commit's commit.execute span detail reads `cohort_size=N
/// leader=0|1`, and the pool counts its sessions in the engine's
/// registry (cpdb_sessions_{built,reused,refreshed}_total).
///
/// Snapshots are copy-on-write clones: the committed state carries a
/// commit-ordered tid watermark (Engine::CommittedTid), and a session
/// opens a consistent view at Session::snapshot_tid() by cloning the
/// pool's snapshot of the target at that watermark, with provenance
/// reads bounded at the same tid. The pool takes one snapshot per
/// watermark (TargetDb::TreeFromDb) and shares it between every session
/// it builds or refreshes there.
///
/// Session staleness is a tid comparison — snapshot_tid() <
/// Engine::CommittedTid() — and a stale pooled session is refreshed in
/// place over every target, not torn down and rebuilt, so
/// cpdb_sessions_built_total stays flat under churn.
/// cpdb_snapshot_rebuilds_total counts every snapshot the pool takes
/// from the target, and cpdb_snapshot_rebuild_rows_total the rows the
/// target shipped for them (0 for a copy-on-write tree target).
///
/// Metrics have one format and one export: the registry renders only the
/// Prometheus text exposition, which the METRICS verb returns, and every
/// series has one name (OPERATOR_GUIDE.md, "Metrics catalogue"). Each
/// component registers the counters it bumps.
///
/// Sessions vs standalone Editor: a directly created Editor draws private
/// sequential tids from first_tid and runs its own per-commit fsync, the
/// right tool for single-session use. Acquire sessions from a
/// SessionPool whenever more than one session shares a backend; the pool
/// wires EditorOptions::tid_allocator and ::defer_sync (both default-off)
/// so the engine owns numbering and the durability barrier. Never mix the
/// two against one live backend: a standalone editor's writes would
/// bypass the engine's latch.
///
/// Network service (README "Network service"; src/net/): the service
/// layer on a socket. cpdb_serve fronts one Engine over TCP with the
/// WAL's checksummed length-prefixed frame (util/crc32.h), one pooled
/// Session per connection, transaction-atomic RETRY shedding under
/// commit-queue overload (a T/HT transaction is shed whole; under N/H
/// each APPLY faces admission on its own), and a graceful SIGTERM/DRAIN
/// path (finish in-flight, checkpoint, exit 0; a restart serves
/// bit-identical state). net/client.h is the pipelining client
/// library; tools/cpdb_bench_client drives it (QD sweeps, zipf keys,
/// open-loop pacing, p50/p99/p999). The client neither retries nor
/// re-dials: a caller retries a RETRY answer in its own loop with
/// net::RetryBackoffMs. Deliberately NOT exported here:
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
#include "update/bulk.h"              // IWYU pragma: export
#include "update/parser.h"            // IWYU pragma: export
#include "update/semantics.h"         // IWYU pragma: export
#include "workload/data_gen.h"        // IWYU pragma: export
#include "workload/update_gen.h"      // IWYU pragma: export
#include "wrap/relational_source.h"   // IWYU pragma: export
#include "wrap/relational_target.h"   // IWYU pragma: export
#include "wrap/source_db.h"           // IWYU pragma: export
#include "wrap/target_db.h"           // IWYU pragma: export
