#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "relstore/database.h"
#include "relstore/journal.h"
#include "storage/log_format.h"
#include "storage/wal.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace cpdb::storage {

/// Counters of one durability engine's session: the only count of WAL
/// records, fsync barriers and log bytes. The registry's
/// cpdb_fsyncs_total and cpdb_log_bytes_total read it, and benches and
/// tests difference it the way they difference the CostModel's round
/// trips (an in-memory database has no engine and counts 0).
struct DurabilityStats {
  uint64_t last_seq = 0;        ///< newest durable commit sequence
  size_t commits = 0;           ///< log records appended this session
  size_t fsyncs = 0;            ///< fsync barriers issued
  size_t log_bytes = 0;         ///< bytes appended to the log
  size_t checkpoints = 0;       ///< checkpoints written this session
  size_t replayed_commits = 0;  ///< log records recovery applied
  bool snapshot_loaded = false; ///< recovery started from a checkpoint
};

/// The durability engine of one Database: write-ahead logging with group
/// commit, checkpointing, and crash recovery.
///
/// Directory layout under `dir`:
///
///   wal.log         CRC32-framed commit records (see storage/wal.h)
///   CHECKPOINT      binary full-database snapshot (storage/snapshot.h)
///   CHECKPOINT.tmp  transient; atomically renamed over CHECKPOINT
///
/// Write path: Table/Database report every successful mutation through
/// the Journal interface; the notes buffer in `pending_`. Sync() seals
/// the buffer into ONE CommitRecord (seq = ++last_seq), appends it as one
/// framed log record, and fsyncs — one fsync per committed transaction
/// regardless of how many tables or rows it touched, the write-side twin
/// of the batched InsertBatch/TrackBatch path it rides on.
///
/// Recovery (inside Attach): load CHECKPOINT if present (each table
/// rebuilt by one InsertBatch), then replay wal.log in order, skipping
/// records whose seq <= the checkpoint's (the crash window between
/// writing a checkpoint and truncating the log) and truncating any torn
/// or corrupt tail back to the last committed transaction. Because data
/// tables and provenance tables share the Database — and therefore the
/// log — both recover to the same committed transaction, always.
///
/// Thread safety: internally synchronized. The pending-note buffer, the
/// sticky failure, the stats, and the log handle are all GUARDED_BY one
/// internal mutex (compiler-checked under -Wthread-safety), and Sync
/// holds it across seal-append-fsync so a commit record can never
/// interleave with another committer's notes. The service layer's
/// exclusive latch already serializes callers; the internal lock keeps
/// the engine correct without relying on that. Note: the caller still
/// owns transaction boundaries — a multi-call mutation sequence is made
/// atomic by the engine's latch, not by this mutex.
class Durability : public relstore::Journal {
 public:
  /// Creates `dir` if needed, recovers its contents into `db` (which must
  /// hold no tables), and opens the log for appending. Does NOT attach
  /// itself to the tables — Database::Open does that after recovery so
  /// replayed writes are not re-logged.
  ///
  /// Single-writer: the directory is guarded by an advisory flock on
  /// `dir/LOCK` held for the engine's lifetime, so a second concurrent
  /// Open of the same directory fails with FailedPrecondition instead of
  /// interleaving two sessions' commit records. The kernel drops the
  /// lock when the holding process dies, so a crashed session never
  /// blocks recovery.
  static Result<std::unique_ptr<Durability>> Attach(relstore::Database* db,
                                                    std::string dir);
  ~Durability() override;

  /// Group-commit barrier; see class comment. No-op when nothing pending.
  ///
  /// Fail-stop: once a commit fails to reach the log (append or fsync
  /// error), the engine rejects every further Sync with the original
  /// error — the in-memory state is ahead of the log at that point, and
  /// appending later commits over the gap would recover a state that
  /// skips a transaction the caller already observed.
  Status Sync() CPDB_EXCLUDES(mu_);

  /// Sync(), write a fresh CHECKPOINT, then truncate the log.
  Status Checkpoint() CPDB_EXCLUDES(mu_);

  /// Sync() then close the log. Idempotent; post-Close writes are
  /// rejected at the Database level (journal detached).
  Status Close() CPDB_EXCLUDES(mu_);

  bool open() const CPDB_EXCLUDES(mu_) {
    MutexLock l(mu_);
    return wal_ != nullptr;
  }
  /// Point-in-time copy of the session counters.
  DurabilityStats stats() const CPDB_EXCLUDES(mu_) {
    MutexLock l(mu_);
    return stats_;
  }

  /// Forwards latency histograms onto the underlying log's write path
  /// (see Wal::SetMetricSinks). Safe any time; no-op if already closed.
  void SetMetricSinks(obs::Histogram* append_us, obs::Histogram* fsync_us)
      CPDB_EXCLUDES(mu_) {
    MutexLock l(mu_);
    if (wal_ != nullptr) wal_->SetMetricSinks(append_us, fsync_us);
  }
  const std::string& dir() const { return dir_; }

  static std::string WalPath(const std::string& dir);
  static std::string CheckpointPath(const std::string& dir);
  static std::string LockPath(const std::string& dir);

  // ----- relstore::Journal -------------------------------------------------
  void NoteCreateTable(const std::string& table,
                       const relstore::Schema& schema) override
      CPDB_EXCLUDES(mu_);
  void NoteDropTable(const std::string& table) override CPDB_EXCLUDES(mu_);
  void NoteCreateIndex(const std::string& table,
                       const relstore::IndexDef& def) override
      CPDB_EXCLUDES(mu_);
  void NoteInsert(const std::string& table,
                  const relstore::Row& row) override CPDB_EXCLUDES(mu_);
  void NoteDelete(const std::string& table,
                  const relstore::Row& row) override CPDB_EXCLUDES(mu_);

 private:
  Durability(relstore::Database* db, std::string dir)
      : db_(db), dir_(std::move(dir)) {}

  /// Applies one replayed write to the recovering database.
  Status ApplyWrite(const LogWrite& w);

  /// Sync's body; Checkpoint and Close ride the same hold so their
  /// barrier-then-mutate sequences stay atomic against other committers.
  Status SyncLocked() CPDB_REQUIRES(mu_);

  /// Stages one journal note (the shared tail of the Note* overrides).
  void PushPending(LogWrite w) CPDB_EXCLUDES(mu_);

  relstore::Database* db_;
  std::string dir_;
  int lock_fd_ = -1;  ///< flock on dir/LOCK; released on close/death
  mutable Mutex mu_;
  std::unique_ptr<Wal> wal_ CPDB_GUARDED_BY(mu_);
  std::vector<LogWrite> pending_ CPDB_GUARDED_BY(mu_);
  DurabilityStats stats_ CPDB_GUARDED_BY(mu_);
  Status fail_ CPDB_GUARDED_BY(mu_);  ///< sticky first log failure (see Sync)

  /// Database's move operations re-point the back reference.
  friend class relstore::Database;
  void RebindDatabase(relstore::Database* db) { db_ = db; }
};

}  // namespace cpdb::storage
