#include "storage/durable.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <filesystem>

#include "storage/snapshot.h"

namespace cpdb::storage {

namespace fs = std::filesystem;

std::string Durability::WalPath(const std::string& dir) {
  return dir + "/wal.log";
}

std::string Durability::CheckpointPath(const std::string& dir) {
  return dir + "/CHECKPOINT";
}

std::string Durability::LockPath(const std::string& dir) {
  return dir + "/LOCK";
}

Durability::~Durability() {
  // The WAL fd closes unsynced (the crash window is intentional); the
  // advisory lock drops with its fd.
  if (lock_fd_ >= 0) ::close(lock_fd_);
}

Status Durability::ApplyWrite(const LogWrite& w) {
  switch (w.op) {
    case LogOp::kCreateTable:
      return db_->CreateTable(w.table, w.schema).status();
    case LogOp::kDropTable:
      return db_->DropTable(w.table);
    case LogOp::kCreateIndex: {
      CPDB_ASSIGN_OR_RETURN(relstore::Table * table,
                            db_->GetTable(w.table));
      return table->CreateIndex(w.index.name, w.index.columns,
                                w.index.unique);
    }
    case LogOp::kInsert: {
      CPDB_ASSIGN_OR_RETURN(relstore::Table * table,
                            db_->GetTable(w.table));
      return table->Insert(w.row).status();
    }
    case LogOp::kDelete: {
      CPDB_ASSIGN_OR_RETURN(relstore::Table * table,
                            db_->GetTable(w.table));
      // The log names deleted rows by image (Rids are not stable across
      // checkpoint restores); see Table::DeleteRowImage.
      return table->DeleteRowImage(w.row);
    }
  }
  return Status::Internal("unknown log op");
}

Result<std::unique_ptr<Durability>> Durability::Attach(
    relstore::Database* db, std::string dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create '" + dir +
                            "': " + ec.message());
  }
  std::unique_ptr<Durability> d(new Durability(db, std::move(dir)));

  // Phase 0: single-writer guard. flock (not O_EXCL) so a crashed
  // session's stale lock file never blocks recovery — the kernel drops
  // the lock with the dead process.
  d->lock_fd_ = ::open(LockPath(d->dir_).c_str(), O_CREAT | O_RDWR, 0644);
  if (d->lock_fd_ < 0) {
    return Status::Internal("cannot open '" + LockPath(d->dir_) + "'");
  }
  if (::flock(d->lock_fd_, LOCK_EX | LOCK_NB) != 0) {
    return Status::FailedPrecondition(
        "'" + d->dir_ + "' is locked by another live session");
  }

  // Phase 1: newest checkpoint, if any. A leftover CHECKPOINT.tmp is a
  // checkpoint that never committed its rename; ignore and remove it.
  // Recovery runs single-threaded before the handle is published, so the
  // phases accumulate into locals and land in the guarded stats once, at
  // the end.
  fs::remove(CheckpointPath(d->dir_) + ".tmp", ec);
  DurabilityStats recovered;
  uint64_t snapshot_seq = 0;
  auto loaded = LoadSnapshot(db, CheckpointPath(d->dir_));
  if (loaded.ok()) {
    snapshot_seq = loaded.value();
    recovered.snapshot_loaded = true;
  } else if (!loaded.status().IsNotFound()) {
    return loaded.status();  // a checkpoint exists but cannot be trusted
  }

  // Phase 2: replay the log tail past the checkpoint; Wal::Replay
  // truncates any torn or corrupt tail to the last good commit.
  recovered.last_seq = snapshot_seq;
  auto replayed = Wal::Replay(
      WalPath(d->dir_), [&](const std::string& payload) -> Status {
        CommitRecord rec;
        if (!CommitRecord::DecodeFrom(payload, &rec)) {
          // The frame passed its CRC but carries bytes this build cannot
          // parse — refuse to guess rather than recover wrong state.
          return Status::Internal("undecodable commit record in WAL");
        }
        if (rec.seq <= snapshot_seq) return Status::OK();  // checkpointed
        for (const LogWrite& w : rec.writes) {
          CPDB_RETURN_IF_ERROR(d->ApplyWrite(w));
        }
        recovered.last_seq = rec.seq;
        ++recovered.replayed_commits;
        return Status::OK();
      });
  CPDB_RETURN_IF_ERROR(replayed.status());

  CPDB_ASSIGN_OR_RETURN(auto wal, Wal::Open(WalPath(d->dir_)));
  MutexLock l(d->mu_);
  d->stats_ = recovered;
  d->wal_ = std::move(wal);
  return d;
}

Status Durability::Sync() {
  MutexLock l(mu_);
  return SyncLocked();
}

Status Durability::SyncLocked() {
  if (!fail_.ok()) return fail_;  // fail-stop: the log has a gap
  if (wal_ == nullptr) {
    return pending_.empty()
               ? Status::OK()
               : Status::FailedPrecondition("durability engine is closed");
  }
  if (pending_.empty()) return Status::OK();
  CommitRecord rec;
  rec.seq = stats_.last_seq + 1;
  rec.writes = std::move(pending_);
  pending_.clear();
  std::string payload;
  rec.EncodeTo(&payload);
  size_t framed = 0;
  Status appended = wal_->Append(payload, &framed);
  if (appended.ok()) appended = wal_->Sync();
  if (!appended.ok()) {
    fail_ = appended;
    return appended;
  }
  stats_.last_seq = rec.seq;
  ++stats_.commits;
  ++stats_.fsyncs;
  stats_.log_bytes += framed;
  db_->cost().ChargeFsync();
  return Status::OK();
}

Status Durability::Checkpoint() {
  MutexLock l(mu_);
  if (!fail_.ok()) return fail_;
  if (wal_ == nullptr) {
    return Status::FailedPrecondition("durability engine is closed");
  }
  CPDB_RETURN_IF_ERROR(SyncLocked());
  CPDB_RETURN_IF_ERROR(
      WriteSnapshot(*db_, stats_.last_seq, CheckpointPath(dir_)));
  ++stats_.fsyncs;  // the snapshot's own fsync-before-rename
  db_->cost().ChargeFsync();
  // The log is redundant below the checkpoint; TruncateAll fsyncs.
  CPDB_RETURN_IF_ERROR(wal_->TruncateAll());
  ++stats_.fsyncs;
  db_->cost().ChargeFsync();
  ++stats_.checkpoints;
  return Status::OK();
}

Status Durability::Close() {
  MutexLock l(mu_);
  if (wal_ == nullptr && lock_fd_ < 0) return Status::OK();
  // Flush what we can, but release the log and the directory lock even
  // when the final Sync fails (e.g. a fail-stopped engine): Close must
  // always leave the directory reopenable by another session. The error
  // still reaches the caller, who knows the tail was not flushed.
  Status synced = wal_ != nullptr ? SyncLocked() : Status::OK();
  if (wal_ != nullptr) {
    wal_->Close();
    wal_.reset();
  }
  if (lock_fd_ >= 0) {
    ::close(lock_fd_);
    lock_fd_ = -1;
  }
  return synced;
}

void Durability::PushPending(LogWrite w) {
  MutexLock l(mu_);
  pending_.push_back(std::move(w));
}

void Durability::NoteCreateTable(const std::string& table,
                                 const relstore::Schema& schema) {
  LogWrite w;
  w.op = LogOp::kCreateTable;
  w.table = table;
  w.schema = schema;
  PushPending(std::move(w));
}

void Durability::NoteDropTable(const std::string& table) {
  LogWrite w;
  w.op = LogOp::kDropTable;
  w.table = table;
  PushPending(std::move(w));
}

void Durability::NoteCreateIndex(const std::string& table,
                                 const relstore::IndexDef& def) {
  LogWrite w;
  w.op = LogOp::kCreateIndex;
  w.table = table;
  w.index = def;
  PushPending(std::move(w));
}

void Durability::NoteInsert(const std::string& table,
                            const relstore::Row& row) {
  LogWrite w;
  w.op = LogOp::kInsert;
  w.table = table;
  w.row = row;
  PushPending(std::move(w));
}

void Durability::NoteDelete(const std::string& table,
                            const relstore::Row& row) {
  LogWrite w;
  w.op = LogOp::kDelete;
  w.table = table;
  w.row = row;
  PushPending(std::move(w));
}

}  // namespace cpdb::storage
