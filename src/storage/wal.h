#pragma once

#include <functional>
#include <memory>
#include <string>

#include "obs/metrics.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace cpdb::storage {

/// Append-only write-ahead log file of checksummed, length-prefixed
/// records, each one frame of the shared codec (util/crc32.h):
///
///   record := varint(payload_len) | fixed32 crc32(payload) | payload
///
/// One framed record per committed transaction (group commit): the caller
/// encodes everything the transaction changed into one payload, Append()s
/// it, and Sync()s once — one fsync per commit whatever the transaction's
/// length. A record is atomic on recovery: Replay() surfaces only
/// payloads whose length and CRC check out, stops at the first torn or
/// corrupt frame, and truncates the file back to the last good boundary
/// so the next Append starts on clean bytes.
///
/// Thread safety: internally synchronized. Every mutating entry point
/// serializes on an internal mutex (GUARDED_BY-checked under
/// -Wthread-safety), so concurrent appenders cannot interleave a frame —
/// the Durability engine is the only caller and already serializes, and
/// the lock keeps the log correct without relying on that.
class Wal {
 public:
  /// Opens (creating if needed) the log at `path` for appending.
  static Result<std::unique_ptr<Wal>> Open(const std::string& path);
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Appends one framed record; returns the framed size in bytes via
  /// `*framed_bytes` (optional). Buffered in the OS until Sync().
  ///
  /// Failure atomicity: a short write (ENOSPC, EIO) would leave a torn
  /// frame that recovery treats as end-of-log — every later record,
  /// fsynced or not, would silently vanish behind it. A failed append
  /// therefore truncates the file back to the last good record boundary;
  /// if even that fails, the log POISONS itself and rejects all further
  /// appends (fail-stop), so a commit is never acknowledged behind a
  /// tear.
  Status Append(const std::string& payload, size_t* framed_bytes = nullptr)
      CPDB_EXCLUDES(mu_);

  /// fsync barrier: everything appended so far is durable on return.
  Status Sync() CPDB_EXCLUDES(mu_);

  /// Empties the log (after a checkpoint made its contents redundant).
  Status TruncateAll() CPDB_EXCLUDES(mu_);

  /// Closes the file descriptor WITHOUT syncing — pending OS buffers are
  /// the crash window by design; callers that want durability Sync()
  /// first. Idempotent.
  void Close() CPDB_EXCLUDES(mu_);

  /// Wires latency histograms onto the write path: every Append records
  /// its wall time into `append_us`, every Sync its fsync into
  /// `fsync_us`; TruncateAll's fsync is not timed. Either may be null
  /// (unmetered). Owned by the caller's registry, which must outlive the
  /// log.
  void SetMetricSinks(obs::Histogram* append_us, obs::Histogram* fsync_us)
      CPDB_EXCLUDES(mu_) {
    MutexLock l(mu_);
    append_us_ = append_us;
    fsync_us_ = fsync_us;
  }

  /// Replays every complete, checksum-valid record of the log at `path`
  /// in file order, calling `fn(payload)` for each; stops (successfully)
  /// at the first torn or corrupt frame and truncates the file to the
  /// last good record boundary. Returns the number of records surfaced,
  /// or the first error `fn` reported. A missing file replays 0 records.
  /// The log is read kReplayChunkBytes at a time into one FrameReader
  /// bounded by the file's size, so a record of any length replays.
  static Result<size_t> Replay(
      const std::string& path,
      const std::function<Status(const std::string&)>& fn);

  static constexpr size_t kReplayChunkBytes = 64u << 10;

 private:
  Wal(int fd, std::string path, size_t file_size)
      : fd_(fd), path_(std::move(path)), file_size_(file_size) {}

  mutable Mutex mu_;
  int fd_ CPDB_GUARDED_BY(mu_) = -1;
  const std::string path_;  ///< immutable after Open
  /// Last known-good record boundary.
  size_t file_size_ CPDB_GUARDED_BY(mu_) = 0;
  bool poisoned_ CPDB_GUARDED_BY(mu_) = false;
  obs::Histogram* append_us_ CPDB_GUARDED_BY(mu_) = nullptr;
  obs::Histogram* fsync_us_ CPDB_GUARDED_BY(mu_) = nullptr;
};

/// fsyncs a directory, making renames/creations inside it durable —
/// without it, a checkpoint's atomic rename (or a fresh log's directory
/// entry) can evaporate in a power loss even though its data survived.
Status SyncDir(const std::string& dir);

/// The directory containing `path` ("." for a bare filename) — the
/// argument SyncDir needs for a file's directory entry.
std::string DirOf(const std::string& path);

}  // namespace cpdb::storage
