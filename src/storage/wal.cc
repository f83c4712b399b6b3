#include "storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/crc32.h"

namespace cpdb::storage {

namespace {

Status Errno(const std::string& what, const std::string& path) {
  return Status::Internal(what + " '" + path +
                          "': " + std::strerror(errno));
}

}  // namespace

std::string DirOf(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? "." : path.substr(0, slash);
}

Status SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Errno("cannot open directory", dir);
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Errno("directory fsync failed", dir);
  return Status::OK();
}

Result<std::unique_ptr<Wal>> Wal::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd < 0) return Errno("cannot open WAL", path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Errno("cannot stat WAL", path);
  }
  // Make the (possibly fresh) directory entry itself durable: data
  // fsyncs are pointless if the file's name can vanish with the dir.
  Status dir_sync = SyncDir(DirOf(path));
  if (!dir_sync.ok()) {
    ::close(fd);
    return dir_sync;
  }
  return std::unique_ptr<Wal>(
      new Wal(fd, path, static_cast<size_t>(st.st_size)));
}

Wal::~Wal() { Close(); }

void Wal::Close() {
  MutexLock l(mu_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Wal::Append(const std::string& payload, size_t* framed_bytes) {
  MutexLock l(mu_);
  if (fd_ < 0) return Status::FailedPrecondition("WAL is closed");
  if (poisoned_) {
    return Status::FailedPrecondition(
        "WAL '" + path_ + "' is poisoned by an unrecoverable torn write");
  }
  const double start_us = append_us_ ? obs::NowMicros() : 0;
  std::string frame;
  EncodeFrame(payload, &frame);
  size_t off = 0;
  while (off < frame.size()) {
    ssize_t n = ::write(fd_, frame.data() + off, frame.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status write_err = Errno("WAL write failed", path_);
      // Cut the torn frame back off; a tear left in place would make
      // recovery treat this spot as end-of-log and silently drop every
      // later record. If the cut fails too, fail-stop.
      if (::ftruncate(fd_, static_cast<off_t>(file_size_)) != 0) {
        poisoned_ = true;
      }
      return write_err;
    }
    off += static_cast<size_t>(n);
  }
  file_size_ += frame.size();
  if (framed_bytes != nullptr) *framed_bytes = frame.size();
  if (append_us_) append_us_->Record(obs::NowMicros() - start_us);
  return Status::OK();
}

Status Wal::Sync() {
  MutexLock l(mu_);
  if (fd_ < 0) return Status::FailedPrecondition("WAL is closed");
  const double start_us = fsync_us_ ? obs::NowMicros() : 0;
  if (::fsync(fd_) != 0) return Errno("WAL fsync failed", path_);
  if (fsync_us_) fsync_us_->Record(obs::NowMicros() - start_us);
  return Status::OK();
}

Status Wal::TruncateAll() {
  MutexLock l(mu_);
  if (fd_ < 0) return Status::FailedPrecondition("WAL is closed");
  if (::ftruncate(fd_, 0) != 0) return Errno("WAL truncate failed", path_);
  file_size_ = 0;
  poisoned_ = false;  // a fresh, empty log is clean again
  if (::fsync(fd_) != 0) return Errno("WAL fsync failed", path_);
  return Status::OK();
}

Result<size_t> Wal::Replay(
    const std::string& path,
    const std::function<Status(const std::string&)>& fn) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return size_t{0};  // no log yet: nothing to replay
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Errno("cannot stat WAL", path);
  }
  const auto file_size = static_cast<uint64_t>(st.st_size);
  // The log's own size bounds a record: one cohort's record can be larger
  // than any wire frame. Reading in chunks keeps recovery memory to the
  // record being decoded (buffered, and its payload handed to fn) plus one
  // chunk, however long a log that never checkpoints grew.
  FrameReader reader(file_size);
  std::string chunk(kReplayChunkBytes, '\0');
  std::string payload;
  size_t records = 0;
  Status failed;
  for (;;) {
    const FrameReader::Event ev = reader.Next(&payload);
    if (ev == FrameReader::Event::kFrame) {
      failed = fn(payload);
      if (!failed.ok()) break;
      ++records;
      continue;
    }
    // A torn or corrupt frame, or a length past the file, ends the log.
    if (ev != FrameReader::Event::kNeedMore) break;
    ssize_t n = ::read(fd, chunk.data(), chunk.size());
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) failed = Errno("WAL read failed", path);
    if (n <= 0) break;
    reader.Append(chunk.data(), static_cast<size_t>(n));
  }
  ::close(fd);
  CPDB_RETURN_IF_ERROR(failed);
  // Torn or corrupt tail: cut the file back to the last good commit so
  // subsequent appends extend a clean log. Anything past the first bad
  // frame is unreachable anyway (frames only parse in sequence).
  if (reader.consumed() < file_size &&
      ::truncate(path.c_str(), static_cast<off_t>(reader.consumed())) != 0) {
    return Errno("WAL tail truncate failed", path);
  }
  return records;
}

}  // namespace cpdb::storage
