#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace cpdb::relstore {

/// Record identifier: page number + slot within the page.
struct Rid {
  uint32_t page = 0;
  uint16_t slot = 0;

  bool operator==(const Rid& o) const {
    return page == o.page && slot == o.slot;
  }
  bool operator<(const Rid& o) const {
    return page != o.page ? page < o.page : slot < o.slot;
  }
  std::string ToString() const {
    return std::to_string(page) + ":" + std::to_string(slot);
  }
};

/// A slotted heap page holding variable-length records.
///
/// Layout is the classic slotted-page design: a slot directory grows from
/// the front, record payloads grow from the back, and the page is full when
/// they would meet. Deleting a record tombstones its slot; the payload
/// space is reclaimed by Compact() when fragmentation passes a threshold.
/// Pages are the unit of physical-size accounting for the storage figures
/// (the paper's Figure 8 reports provenance table sizes in MB).
class Page {
 public:
  static constexpr size_t kPageSize = 4096;
  static constexpr size_t kHeaderSize = 8;
  static constexpr size_t kSlotSize = 4;  // offset:u16 + len:u16
  /// The largest record a page stores: the page less its header and the
  /// record's slot.
  static constexpr size_t kMaxRecordSize =
      kPageSize - kHeaderSize - kSlotSize;

  Page();

  /// Bytes available for one more record (including its slot entry).
  size_t FreeSpace() const;

  /// True if a record of `len` bytes fits (possibly after compaction).
  bool Fits(size_t len) const;

  /// Stores a record; returns its slot. Fails if it does not fit.
  Result<uint16_t> Insert(const std::string& record);

  /// Reads the record in `slot`. Fails on empty/tombstoned slots.
  Result<std::string> Read(uint16_t slot) const;

  /// Tombstones `slot`. Fails if already dead or out of range.
  Status Delete(uint16_t slot);

  /// True if the slot holds a live record.
  bool IsLive(uint16_t slot) const;

  uint16_t SlotCount() const { return slot_count_; }
  size_t LiveRecords() const { return live_records_; }

  /// Bytes of live payload (excluding headers and dead space).
  size_t LiveBytes() const { return live_bytes_; }

 private:
  void Compact();

  // In-memory representation; offsets are into data_.
  struct Slot {
    uint16_t offset = 0;
    uint16_t len = 0;
    bool live = false;
  };

  std::string data_;           // payload arena, size kPageSize
  std::vector<Slot> slots_;    // slot directory
  uint16_t slot_count_ = 0;
  size_t free_ptr_;            // start of free region (end of payloads)
  size_t live_records_ = 0;
  size_t live_bytes_ = 0;
  size_t dead_bytes_ = 0;
};

}  // namespace cpdb::relstore
