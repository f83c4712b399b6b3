#include "relstore/page.h"

#include <cstring>

namespace cpdb::relstore {

Page::Page() : data_(kPageSize, '\0'), free_ptr_(kPageSize) {}

size_t Page::FreeSpace() const {
  size_t used_front = kHeaderSize + slots_.size() * kSlotSize;
  size_t contiguous = free_ptr_ > used_front ? free_ptr_ - used_front : 0;
  return contiguous + dead_bytes_;
}

bool Page::Fits(size_t len) const {
  size_t need = len + kSlotSize;
  return FreeSpace() >= need;
}

Result<uint16_t> Page::Insert(const std::string& record) {
  if (record.size() > kMaxRecordSize) {
    return Status::InvalidArgument("record larger than page");
  }
  if (!Fits(record.size())) {
    return Status::FailedPrecondition("page full");
  }
  size_t used_front = kHeaderSize + (slots_.size() + 1) * kSlotSize;
  if (free_ptr_ < used_front + record.size()) {
    Compact();
    if (free_ptr_ < used_front + record.size()) {
      return Status::FailedPrecondition("page full after compaction");
    }
  }
  free_ptr_ -= record.size();
  std::memcpy(data_.data() + free_ptr_, record.data(), record.size());
  Slot s;
  s.offset = static_cast<uint16_t>(free_ptr_);
  s.len = static_cast<uint16_t>(record.size());
  s.live = true;
  slots_.push_back(s);
  slot_count_ = static_cast<uint16_t>(slots_.size());
  ++live_records_;
  live_bytes_ += record.size();
  return static_cast<uint16_t>(slots_.size() - 1);
}

Result<std::string> Page::Read(uint16_t slot) const {
  if (slot >= slots_.size() || !slots_[slot].live) {
    return Status::NotFound("no live record in slot " + std::to_string(slot));
  }
  const Slot& s = slots_[slot];
  return data_.substr(s.offset, s.len);
}

Status Page::Delete(uint16_t slot) {
  if (slot >= slots_.size() || !slots_[slot].live) {
    return Status::NotFound("no live record in slot " + std::to_string(slot));
  }
  slots_[slot].live = false;
  --live_records_;
  live_bytes_ -= slots_[slot].len;
  dead_bytes_ += slots_[slot].len;
  return Status::OK();
}

bool Page::IsLive(uint16_t slot) const {
  return slot < slots_.size() && slots_[slot].live;
}

void Page::Compact() {
  // Rewrites live payloads to the back of the page, preserving slot ids.
  std::string fresh(kPageSize, '\0');
  size_t ptr = kPageSize;
  for (Slot& s : slots_) {
    if (!s.live) {
      s.offset = 0;
      s.len = 0;
      continue;
    }
    ptr -= s.len;
    std::memcpy(fresh.data() + ptr, data_.data() + s.offset, s.len);
    s.offset = static_cast<uint16_t>(ptr);
  }
  data_ = std::move(fresh);
  free_ptr_ = ptr;
  dead_bytes_ = 0;
}

}  // namespace cpdb::relstore
