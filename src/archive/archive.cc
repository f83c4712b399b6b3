#include "archive/archive.h"

#include <cstdint>

#include "update/semantics.h"

namespace cpdb::archive {

VersionArchive::VersionArchive(int64_t base_version, tree::Tree initial,
                               Options options)
    : options_(options),
      base_version_(base_version),
      last_version_(base_version) {
  if (options_.checkpoint_every == 0) options_.checkpoint_every = 1;
  checkpoints_.emplace(base_version, std::move(initial));
}

Status VersionArchive::Record(int64_t first_tid,
                              std::vector<update::Script> scripts,
                              const tree::Tree& post) {
  if (first_tid != last_version_ + 1) {
    return Status::InvalidArgument(
        "non-consecutive version " + std::to_string(first_tid) + " after " +
        std::to_string(last_version_));
  }
  if (scripts.empty()) {
    return Status::InvalidArgument("empty run of versions");
  }
  for (update::Script& script : scripts) {
    scripts_.emplace(++last_version_, std::move(script));
  }
  // Only the run's post-state is known, so a checkpoint due inside the
  // run lands on its last version; one-version runs checkpoint every
  // `checkpoint_every` versions exactly.
  if (static_cast<size_t>(last_version_ - checkpoints_.rbegin()->first) >=
      options_.checkpoint_every) {
    checkpoints_.emplace(last_version_, post.Clone());
  }
  return Status::OK();
}

Result<tree::Tree> VersionArchive::GetVersion(int64_t tid) const {
  if (tid < base_version_ || tid > last_version_) {
    return Status::NotFound("version " + std::to_string(tid) +
                            " is outside [" + std::to_string(base_version_) +
                            ", " + std::to_string(last_version_) + "]");
  }
  // Nearest checkpoint at or before tid.
  auto it = checkpoints_.upper_bound(tid);
  --it;  // safe: base_version_ is always present
  tree::Tree t = it->second.Clone();
  for (int64_t v = it->first + 1; v <= tid; ++v) {
    auto sit = scripts_.find(v);
    if (sit == scripts_.end()) {
      return Status::Internal("missing script for version " +
                              std::to_string(v));
    }
    CPDB_RETURN_IF_ERROR(update::ApplySequence(&t, sit->second));
  }
  return t;
}

Result<const update::Script*> VersionArchive::GetScript(int64_t tid) const {
  auto it = scripts_.find(tid);
  if (it == scripts_.end()) {
    return Status::NotFound("no script for version " + std::to_string(tid));
  }
  return &it->second;
}

provenance::VersionFn VersionArchive::MakeVersionFn() const {
  return [this](int64_t tid) -> const tree::Tree* {
    for (int i = 0; i < 2; ++i) {
      if (memo_->version[i] == tid) return &memo_->tree[i];
    }
    auto v = GetVersion(tid);
    if (!v.ok()) return nullptr;
    int slot = memo_->next_slot;
    memo_->next_slot = 1 - slot;
    memo_->version[slot] = tid;
    memo_->tree[slot] = std::move(v).value();
    return &memo_->tree[slot];
  };
}

}  // namespace cpdb::archive
