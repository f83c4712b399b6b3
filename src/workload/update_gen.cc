#include "workload/update_gen.h"

namespace cpdb::workload {

using update::OpKind;
using update::Update;

const char* PatternName(Pattern p) {
  switch (p) {
    case Pattern::kAdd:
      return "add";
    case Pattern::kDelete:
      return "delete";
    case Pattern::kCopy:
      return "copy";
    case Pattern::kAcMix:
      return "ac-mix";
    case Pattern::kMix:
      return "mix";
    case Pattern::kReal:
      return "real";
  }
  return "?";
}

const char* DeletePolicyName(DeletePolicy p) {
  switch (p) {
    case DeletePolicy::kRandom:
      return "del-random";
    case DeletePolicy::kAdded:
      return "del-add";
    case DeletePolicy::kCopied:
      return "del-copy";
    case DeletePolicy::kMix:
      return "del-mix";
    case DeletePolicy::kReal:
      return "del-real";
  }
  return "?";
}

UpdateGenerator::UpdateGenerator(const tree::Tree* universe,
                                 GenOptions options)
    : universe_(universe), options_(std::move(options)), rng_(options.seed) {
  target_root_ = tree::Path({options_.target_label});
  const tree::Tree* target = universe_->Find(target_root_);
  if (target != nullptr) {
    target->Visit([&](const tree::Path& rel, const tree::Tree& node) {
      tree::Path abs = target_root_.Concat(rel);
      any_nodes_.push_back(abs);
      if (!node.HasValue()) containers_.push_back(abs);
    });
  }
  const tree::Tree* source =
      universe_->Find(tree::Path({options_.source_label}));
  if (source != nullptr) {
    for (const auto& [label, child] : source->children()) {
      (void)child;
      source_entries_.push_back(
          tree::Path({options_.source_label, label}));
    }
  }
}

std::optional<tree::Path> UpdateGenerator::PickContainer() {
  for (int tries = 0; tries < 64 && !containers_.empty(); ++tries) {
    size_t i = rng_.NextIndex(containers_.size());
    const tree::Tree* node = universe_->Find(containers_[i]);
    if (node != nullptr && !node->HasValue()) return containers_[i];
    containers_[i] = containers_.back();
    containers_.pop_back();
  }
  return target_root_;  // the target root always exists and is a container
}

std::optional<tree::Path> UpdateGenerator::PickFrom(
    std::vector<tree::Path>* pool, bool must_be_deletable,
    size_t recent_window) {
  for (int tries = 0; tries < 64 && !pool->empty(); ++tries) {
    size_t lo = recent_window > 0 && pool->size() > recent_window
                    ? pool->size() - recent_window
                    : 0;
    size_t i = lo + rng_.NextIndex(pool->size() - lo);
    tree::Path p = (*pool)[i];
    bool ok = Exists(p);
    if (ok && must_be_deletable) {
      // Deletable = strictly below the target root (we never delete T).
      ok = target_root_.IsStrictPrefixOf(p);
    }
    if (ok) return p;
    (*pool)[i] = pool->back();
    pool->pop_back();
  }
  return std::nullopt;
}

std::optional<Update> UpdateGenerator::NextAdd() {
  auto parent = PickContainer();
  if (!parent.has_value()) return std::nullopt;
  std::string label = "n" + std::to_string(++fresh_counter_);
  // Half leaf values, half empty nodes — both legal insert payloads.
  std::optional<tree::Value> payload;
  if (rng_.NextBool(0.5)) payload = tree::Value(rng_.NextInt(0, 99999));
  return Update::Insert(*parent, label, payload);
}

std::optional<Update> UpdateGenerator::NextDelete() {
  std::optional<tree::Path> victim;
  switch (options_.delete_policy) {
    case DeletePolicy::kRandom:
      // Random path deletion, biased to leaves: curators delete individual
      // fields far more often than whole records, and the paper's random
      // deletes cost ~1 provenance record each (Figure 7's delete bar
      // matches its add bar for every method).
      for (int tries = 0; tries < 8; ++tries) {
        victim = PickFrom(&any_nodes_, /*must_be_deletable=*/true);
        if (!victim.has_value()) break;
        const tree::Tree* node = universe_->Find(*victim);
        if (node != nullptr && !node->HasChildren()) break;  // leaf: done
      }
      break;
    case DeletePolicy::kAdded:
      victim = PickFrom(&added_, true, /*recent_window=*/12);
      break;
    case DeletePolicy::kCopied:
      victim = PickFrom(&copied_roots_, true, /*recent_window=*/12);
      break;
    case DeletePolicy::kMix:
      victim = rng_.NextBool(0.5) ? PickFrom(&added_, true, 12)
                                  : PickFrom(&copied_roots_, true, 12);
      if (!victim.has_value()) {
        victim = rng_.NextBool(0.5) ? PickFrom(&copied_roots_, true, 12)
                                    : PickFrom(&added_, true, 12);
      }
      break;
    case DeletePolicy::kReal: {
      // Delete a child of a previously copied subtree.
      auto root = PickFrom(&copied_roots_, true);
      if (root.has_value()) {
        const tree::Tree* node = universe_->Find(*root);
        if (node != nullptr && node->HasChildren()) {
          size_t k = rng_.NextIndex(node->ChildCount());
          victim = root->Child(node->children()[k].first);
        }
      }
      break;
    }
  }
  if (!victim.has_value()) return std::nullopt;
  return Update::Delete(victim->Parent(), victim->Leaf());
}

std::optional<Update> UpdateGenerator::NextCopy(
    const tree::Path& dst_parent_hint) {
  if (source_entries_.empty()) return std::nullopt;
  const tree::Path& src =
      source_entries_[rng_.NextIndex(source_entries_.size())];
  std::string label = "c" + std::to_string(++fresh_counter_);
  return Update::Copy(src, dst_parent_hint.Child(label));
}

std::optional<Update> UpdateGenerator::NextReal() {
  // The paper's "real" bulk-like pattern, a 7-operation cycle: copy one
  // subtree, delete three existing subtree elements, insert three new
  // elements under the subtree root (Section 4.1: "repeatedly copies a
  // subtree into the target, then inserts three elements under the
  // subtree root and deletes three existing subtree elements"). The
  // deletes directly follow the copy so that, as in the paper's Figure 8,
  // transactional stores cancel many copy+delete pairs within one
  // transaction.
  if (real_phase_ == 0) {
    auto parent = PickContainer();
    if (!parent.has_value()) return std::nullopt;
    auto copy = NextCopy(*parent);
    if (!copy.has_value()) return std::nullopt;
    real_root_ = copy->target;
    real_victims_.clear();
    real_phase_ = 1;
    return copy;
  }
  if (real_phase_ >= 1 && real_phase_ <= 3) {
    // Delete the original children of the freshly copied entry.
    if (real_victims_.empty() && real_phase_ == 1) {
      const tree::Tree* node = universe_->Find(real_root_);
      if (node != nullptr) {
        for (const auto& [label, child] : node->children()) {
          (void)child;
          real_victims_.push_back(label);
        }
      }
    }
    ++real_phase_;
    while (!real_victims_.empty()) {
      std::string victim = real_victims_.back();
      real_victims_.pop_back();
      if (universe_->Find(real_root_.Child(victim)) != nullptr) {
        return Update::Delete(real_root_, victim);
      }
    }
    // Nothing left to delete: fall through to an insert phase op.
  }
  // Phases 4..6 (or delete-starved earlier phases): insert fresh nodes.
  ++real_phase_;
  if (real_phase_ > 6) real_phase_ = 0;
  std::string label = "n" + std::to_string(++fresh_counter_);
  std::optional<tree::Value> payload;
  if (rng_.NextBool(0.5)) payload = tree::Value(rng_.NextInt(0, 99999));
  if (universe_->Find(real_root_) == nullptr) {
    real_phase_ = 0;
    return NextReal();
  }
  return Update::Insert(real_root_, label, payload);
}

std::optional<Update> UpdateGenerator::Next(bool* skipped) {
  if (skipped != nullptr) *skipped = false;
  Pattern p = options_.pattern;
  if (p == Pattern::kAcMix) {
    p = rng_.NextBool(0.5) ? Pattern::kAdd : Pattern::kCopy;
  } else if (p == Pattern::kMix) {
    switch (rng_.NextBelow(3)) {
      case 0:
        p = Pattern::kAdd;
        break;
      case 1:
        p = Pattern::kDelete;
        break;
      default:
        p = Pattern::kCopy;
        break;
    }
  }
  switch (p) {
    case Pattern::kAdd:
      return NextAdd();
    case Pattern::kDelete: {
      if (!options_.include_deletes) {
        ++skipped_deletes_;
        if (skipped != nullptr) *skipped = true;
        return std::nullopt;  // "(ac)" run: the delete slot is a no-op
      }
      auto del = NextDelete();
      // A delete-starved pool falls back to an add so long runs make
      // progress (matches random-update behaviour on a shrinking tree).
      return del.has_value() ? del : NextAdd();
    }
    case Pattern::kCopy: {
      auto parent = PickContainer();
      if (!parent.has_value()) return std::nullopt;
      return NextCopy(*parent);
    }
    case Pattern::kReal:
      return NextReal();
    default:
      return std::nullopt;
  }
}

void UpdateGenerator::OnApplied(const Update& u,
                                const update::ApplyEffect& effect) {
  switch (u.kind) {
    case OpKind::kInsert: {
      ++adds_;
      for (const tree::Path& p : effect.inserted) {
        any_nodes_.push_back(p);
        added_.push_back(p);
        const tree::Tree* node = universe_->Find(p);
        if (node != nullptr && !node->HasValue()) containers_.push_back(p);
      }
      break;
    }
    case OpKind::kDelete:
      ++deletes_;
      // Pools are validated lazily; nothing to do eagerly.
      break;
    case OpKind::kCopy: {
      ++copies_;
      if (!effect.copied.empty()) {
        copied_roots_.push_back(effect.copied.front().first);
      }
      for (const auto& [loc, src] : effect.copied) {
        (void)src;
        any_nodes_.push_back(loc);
        const tree::Tree* node = universe_->Find(loc);
        if (node != nullptr && !node->HasValue()) containers_.push_back(loc);
      }
      break;
    }
  }
}

}  // namespace cpdb::workload
