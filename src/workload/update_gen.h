#pragma once

#include <optional>
#include <string>
#include <vector>

#include "tree/tree.h"
#include "update/semantics.h"
#include "update/update.h"
#include "util/rng.h"

namespace cpdb::workload {

/// Update patterns of the paper's Table 2.
enum class Pattern {
  kAdd,     ///< all random adds
  kDelete,  ///< all random deletes
  kCopy,    ///< all random copies
  kAcMix,   ///< equal mix of random adds and copies
  kMix,     ///< equal mix of random adds, deletes, copies
  kReal,    ///< copy one subtree, add 3 nodes, delete 3 nodes (bulk-like)
};

const char* PatternName(Pattern p);

/// Deletion patterns of the paper's Table 3 (victim selection for the
/// delete slots of a mix run).
enum class DeletePolicy {
  kRandom,  ///< del-random: paths deleted at random
  kAdded,   ///< del-add: all added paths deleted
  kCopied,  ///< del-copy: only copies deleted
  kMix,     ///< del-mix: 50-50 mix of adds and copies deleted
  kReal,    ///< del-real: 3 nodes from the copied subtree deleted
};

const char* DeletePolicyName(DeletePolicy p);

struct GenOptions {
  Pattern pattern = Pattern::kMix;
  DeletePolicy delete_policy = DeletePolicy::kRandom;
  /// When false, operations that would be deletes are skipped entirely —
  /// the "(ac)" runs of Figure 11.
  bool include_deletes = true;
  uint64_t seed = 42;
  std::string target_label = "T";
  std::string source_label = "S1";
};

/// Generates a valid random update stream against a live universe tree.
///
/// The generator owns no tree; it watches the universe the editor
/// mutates. Call Next() for a candidate operation (validated against the
/// current tree), apply it through the editor, then report the outcome
/// with OnApplied() so the internal path pools stay in sync.
class UpdateGenerator {
 public:
  UpdateGenerator(const tree::Tree* universe, GenOptions options);

  /// Next operation, or std::nullopt if the pattern cannot make progress
  /// (e.g. delete-only pattern with an empty target). When
  /// options.include_deletes is false and the slot would have been a
  /// delete, returns std::nullopt with *skipped set to true — the step is
  /// consumed without an operation, keeping the add/copy stream of an
  /// "(ac)" run aligned with its "(acd)" twin (Figure 11).
  std::optional<update::Update> Next(bool* skipped = nullptr);

  /// Must be called after the editor successfully applies `u`.
  void OnApplied(const update::Update& u,
                 const update::ApplyEffect& effect);

  // Counters (for bench reporting).
  size_t adds() const { return adds_; }
  size_t deletes() const { return deletes_; }
  size_t copies() const { return copies_; }
  size_t skipped_deletes() const { return skipped_deletes_; }

 private:
  std::optional<update::Update> NextAdd();
  std::optional<update::Update> NextDelete();
  std::optional<update::Update> NextCopy(const tree::Path& dst_parent_hint);
  std::optional<update::Update> NextReal();

  /// Random existing non-leaf node in the target subtree (pool-backed,
  /// lazily validated).
  std::optional<tree::Path> PickContainer();

  /// Random pool victim validated against the tree; erases stale entries.
  /// With `recent_window` > 0, picks only among the last that many pool
  /// entries — the del-add / del-mix patterns delete *recently* added
  /// paths, so that insert+delete frequently cancel within a transaction
  /// (the effect Figure 11 shows for the transactional methods).
  std::optional<tree::Path> PickFrom(std::vector<tree::Path>* pool,
                                     bool must_be_deletable,
                                     size_t recent_window = 0);

  bool Exists(const tree::Path& p) const {
    return universe_->Find(p) != nullptr;
  }

  const tree::Tree* universe_;
  GenOptions options_;
  Rng rng_;
  tree::Path target_root_;

  std::vector<tree::Path> containers_;   // candidate insert parents
  std::vector<tree::Path> added_;        // paths created by adds
  std::vector<tree::Path> copied_roots_; // roots of pasted subtrees
  std::vector<tree::Path> any_nodes_;    // all known target paths
  std::vector<tree::Path> source_entries_;  // size-4 subtree roots in S

  // State of the "real" pattern's 7-op cycle.
  int real_phase_ = 0;
  tree::Path real_root_;
  std::vector<std::string> real_victims_;

  size_t fresh_counter_ = 0;
  size_t adds_ = 0, deletes_ = 0, copies_ = 0, skipped_deletes_ = 0;
};

}  // namespace cpdb::workload
