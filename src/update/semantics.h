#pragma once

#include <optional>
#include <vector>

#include "tree/tree.h"
#include "update/update.h"
#include "util/status.h"

namespace cpdb::update {

/// Information about what one applied update touched, needed by
/// provenance tracking and by the undo log.
struct ApplyEffect {
  /// Nodes the operation inserted (ins: exactly the new edge path).
  std::vector<tree::Path> inserted;
  /// Nodes the operation removed, in preorder (del: the whole subtree).
  std::vector<tree::Path> deleted;
  /// For copies: (target node path, source node path) per copied node,
  /// preorder; first entry is the (root target, root source) pair.
  std::vector<std::pair<tree::Path, tree::Path>> copied;
  /// For copies: whether the destination edge existed before (overwrite).
  bool overwrote = false;
  /// For copies that overwrote: the node paths of the *previous* subtree
  /// at the destination, preorder. Transactional provenance uses this to
  /// prune provenance links of overwritten data and to maintain its
  /// created-this-transaction bookkeeping.
  std::vector<tree::Path> overwritten;
};

/// Applies one atomic update to the universe tree, implementing the
/// paper's semantics:
///
///   [[ins {a:v} into p]](t) = t[p := (t.p ] {a:v})]   -- fails on missing
///       p or a duplicate top-level edge a
///   [[del a from p]](t)     = t[p := (t.p - a)]       -- fails if a absent
///   [[copy q into p]](t)    = t[p := t.q]             -- fails on missing
///       q or missing parent(p); creates the edge at p if absent, replaces
///       it otherwise (as in Figure 3's operation (7))
///
/// On failure the tree is unchanged. If `effect` is non-null it receives
/// the touched-node report used for provenance accounting.
Status Apply(tree::Tree* universe, const Update& u,
             ApplyEffect* effect = nullptr);

/// Applies u1; ...; un in order, stopping at the first failure
/// ([[U;U']] = [[U']] o [[U]]). Returns the index of the failed op via
/// `failed_at` (set to script.size() on success).
Status ApplySequence(tree::Tree* universe, const Script& script,
                     size_t* failed_at = nullptr);

/// Log of inverse actions sufficient to revert applied updates in reverse
/// order. Used to abort editor transactions without snapshotting the
/// whole database.
class UndoLog {
 public:
  /// Applies `u` to the universe and, on success, records its inverse.
  Status ApplyTracked(tree::Tree* universe, const Update& u,
                      ApplyEffect* effect = nullptr);

  /// Reverts every recorded action, most recent first; leaves the log
  /// empty. Returns Internal if the tree no longer matches the log (only
  /// possible if the tree was mutated outside this log).
  Status RevertAll(tree::Tree* universe);

  /// Forgets recorded actions (after a successful commit).
  void Clear() { entries_.clear(); }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

 private:
  struct Entry {
    OpKind kind;
    tree::Path target;           // as in the Update
    std::string label;           // ins/del
    std::optional<tree::Tree> saved;  // del: removed subtree;
                                      // copy: overwritten subtree (if any)
    bool had_previous = false;   // copy: destination edge existed before
  };
  std::vector<Entry> entries_;
};

}  // namespace cpdb::update
