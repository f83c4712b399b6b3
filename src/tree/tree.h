#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tree/path.h"
#include "tree/value.h"
#include "util/result.h"
#include "util/status.h"

namespace cpdb::tree {

/// An unordered, edge-labeled tree with data values at the leaves — the
/// paper's data model (Section 2): t ::= {a1 : v1, ..., an : vn} where each
/// vi is a subtree or a data value.
///
/// A Tree object is one node; its children are owned subtrees reached by
/// labeled edges. Invariant: a node carries a Value only if it has no
/// children ("values only at the leaves"). A node with neither children
/// nor value is the empty tree {} — a legal insert payload in the update
/// language ("ins {c2 : {}} into T").
///
/// Trees are move-only; copies are explicit via Clone() because the copy
/// operation of the update language is semantically a deep copy and
/// accidental copies of multi-megabyte curated databases are a bug.
///
/// Clone() is O(fanout), not O(subtree): children are shared_ptr-owned and
/// a clone shares them structurally (persistent-tree style). Mutation goes
/// copy-on-write — every mutable accessor privatizes a shared node (child
/// use_count > 1) by shallow-copying it before handing out a Tree*, so a
/// mutation can never be observed through another clone. Two invariants
/// make this safe: (1) a mutable Tree* is only reachable by descending
/// from an owned root through the CoW accessors, and (2) any node
/// reachable from two roots has a shared ancestor on every path from
/// either root, so a CoW descent clones from the divergence point down and
/// never touches nodes another root can see.
///
/// Concurrency contract: concurrent readers of clones that share
/// structure are safe; a writer mutating one clone is safe against
/// readers of OTHER clones (CoW isolates them) but, as with any
/// container, not against concurrent access to the same clone.
///
/// A node keeps its children in one vector of (label, subtree) pairs,
/// sorted by label with no label twice, and finds a label by binary
/// search. Iteration order is therefore deterministic, which the model
/// permits (trees are unordered, so any canonical order is sound) and
/// which makes serialization, hashing, and tests reproducible. A clone
/// copies that one array, and a lookup walks contiguous memory. An edit
/// (AddChild, RemoveChild, PutChild, TakeChild) shifts the entries after
/// its label, so it is O(fanout) in a wide node, as a clone already is;
/// appending a label that sorts last shifts nothing. Build a wide node in
/// one sort with FromChildren rather than one AddChild per child.
class Tree {
 public:
  /// One labelled edge and the subtree it leads to.
  using Child = std::pair<std::string, std::shared_ptr<Tree>>;
  /// A node's children: sorted by label, each label once.
  using Children = std::vector<Child>;

  /// Constructs the empty tree {}.
  Tree() = default;

  /// Constructs a leaf carrying `v`.
  explicit Tree(Value v) : value_(std::move(v)) {}

  Tree(Tree&&) = default;
  Tree& operator=(Tree&&) = default;
  Tree(const Tree&) = delete;
  Tree& operator=(const Tree&) = delete;

  /// A node with `children` and no value, built with one sort however the
  /// children arrive: O(n log n) for n children, where n AddChild calls
  /// would shift the array up to n times. Fails with InvalidArgument
  /// naming the first malformed label, and with AlreadyExists naming a
  /// label that appears twice.
  static Result<Tree> FromChildren(
      std::vector<std::pair<std::string, Tree>> children);

  /// Copy of this subtree. Semantically a deep copy; physically O(fanout)
  /// — the clone shares child nodes with this tree until one side mutates
  /// (copy-on-write).
  Tree Clone() const;

  // ----- Node-local accessors -------------------------------------------

  bool HasValue() const { return value_.has_value(); }
  /// Precondition: HasValue().
  const Value& value() const { return *value_; }

  /// Sets the leaf value. Fails if this node has children.
  Status SetValue(Value v);

  bool HasChildren() const { return !children_.empty(); }
  size_t ChildCount() const { return children_.size(); }

  /// True for a node with neither children nor value.
  bool IsEmpty() const { return children_.empty() && !value_.has_value(); }

  /// Child by label, or nullptr. The mutable overload privatizes a shared
  /// child (copy-on-write) before returning it.
  const Tree* GetChild(std::string_view label) const;
  Tree* GetChild(std::string_view label);

  /// Deterministic (sorted by label) iteration over children.
  const Children& children() const { return children_; }

  /// True if `other` is the same physical node or shares this node's
  /// children entry-for-entry (diagnostic; used by the copy-on-write and
  /// session-pool tests).
  bool SharesAllChildrenWith(const Tree& other) const;

  /// Adds edge `label` to `subtree`. Fails with AlreadyExists if the label
  /// is present (the paper's t ] t' union) and InvalidArgument if this node
  /// holds a value (values live only at leaves) or the label is malformed.
  /// Shifts the children that sort after `label` (none when it sorts last).
  Status AddChild(const std::string& label, Tree subtree);

  /// Removes edge `label` and its subtree. Fails with NotFound if absent
  /// (the paper's t - a operation).
  Status RemoveChild(const std::string& label);

  /// Removes and returns the subtree under `label`, or NotFound.
  Result<Tree> TakeChild(const std::string& label);

  /// Replaces (or creates) edge `label` with `subtree`.
  void PutChild(const std::string& label, Tree subtree);

  // ----- Path-addressed operations (relative to this node) ---------------

  /// Node at `p`, or nullptr if the path does not exist. Walks the labels
  /// as slices of the path's rendering, allocating nothing. The mutable
  /// overload privatizes every shared node along the path (copy-on-write),
  /// so use the const overload (e.g. via std::as_const) for pure reads.
  const Tree* Find(const Path& p) const;
  Tree* Find(const Path& p);

  bool Contains(const Path& p) const { return Find(p) != nullptr; }

  /// The paper's t[p := t'] — replaces the subtree at `p`. As in the
  /// paper's examples (operation (7) "copy S1/a3 into T/c3" targets a
  /// fresh edge), the final edge of `p` is created if absent, but the
  /// parent of `p` must exist; fails with NotFound otherwise.
  Status ReplaceAt(const Path& p, Tree subtree);

  /// Inserts edge {label : subtree} under the node at `p`
  /// (the paper's "ins {a : v} into p"). Fails with NotFound if `p` is
  /// absent, AlreadyExists on duplicate edge.
  Status InsertAt(const Path& p, const std::string& label, Tree subtree);

  /// Deletes edge `label` under the node at `p`
  /// (the paper's "del a from p"). Fails with NotFound if `p` or the edge
  /// is absent.
  Status DeleteAt(const Path& p, const std::string& label);

  // ----- Whole-subtree utilities -----------------------------------------

  /// Number of nodes in this subtree, excluding this (root) node. The
  /// paper's provenance accounting counts the nodes a copy touches: a copy
  /// of a "subtree of size four (a parent with three children)" touches 4
  /// nodes = 1 (root, counted by the caller) + 3 descendants.
  size_t DescendantCount() const;

  /// Number of nodes in this subtree including this node.
  size_t NodeCount() const { return 1 + DescendantCount(); }

  /// Approximate in-memory footprint in bytes (labels + values + overhead).
  size_t ByteSize() const;

  /// Structural equality (labels, shape, and leaf values).
  bool Equals(const Tree& other) const;

  /// Calls `fn(path, node)` for every node in preorder; `path` is relative
  /// to this node (the root gets the empty path).
  void Visit(
      const std::function<void(const Path&, const Tree&)>& fn) const;

  /// Compact one-line rendering: {a: {x: 1}, b: "s"} — parseable by
  /// ParseTree() in serialize.h.
  std::string ToString() const;

 private:
  /// Replaces a shared child entry with a private shallow copy so in-place
  /// mutation cannot be observed through other clones. Returns the (now
  /// exclusively owned) child, or nullptr if the label is absent.
  Tree* MutableChild(std::string_view label);

  Children children_;
  std::optional<Value> value_;
};

}  // namespace cpdb::tree
