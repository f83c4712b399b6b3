#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "relstore/datum.h"
#include "relstore/page.h"

namespace cpdb::relstore {

/// In-memory B+tree mapping composite keys (Row) to record ids.
///
/// Duplicate keys are supported by ordering entries on (key, rid); all
/// operations that name a specific entry take both. Leaves form a doubly
/// linked chain for ordered range scans — which the provenance store uses
/// for Loc-prefix lookups (every descendant of a path is a contiguous key
/// range) — and for O(1) unlink when a leaf is merged away.
///
/// Every node is searched by binary search, an upper bound over an
/// internal node's separators and a lower bound over a leaf's entries,
/// and each step makes one three-way (key, rid) comparison: CompareRows,
/// then the rid on a tie. A descent compares the caller's key where it
/// lies and copies no key; a key the tree keeps is moved in.
///
/// Deletion uses the standard B+tree rebalance: a leaf or internal node
/// that drops below minimum occupancy borrows an entry from an adjacent
/// sibling, or is merged with one, so the occupancy and height bounds hold
/// for any interleaving of inserts and erases. `CheckInvariants()`
/// verifies the full structural contract and stays armed in release
/// builds (it does not rely on `assert`).
class BTree {
 private:
  struct Node;  // declared up front so Cursor can hold a leaf position

 public:
  BTree();
  ~BTree();

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  /// Inserts (key, rid), taking the key. Duplicate (key, rid) pairs are
  /// ignored.
  void Insert(Row key, const Rid& rid);

  /// Removes (key, rid); returns false if not present.
  bool Erase(const Row& key, const Rid& rid);

  /// Sorted-run bulk insert into a possibly non-empty tree; (key, rid)
  /// pairs already present are ignored (Insert semantics). Returns the
  /// number of entries actually added. Input need not be sorted. The
  /// batched write path (Table::InsertBatch) feeds each index exactly one
  /// run per batch: into an empty tree the run is packed into full leaves
  /// (the minimum-height tree for the data — initial loads and checkpoint
  /// restores), small runs take ordered per-key descents, and runs large
  /// relative to the tree take a single leaf-chain merge + rebuild
  /// (O(n + k) instead of k descents). Invalidates all cursors.
  size_t BulkUpsert(std::vector<std::pair<Row, Rid>> items);

  /// Read cursor positioned on one entry of the leaf chain. Obtained from
  /// Seek()/SeekFirst(); stepping follows the doubly-linked leaves, so a
  /// full traversal touches each leaf exactly once with no re-descent.
  ///
  /// Consistency contract: a cursor is a borrowed position inside the
  /// tree. Any mutation (Insert, Erase, BulkUpsert) invalidates every
  /// outstanding cursor; advancing or dereferencing one afterwards is
  /// undefined. Scans in this codebase never interleave with writes to
  /// the same index (single-writer, read-then-write phases), which is the
  /// contract the provenance cursors document upward.
  class Cursor {
   public:
    Cursor() = default;

    bool Valid() const { return leaf_ != nullptr; }
    /// Precondition for key()/rid()/Advance(): Valid().
    const Row& key() const;
    const Rid& rid() const;
    /// Steps to the next entry in (key, rid) order; becomes invalid past
    /// the last entry.
    void Advance();

   private:
    friend class BTree;
    const Node* leaf_ = nullptr;
    size_t idx_ = 0;
  };

  /// Cursor on the smallest entry (invalid if the tree is empty).
  Cursor SeekFirst() const;

  /// Cursor on the largest entry (invalid if the tree is empty) — an
  /// O(height) rightmost descent, used for max-key reads like resuming a
  /// recovered store's transaction counter.
  Cursor SeekLast() const;

  /// Cursor on the first entry with key >= `lo` (ties resolved to the
  /// smallest rid); invalid if no such entry exists. The entries equal to
  /// a full-arity `lo` are the run from here while
  /// CompareRows(lo, key()) == 0.
  Cursor Seek(const Row& lo) const;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Height of the tree (1 = a single leaf). Exposed for tests.
  size_t Height() const;

  /// Verifies the full structural contract — separator bounds, occupancy
  /// minima, uniform leaf depth, doubly-linked chain integrity, and entry
  /// count — and aborts with a diagnostic on violation. Active in all
  /// build types. Exposed for property tests.
  void CheckInvariants() const;

 private:
  struct Entry {
    Row key;
    Rid rid;
  };

  /// Negative, zero or positive as (key, rid) sorts before, level with or
  /// after `e`.
  static int CompareEntry(const Row& key, const Rid& rid, const Entry& e);
  static bool EntryLess(const Entry& a, const Entry& b);
  /// The child of internal `node` that holds (key, rid)'s position: the
  /// number of separators <= (key, rid).
  static size_t ChildIndex(const Node& node, const Row& key, const Rid& rid);
  /// The position in leaf `node` of its first entry >= (key, rid).
  static size_t LeafIndex(const Node& node, const Row& key, const Rid& rid);

  Node* FindLeaf(const Row& key, const Rid& rid) const;
  void BuildFromSorted(std::vector<Entry> entries);
  void SplitChild(Node* parent, size_t child_idx);
  bool EraseRec(Node* node, const Row& key, const Rid& rid);
  void FixUnderflow(Node* parent, size_t child_idx);
  void MergeChildren(Node* parent, size_t left_idx);
  void CheckNode(const Node* node, const Entry* lo, const Entry* hi,
                 size_t depth, size_t* leaf_depth,
                 std::vector<const Node*>* leaves) const;

  std::unique_ptr<Node> root_;
  size_t size_ = 0;
};

}  // namespace cpdb::relstore
