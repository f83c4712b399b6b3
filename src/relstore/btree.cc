#include "relstore/btree.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>

namespace cpdb::relstore {

namespace {

constexpr size_t kMaxEntries = 64;  // fanout
// Minimum occupancy for non-root nodes. An internal node's minimum is one
// lower than a leaf's because splitting a full internal node moves the
// middle entry up, leaving (kMaxEntries - kMaxEntries/2 - 1) entries in
// the new right node.
constexpr size_t kMinLeafEntries = kMaxEntries / 2;
constexpr size_t kMinInternalEntries = kMaxEntries / 2 - 1;
constexpr size_t kMaxChildren = kMaxEntries + 1;
constexpr size_t kMinInternalChildren = kMinInternalEntries + 1;

// Invariant checks must survive -DNDEBUG: release-mode benches and the
// large drain probes are exactly where corruption is most expensive to
// chase, so these are hard aborts rather than assert().
[[noreturn]] void InvariantFailure(const char* what) {
  std::fprintf(stderr, "BTree invariant violated: %s\n", what);
  std::abort();
}

void Check(bool ok, const char* what) {
  if (!ok) InvariantFailure(what);
}

}  // namespace

struct BTree::Node {
  bool leaf = true;
  // Leaf: `entries` holds the data; `next`/`prev` form the leaf chain.
  // Internal: `entries[i]` separates children[i] (< entry) from
  // children[i+1] (>= entry); separators are (key,rid) pairs so duplicate
  // keys split cleanly.
  std::vector<Entry> entries;                   // leaf payload or seps
  std::vector<std::unique_ptr<Node>> children;  // internal only
  Node* next = nullptr;                         // leaf chain
  Node* prev = nullptr;                         // leaf chain, for O(1) unlink
};

int BTree::CompareEntry(const Row& key, const Rid& rid, const Entry& e) {
  if (const int c = CompareRows(key, e.key); c != 0) return c;
  return (e.rid < rid) - (rid < e.rid);
}

bool BTree::EntryLess(const Entry& a, const Entry& b) {
  return CompareEntry(a.key, a.rid, b) < 0;
}

BTree::BTree() : root_(std::make_unique<Node>()) {}
BTree::~BTree() = default;

// Descent rule shared by lookup, insert, and erase: children[i] holds
// entries < entries[i], so (key, rid) goes into the child after the last
// separator <= it.
size_t BTree::ChildIndex(const Node& node, const Row& key, const Rid& rid) {
  auto it = std::upper_bound(
      node.entries.begin(), node.entries.end(), key,
      [&rid](const Row& k, const Entry& sep) {
        return CompareEntry(k, rid, sep) < 0;
      });
  return static_cast<size_t>(it - node.entries.begin());
}

size_t BTree::LeafIndex(const Node& node, const Row& key, const Rid& rid) {
  auto it = std::lower_bound(
      node.entries.begin(), node.entries.end(), key,
      [&rid](const Entry& e, const Row& k) {
        return CompareEntry(k, rid, e) > 0;
      });
  return static_cast<size_t>(it - node.entries.begin());
}

BTree::Node* BTree::FindLeaf(const Row& key, const Rid& rid) const {
  Node* cur = root_.get();
  while (!cur->leaf) {
    cur = cur->children[ChildIndex(*cur, key, rid)].get();
  }
  return cur;
}

void BTree::SplitChild(Node* parent, size_t child_idx) {
  Node* child = parent->children[child_idx].get();
  auto right = std::make_unique<Node>();
  right->leaf = child->leaf;
  size_t mid = child->entries.size() / 2;

  if (child->leaf) {
    right->entries.assign(std::make_move_iterator(child->entries.begin() + mid),
                          std::make_move_iterator(child->entries.end()));
    child->entries.resize(mid);
    right->next = child->next;
    right->prev = child;
    if (right->next != nullptr) right->next->prev = right.get();
    child->next = right.get();
    // Separator is a copy of the right half's first entry.
    parent->entries.insert(parent->entries.begin() + child_idx,
                           right->entries.front());
  } else {
    // Middle entry moves up; children split around it.
    Entry sep = std::move(child->entries[mid]);
    right->entries.assign(
        std::make_move_iterator(child->entries.begin() + mid + 1),
        std::make_move_iterator(child->entries.end()));
    right->children.reserve(child->children.size() - mid - 1);
    for (size_t i = mid + 1; i < child->children.size(); ++i) {
      right->children.push_back(std::move(child->children[i]));
    }
    child->entries.resize(mid);
    child->children.resize(mid + 1);
    parent->entries.insert(parent->entries.begin() + child_idx,
                           std::move(sep));
  }
  parent->children.insert(parent->children.begin() + child_idx + 1,
                          std::move(right));
}

void BTree::Insert(Row key, const Rid& rid) {
  if (root_->entries.size() >= kMaxEntries) {
    auto new_root = std::make_unique<Node>();
    new_root->leaf = false;
    new_root->children.push_back(std::move(root_));
    root_ = std::move(new_root);
    SplitChild(root_.get(), 0);
  }
  Node* cur = root_.get();
  while (!cur->leaf) {
    size_t i = ChildIndex(*cur, key, rid);
    if (cur->children[i]->entries.size() >= kMaxEntries) {
      SplitChild(cur, i);
      // Re-decide which side to descend.
      if (CompareEntry(key, rid, cur->entries[i]) >= 0) ++i;
    }
    cur = cur->children[i].get();
  }
  const size_t pos = LeafIndex(*cur, key, rid);
  if (pos < cur->entries.size() &&
      CompareEntry(key, rid, cur->entries[pos]) == 0) {
    return;  // exact duplicate (key, rid); ignore
  }
  cur->entries.insert(cur->entries.begin() + static_cast<ptrdiff_t>(pos),
                      Entry{std::move(key), rid});
  ++size_;
}

bool BTree::Erase(const Row& key, const Rid& rid) {
  if (!EraseRec(root_.get(), key, rid)) return false;
  --size_;
  // Shrink the root while it is an internal node with a single child.
  while (!root_->leaf && root_->children.size() == 1) {
    std::unique_ptr<Node> child = std::move(root_->children.front());
    root_ = std::move(child);
  }
  return true;
}

bool BTree::EraseRec(Node* node, const Row& key, const Rid& rid) {
  if (node->leaf) {
    const size_t pos = LeafIndex(*node, key, rid);
    if (pos == node->entries.size() ||
        CompareEntry(key, rid, node->entries[pos]) != 0) {
      return false;
    }
    node->entries.erase(node->entries.begin() + static_cast<ptrdiff_t>(pos));
    return true;
  }
  size_t i = ChildIndex(*node, key, rid);
  Node* child = node->children[i].get();
  if (!EraseRec(child, key, rid)) return false;
  size_t min_entries = child->leaf ? kMinLeafEntries : kMinInternalEntries;
  if (child->entries.size() < min_entries) FixUnderflow(node, i);
  return true;
}

void BTree::FixUnderflow(Node* parent, size_t child_idx) {
  Node* child = parent->children[child_idx].get();
  Node* left =
      child_idx > 0 ? parent->children[child_idx - 1].get() : nullptr;
  Node* right = child_idx + 1 < parent->children.size()
                    ? parent->children[child_idx + 1].get()
                    : nullptr;
  size_t min_entries = child->leaf ? kMinLeafEntries : kMinInternalEntries;

  if (left != nullptr && left->entries.size() > min_entries) {
    // Borrow the left sibling's maximum.
    if (child->leaf) {
      child->entries.insert(child->entries.begin(),
                            std::move(left->entries.back()));
      left->entries.pop_back();
      parent->entries[child_idx - 1] = child->entries.front();
    } else {
      // Rotate right through the separator.
      child->entries.insert(child->entries.begin(),
                            std::move(parent->entries[child_idx - 1]));
      parent->entries[child_idx - 1] = std::move(left->entries.back());
      left->entries.pop_back();
      child->children.insert(child->children.begin(),
                             std::move(left->children.back()));
      left->children.pop_back();
    }
    return;
  }
  if (right != nullptr && right->entries.size() > min_entries) {
    // Borrow the right sibling's minimum.
    if (child->leaf) {
      child->entries.push_back(std::move(right->entries.front()));
      right->entries.erase(right->entries.begin());
      parent->entries[child_idx] = right->entries.front();
    } else {
      // Rotate left through the separator.
      child->entries.push_back(std::move(parent->entries[child_idx]));
      parent->entries[child_idx] = std::move(right->entries.front());
      right->entries.erase(right->entries.begin());
      child->children.push_back(std::move(right->children.front()));
      right->children.erase(right->children.begin());
    }
    return;
  }
  // No sibling can lend: merge with one. Both nodes are at (or, for the
  // underflowing child, just below) minimum occupancy, so the merged node
  // cannot exceed kMaxEntries.
  if (left != nullptr) {
    MergeChildren(parent, child_idx - 1);
  } else {
    MergeChildren(parent, child_idx);
  }
}

void BTree::MergeChildren(Node* parent, size_t left_idx) {
  Node* dst = parent->children[left_idx].get();
  Node* src = parent->children[left_idx + 1].get();
  if (dst->leaf) {
    dst->entries.insert(dst->entries.end(),
                        std::make_move_iterator(src->entries.begin()),
                        std::make_move_iterator(src->entries.end()));
    // Unlink src from the doubly-linked leaf chain in O(1).
    dst->next = src->next;
    if (src->next != nullptr) src->next->prev = dst;
  } else {
    // The separator between the two nodes moves down between their
    // child sequences.
    dst->entries.push_back(std::move(parent->entries[left_idx]));
    dst->entries.insert(dst->entries.end(),
                        std::make_move_iterator(src->entries.begin()),
                        std::make_move_iterator(src->entries.end()));
    for (auto& c : src->children) dst->children.push_back(std::move(c));
  }
  parent->entries.erase(parent->entries.begin() + left_idx);
  parent->children.erase(parent->children.begin() + left_idx + 1);
}

size_t BTree::BulkUpsert(std::vector<std::pair<Row, Rid>> items) {
  std::vector<Entry> run;
  run.reserve(items.size());
  for (auto& [key, rid] : items) run.push_back(Entry{std::move(key), rid});
  std::sort(run.begin(), run.end(), EntryLess);
  auto same = [](const Entry& a, const Entry& b) {
    return CompareEntry(a.key, a.rid, b) == 0;
  };
  run.erase(std::unique(run.begin(), run.end(), same), run.end());
  if (run.empty()) return 0;
  if (size_ == 0) {
    size_t added = run.size();
    BuildFromSorted(std::move(run));
    return added;
  }
  if (run.size() * 4 < size_) {
    // Small run relative to the tree: ordered per-key insertion. The
    // sorted order keeps successive descents on the same root-to-leaf
    // spine, so this is still cheaper than arbitrary-order inserts.
    size_t added = 0;
    for (Entry& e : run) {
      size_t before = size_;
      Insert(std::move(e.key), e.rid);
      added += size_ - before;
    }
    return added;
  }
  // Large run: one linear merge of the leaf chain with the sorted run,
  // rebuilt through the packer — O(n + k) instead of k descents. The
  // rebuild replaces every node, so the entries move out of the leaves.
  std::vector<Entry> merged;
  merged.reserve(size_ + run.size());
  std::vector<Entry> existing;
  existing.reserve(size_);
  Node* leaf = root_.get();
  while (!leaf->leaf) leaf = leaf->children.front().get();
  for (; leaf != nullptr; leaf = leaf->next) {
    for (Entry& e : leaf->entries) existing.push_back(std::move(e));
  }
  size_t before = existing.size();
  std::merge(std::make_move_iterator(existing.begin()),
             std::make_move_iterator(existing.end()),
             std::make_move_iterator(run.begin()),
             std::make_move_iterator(run.end()), std::back_inserter(merged),
             EntryLess);
  merged.erase(std::unique(merged.begin(), merged.end(), same),
               merged.end());
  size_t added = merged.size() - before;
  BuildFromSorted(std::move(merged));
  return added;
}

/// `entries` must be sorted by EntryLess with no duplicates; replaces the
/// current contents wholesale.
void BTree::BuildFromSorted(std::vector<Entry> entries) {
  size_ = entries.size();
  if (entries.empty()) {
    root_ = std::make_unique<Node>();
    return;
  }

  // A built subtree plus the smallest entry it contains; the minimum of
  // node i+1 becomes the separator between siblings i and i+1.
  struct Built {
    std::unique_ptr<Node> node;
    Entry min;
  };

  // Chunk `remaining` items into nodes of up to `max_per`, keeping every
  // chunk at or above `min_per` by rebalancing against the final chunk.
  auto take_chunk = [](size_t remaining, size_t max_per, size_t min_per) {
    size_t take = std::min(max_per, remaining);
    if (remaining > take && remaining - take < min_per) {
      take = remaining - min_per;
    }
    return take;
  };

  // Leaf level: pack full (minimum-height tree); the erase path repairs
  // any underflow later deletions cause.
  std::vector<Built> level;
  for (size_t i = 0; i < entries.size();) {
    size_t take =
        take_chunk(entries.size() - i, kMaxEntries, kMinLeafEntries);
    auto leaf = std::make_unique<Node>();
    leaf->entries.assign(std::make_move_iterator(entries.begin() + i),
                         std::make_move_iterator(entries.begin() + i + take));
    if (!level.empty()) {
      Node* prev_leaf = level.back().node.get();
      prev_leaf->next = leaf.get();
      leaf->prev = prev_leaf;
    }
    Entry min = leaf->entries.front();
    level.push_back(Built{std::move(leaf), std::move(min)});
    i += take;
  }

  // Internal levels until a single root remains.
  while (level.size() > 1) {
    std::vector<Built> next_level;
    for (size_t i = 0; i < level.size();) {
      size_t take =
          take_chunk(level.size() - i, kMaxChildren, kMinInternalChildren);
      auto node = std::make_unique<Node>();
      node->leaf = false;
      node->children.reserve(take);
      node->entries.reserve(take - 1);
      for (size_t j = 0; j < take; ++j) {
        Built& b = level[i + j];
        if (j > 0) node->entries.push_back(std::move(b.min));
        node->children.push_back(std::move(b.node));
      }
      Entry min = std::move(level[i].min);
      next_level.push_back(Built{std::move(node), std::move(min)});
      i += take;
    }
    level = std::move(next_level);
  }
  root_ = std::move(level.front().node);
}

const Row& BTree::Cursor::key() const { return leaf_->entries[idx_].key; }

const Rid& BTree::Cursor::rid() const { return leaf_->entries[idx_].rid; }

void BTree::Cursor::Advance() {
  ++idx_;
  while (leaf_ != nullptr && idx_ >= leaf_->entries.size()) {
    leaf_ = leaf_->next;
    idx_ = 0;
  }
}

BTree::Cursor BTree::SeekLast() const {
  const Node* leaf = root_.get();
  while (!leaf->leaf) leaf = leaf->children.back().get();
  Cursor cur;
  // Only an empty tree's root leaf can be empty; every other leaf holds
  // at least one entry by the occupancy invariant.
  if (leaf->entries.empty()) return cur;
  cur.leaf_ = leaf;
  cur.idx_ = leaf->entries.size() - 1;
  return cur;
}

BTree::Cursor BTree::SeekFirst() const {
  const Node* leaf = root_.get();
  while (!leaf->leaf) leaf = leaf->children.front().get();
  Cursor cur;
  cur.leaf_ = leaf;
  cur.idx_ = 0;
  // An empty tree is a single empty leaf; normalize to invalid.
  while (cur.leaf_ != nullptr && cur.idx_ >= cur.leaf_->entries.size()) {
    cur.leaf_ = cur.leaf_->next;
    cur.idx_ = 0;
  }
  return cur;
}

BTree::Cursor BTree::Seek(const Row& lo) const {
  const Rid first_rid{0, 0};  // the smallest rid: ties land on the run's start
  const Node* leaf = FindLeaf(lo, first_rid);
  Cursor cur;
  cur.leaf_ = leaf;
  cur.idx_ = LeafIndex(*leaf, lo, first_rid);
  // Only the landing leaf can position past its last entry; later leaves
  // hold entries >= lo by the separator invariant.
  while (cur.leaf_ != nullptr && cur.idx_ >= cur.leaf_->entries.size()) {
    cur.leaf_ = cur.leaf_->next;
    cur.idx_ = 0;
  }
  return cur;
}

size_t BTree::Height() const {
  size_t h = 1;
  const Node* cur = root_.get();
  while (!cur->leaf) {
    ++h;
    cur = cur->children.front().get();
  }
  return h;
}

void BTree::CheckNode(const Node* node, const Entry* lo, const Entry* hi,
                      size_t depth, size_t* leaf_depth,
                      std::vector<const Node*>* leaves) const {
  const bool is_root = node == root_.get();
  for (size_t i = 0; i + 1 < node->entries.size(); ++i) {
    Check(EntryLess(node->entries[i], node->entries[i + 1]),
          "entries out of order");
  }
  for (const Entry& e : node->entries) {
    if (lo != nullptr) Check(!EntryLess(e, *lo), "entry below lower bound");
    if (hi != nullptr) Check(EntryLess(e, *hi), "entry at/above upper bound");
  }
  if (node->leaf) {
    Check(node->children.empty(), "leaf with children");
    if (!is_root) {
      Check(node->entries.size() >= kMinLeafEntries, "leaf under-occupied");
    }
    Check(node->entries.size() <= kMaxEntries, "leaf over-occupied");
    if (*leaf_depth == 0) {
      *leaf_depth = depth;
    } else {
      Check(*leaf_depth == depth, "leaves at different depths");
    }
    leaves->push_back(node);
    return;
  }
  Check(node->children.size() == node->entries.size() + 1,
        "internal fanout mismatch");
  if (is_root) {
    Check(node->children.size() >= 2, "internal root with < 2 children");
  } else {
    Check(node->entries.size() >= kMinInternalEntries,
          "internal node under-occupied");
  }
  Check(node->entries.size() <= kMaxEntries, "internal node over-occupied");
  for (size_t i = 0; i < node->children.size(); ++i) {
    const Entry* child_lo = i == 0 ? lo : &node->entries[i - 1];
    const Entry* child_hi = i == node->entries.size() ? hi : &node->entries[i];
    Check(node->children[i] != nullptr, "null child pointer");
    CheckNode(node->children[i].get(), child_lo, child_hi, depth + 1,
              leaf_depth, leaves);
  }
}

void BTree::CheckInvariants() const {
  Check(root_ != nullptr, "null root");
  size_t leaf_depth = 0;
  std::vector<const Node*> leaves;
  CheckNode(root_.get(), nullptr, nullptr, 1, &leaf_depth, &leaves);

  // The in-order leaf sequence must match the doubly-linked chain exactly.
  Check(!leaves.empty(), "no leaves");
  Check(leaves.front()->prev == nullptr, "first leaf has a predecessor");
  Check(leaves.back()->next == nullptr, "last leaf has a successor");
  size_t count = 0;
  for (size_t i = 0; i < leaves.size(); ++i) {
    count += leaves[i]->entries.size();
    if (i + 1 < leaves.size()) {
      Check(leaves[i]->next == leaves[i + 1], "broken leaf next-chain");
      Check(leaves[i + 1]->prev == leaves[i], "broken leaf prev-chain");
    }
  }
  Check(count == size_, "entry count mismatch");
}

}  // namespace cpdb::relstore
