#include "tree/diff.h"

namespace cpdb::tree {

namespace {

std::string LeafValueOf(const Tree& t) {
  return t.HasValue() ? t.value().ToString() : std::string();
}

void AddAll(const Tree& t, const Path& at, DiffEntry::Kind kind,
            std::vector<DiffEntry>* out) {
  t.Visit([&](const Path& rel, const Tree& node) {
    DiffEntry e;
    e.kind = kind;
    e.path = at.Concat(rel);
    if (kind == DiffEntry::Kind::kAdded) {
      e.new_value = LeafValueOf(node);
    } else {
      e.old_value = LeafValueOf(node);
    }
    out->push_back(std::move(e));
  });
}

void DiffRec(const Tree& before, const Tree& after, const Path& at,
             std::vector<DiffEntry>* out) {
  // Leaf value comparison.
  bool bv = before.HasValue(), av = after.HasValue();
  if ((bv || av) &&
      (bv != av || !(before.value() == after.value()))) {
    DiffEntry e;
    e.kind = DiffEntry::Kind::kValueChanged;
    e.path = at;
    e.old_value = LeafValueOf(before);
    e.new_value = LeafValueOf(after);
    out->push_back(std::move(e));
  }

  // Merge-walk the two label-sorted child vectors.
  auto bi = before.children().begin();
  auto ai = after.children().begin();
  while (bi != before.children().end() || ai != after.children().end()) {
    if (ai == after.children().end() ||
        (bi != before.children().end() && bi->first < ai->first)) {
      AddAll(*bi->second, at.Child(bi->first), DiffEntry::Kind::kRemoved, out);
      ++bi;
    } else if (bi == before.children().end() || ai->first < bi->first) {
      AddAll(*ai->second, at.Child(ai->first), DiffEntry::Kind::kAdded, out);
      ++ai;
    } else {
      DiffRec(*bi->second, *ai->second, at.Child(bi->first), out);
      ++bi;
      ++ai;
    }
  }
}

}  // namespace

std::ostream& operator<<(std::ostream& os, const DiffEntry& e) {
  switch (e.kind) {
    case DiffEntry::Kind::kAdded:
      os << "+ " << e.path;
      if (!e.new_value.empty()) os << " = " << e.new_value;
      break;
    case DiffEntry::Kind::kRemoved:
      os << "- " << e.path;
      if (!e.old_value.empty()) os << " = " << e.old_value;
      break;
    case DiffEntry::Kind::kValueChanged:
      os << "~ " << e.path << " : " << e.old_value << " -> " << e.new_value;
      break;
  }
  return os;
}

std::vector<DiffEntry> DiffTrees(const Tree& before, const Tree& after) {
  std::vector<DiffEntry> out;
  DiffRec(before, after, Path(), &out);
  return out;
}

DiffStats SummarizeDiff(const std::vector<DiffEntry>& diff) {
  DiffStats s;
  for (const auto& e : diff) {
    switch (e.kind) {
      case DiffEntry::Kind::kAdded:
        ++s.added;
        break;
      case DiffEntry::Kind::kRemoved:
        ++s.removed;
        break;
      case DiffEntry::Kind::kValueChanged:
        ++s.changed;
        break;
    }
  }
  return s;
}

}  // namespace cpdb::tree
