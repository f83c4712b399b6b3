#include "tree/tree.h"

#include <algorithm>
#include <sstream>

namespace cpdb::tree {

namespace {

/// First child whose label is not below `label`: where `label` is, or
/// where it would be inserted.
template <typename It>
It LowerBound(It first, It last, std::string_view label) {
  return std::lower_bound(first, last, label,
                          [](const Tree::Child& c, std::string_view l) {
                            return std::string_view(c.first) < l;
                          });
}

/// The child labelled `label`, or `children.end()`.
template <typename Vec>
auto FindChild(Vec& children, std::string_view label) {
  auto it = LowerBound(children.begin(), children.end(), label);
  return it != children.end() && it->first == label ? it : children.end();
}

/// Cuts the first label off `rest`, a non-empty path rendering, together
/// with the '/' after it, and returns it.
std::string_view NextLabel(std::string_view* rest) {
  const size_t slash = rest->find('/');
  std::string_view label = rest->substr(0, slash);
  rest->remove_prefix(slash == std::string_view::npos ? rest->size()
                                                      : slash + 1);
  return label;
}

Status DuplicateEdge(const std::string& label) {
  return Status::AlreadyExists("edge '" + label + "' already exists");
}

Status InvalidLabel(const std::string& label) {
  return Status::InvalidArgument("invalid edge label '" + label + "'");
}

}  // namespace

Result<Tree> Tree::FromChildren(
    std::vector<std::pair<std::string, Tree>> children) {
  Tree out;
  out.children_.reserve(children.size());
  for (auto& [label, subtree] : children) {
    if (!IsValidLabel(label)) return InvalidLabel(label);
    out.children_.emplace_back(std::move(label),
                               std::make_shared<Tree>(std::move(subtree)));
  }
  std::sort(out.children_.begin(), out.children_.end(),
            [](const Child& a, const Child& b) { return a.first < b.first; });
  auto dup = std::adjacent_find(
      out.children_.begin(), out.children_.end(),
      [](const Child& a, const Child& b) { return a.first == b.first; });
  if (dup != out.children_.end()) return DuplicateEdge(dup->first);
  return out;
}

Tree Tree::Clone() const {
  // Structural sharing: the clone references the same child nodes; either
  // side privatizes on its first mutation (MutableChild). Copying the
  // children array is O(fanout) of this node only — no recursion.
  Tree out;
  out.value_ = value_;
  out.children_ = children_;
  return out;
}

Tree* Tree::MutableChild(std::string_view label) {
  auto it = FindChild(children_, label);
  if (it == children_.end()) return nullptr;
  if (it->second.use_count() > 1) {
    // Shared with another clone: replace with a private shallow copy. The
    // copy shares ITS children, so the privatization cost stays O(fanout)
    // per step of the descent.
    it->second = std::make_shared<Tree>(it->second->Clone());
  }
  return it->second.get();
}

Status Tree::SetValue(Value v) {
  if (!children_.empty()) {
    return Status::InvalidArgument(
        "cannot set a value on a node with children");
  }
  value_ = std::move(v);
  return Status::OK();
}

const Tree* Tree::GetChild(std::string_view label) const {
  auto it = FindChild(children_, label);
  return it == children_.end() ? nullptr : it->second.get();
}

Tree* Tree::GetChild(std::string_view label) { return MutableChild(label); }

Status Tree::AddChild(const std::string& label, Tree subtree) {
  if (!IsValidLabel(label)) return InvalidLabel(label);
  if (value_.has_value()) {
    return Status::InvalidArgument(
        "cannot add child '" + label + "' to a leaf carrying a value");
  }
  auto it = LowerBound(children_.begin(), children_.end(), label);
  if (it != children_.end() && it->first == label) return DuplicateEdge(label);
  children_.emplace(it, label, std::make_shared<Tree>(std::move(subtree)));
  return Status::OK();
}

Status Tree::RemoveChild(const std::string& label) {
  auto it = FindChild(children_, label);
  if (it == children_.end()) {
    return Status::NotFound("edge '" + label + "' does not exist");
  }
  children_.erase(it);
  return Status::OK();
}

Result<Tree> Tree::TakeChild(const std::string& label) {
  auto it = FindChild(children_, label);
  if (it == children_.end()) {
    return Status::NotFound("edge '" + label + "' does not exist");
  }
  // Moving out of a node another clone can still see would gut it; take a
  // structural copy instead (O(fanout)).
  Tree out = it->second.use_count() > 1 ? it->second->Clone()
                                        : std::move(*it->second);
  children_.erase(it);
  return out;
}

void Tree::PutChild(const std::string& label, Tree subtree) {
  auto node = std::make_shared<Tree>(std::move(subtree));
  auto it = LowerBound(children_.begin(), children_.end(), label);
  if (it != children_.end() && it->first == label) {
    it->second = std::move(node);
  } else {
    children_.emplace(it, label, std::move(node));
  }
  value_.reset();
}

const Tree* Tree::Find(const Path& p) const {
  const Tree* cur = this;
  for (std::string_view rest = p.ToString(); cur != nullptr && !rest.empty();) {
    cur = cur->GetChild(NextLabel(&rest));
  }
  return cur;
}

Tree* Tree::Find(const Path& p) {
  // Copy-on-write descent: every shared node on the path is privatized so
  // the caller may mutate the result without other clones observing it.
  Tree* cur = this;
  for (std::string_view rest = p.ToString(); cur != nullptr && !rest.empty();) {
    cur = cur->MutableChild(NextLabel(&rest));
  }
  return cur;
}

bool Tree::SharesAllChildrenWith(const Tree& other) const {
  // Pairs compare label by label and shared_ptr by address.
  return this == &other || children_ == other.children_;
}

Status Tree::ReplaceAt(const Path& p, Tree subtree) {
  if (p.IsRoot()) {
    *this = std::move(subtree);
    return Status::OK();
  }
  Tree* parent = Find(p.Parent());
  if (parent == nullptr) {
    return Status::NotFound("path '" + p.Parent().ToString() +
                            "' does not exist");
  }
  if (parent->HasValue()) {
    return Status::InvalidArgument("cannot create edge under leaf '" +
                                   p.Parent().ToString() + "'");
  }
  parent->PutChild(p.Leaf(), std::move(subtree));
  return Status::OK();
}

Status Tree::InsertAt(const Path& p, const std::string& label, Tree subtree) {
  Tree* node = Find(p);
  if (node == nullptr) {
    return Status::NotFound("path '" + p.ToString() + "' does not exist");
  }
  return node->AddChild(label, std::move(subtree));
}

Status Tree::DeleteAt(const Path& p, const std::string& label) {
  Tree* node = Find(p);
  if (node == nullptr) {
    return Status::NotFound("path '" + p.ToString() + "' does not exist");
  }
  return node->RemoveChild(label);
}

size_t Tree::DescendantCount() const {
  size_t n = 0;
  for (const auto& [label, child] : children_) {
    (void)label;
    n += 1 + child->DescendantCount();
  }
  return n;
}

size_t Tree::ByteSize() const {
  size_t n = sizeof(Tree);
  if (value_.has_value()) n += value_->ByteSize();
  for (const auto& [label, child] : children_) {
    n += label.size() + child->ByteSize();
  }
  return n;
}

bool Tree::Equals(const Tree& other) const {
  if (value_.has_value() != other.value_.has_value()) return false;
  if (value_.has_value() && !(*value_ == *other.value_)) return false;
  if (children_.size() != other.children_.size()) return false;
  auto it = children_.begin();
  auto jt = other.children_.begin();
  for (; it != children_.end(); ++it, ++jt) {
    if (it->first != jt->first) return false;
    // Shared node => identical subtree, no need to recurse. This makes
    // snapshot-vs-snapshot comparison proportional to the diverged part.
    if (it->second == jt->second) continue;
    if (!it->second->Equals(*jt->second)) return false;
  }
  return true;
}

void Tree::Visit(
    const std::function<void(const Path&, const Tree&)>& fn) const {
  struct Walker {
    const std::function<void(const Path&, const Tree&)>& fn;
    void Walk(const Path& p, const Tree& t) {
      fn(p, t);
      for (const auto& [label, child] : t.children()) {
        Walk(p.Child(label), *child);
      }
    }
  };
  Walker w{fn};
  w.Walk(Path(), *this);
}

std::string Tree::ToString() const {
  if (value_.has_value()) {
    if (value_->is_string()) return "\"" + value_->AsString() + "\"";
    return value_->ToString();
  }
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [label, child] : children_) {
    if (!first) os << ", ";
    first = false;
    os << label << ": " << child->ToString();
  }
  os << "}";
  return os.str();
}

}  // namespace cpdb::tree
