#include "tree/path.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

namespace cpdb::tree {

namespace {

/// `head` and `tail` joined by '/' (no '/' when either is empty).
std::string Joined(std::string_view head, std::string_view tail) {
  std::string text;
  text.reserve(head.size() + 1 + tail.size());
  text.append(head);
  if (!head.empty() && !tail.empty()) text += '/';
  text.append(tail);
  return text;
}

/// The rendering of `p` below its prefix `ancestor`.
std::string_view Below(const Path& p, const Path& ancestor) {
  assert(ancestor.IsPrefixOf(p));
  std::string_view rest = p.ToString();
  if (!ancestor.IsRoot()) {
    // Past the ancestor's rendering and the '/' after it, if any.
    rest.remove_prefix(
        std::min(rest.size(), ancestor.ToString().size() + 1));
  }
  return rest;
}

}  // namespace

bool IsValidLabel(std::string_view label) {
  return !label.empty() && label.find('/') == std::string_view::npos;
}

Path::Path(const std::vector<std::string>& labels) {
  size_t bytes = labels.size();
  for (const auto& l : labels) bytes += l.size();
  text_.reserve(bytes);
  for (const auto& l : labels) {
    assert(IsValidLabel(l));
    if (!text_.empty()) text_ += '/';
    text_ += l;
  }
}

Result<Path> Path::Parse(std::string text) {
  if (!text.empty() && (text.front() == '/' || text.back() == '/' ||
                        text.find("//") != std::string::npos)) {
    return Status::InvalidArgument("invalid path label in '" + text + "'");
  }
  return FromText(std::move(text));
}

Path Path::MustParse(const std::string& text) {
  Result<Path> r = Parse(text);
  if (!r.ok()) {
    std::abort();
  }
  return std::move(r).value();
}

Path Path::FromText(std::string text) {
  Path p;
  p.text_ = std::move(text);
  return p;
}

size_t Path::Depth() const {
  if (IsRoot()) return 0;
  return 1 + static_cast<size_t>(std::count(text_.begin(), text_.end(), '/'));
}

std::string Path::At(size_t i) const {
  assert(i < Depth());
  size_t begin = 0;
  for (; i > 0; --i) begin = text_.find('/', begin) + 1;
  const size_t end = text_.find('/', begin);
  return text_.substr(begin, end == std::string::npos ? end : end - begin);
}

std::string Path::Leaf() const {
  assert(!IsRoot());
  return text_.substr(text_.rfind('/') + 1);  // npos + 1 == 0
}

Path Path::Parent() const {
  assert(!IsRoot());
  const size_t slash = text_.rfind('/');
  return FromText(slash == std::string::npos ? std::string()
                                             : text_.substr(0, slash));
}

Path Path::Child(std::string_view label) const {
  assert(IsValidLabel(label));
  return FromText(Joined(text_, label));
}

Path Path::Concat(const Path& suffix) const {
  return FromText(Joined(text_, suffix.text_));
}

bool Path::IsPrefixOf(const Path& other) const {
  if (IsRoot()) return true;
  const std::string& o = other.text_;
  return o.size() >= text_.size() && o.compare(0, text_.size(), text_) == 0 &&
         (o.size() == text_.size() || o[text_.size()] == '/');
}

bool Path::IsStrictPrefixOf(const Path& other) const {
  return text_.size() < other.text_.size() && IsPrefixOf(other);
}

Result<Path> Path::RelativeTo(const Path& ancestor) const {
  if (!ancestor.IsPrefixOf(*this)) {
    return Status::InvalidArgument("'" + ancestor.ToString() +
                                   "' is not a prefix of '" + ToString() +
                                   "'");
  }
  return FromText(std::string(Below(*this, ancestor)));
}

Path Path::Rebase(const Path& from, const Path& to) const {
  return FromText(Joined(to.text_, Below(*this, from)));
}

bool Path::operator<(const Path& other) const {
  const std::string& a = text_;
  const std::string& b = other.text_;
  const size_t n = std::min(a.size(), b.size());
  const size_t i = static_cast<size_t>(
      std::mismatch(a.begin(), a.begin() + n, b.begin()).first - a.begin());
  // Equal up to here, so both sides sit in the same label. One that ends
  // (the whole path, or its label at a '/') sorts first; otherwise the
  // label's bytes decide, unsigned as std::string compares them.
  if (i == n) return a.size() < b.size();
  if (a[i] == '/') return true;
  if (b[i] == '/') return false;
  return static_cast<unsigned char>(a[i]) < static_cast<unsigned char>(b[i]);
}

std::ostream& operator<<(std::ostream& os, const Path& p) {
  return os << p.ToString();
}

}  // namespace cpdb::tree
