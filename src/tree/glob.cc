#include "tree/glob.h"

#include <cstdlib>
#include <functional>

#include "util/str.h"

namespace cpdb::tree {

namespace {

/// The labels of `p`, root first.
std::vector<std::string> Labels(const Path& p) {
  if (p.IsRoot()) return {};
  return Split(p.ToString(), '/');
}

}  // namespace

Result<PathGlob> PathGlob::Parse(const std::string& text) {
  PathGlob g;
  if (text.empty()) return g;
  g.segments_ = Split(text, '/');
  for (const auto& s : g.segments_) {
    if (s.empty()) {
      return Status::InvalidArgument("empty segment in glob '" + text + "'");
    }
  }
  return g;
}

PathGlob PathGlob::MustParse(const std::string& text) {
  auto r = Parse(text);
  if (!r.ok()) std::abort();
  return std::move(r).value();
}

PathGlob PathGlob::Exact(const Path& p) {
  PathGlob g;
  g.segments_ = Labels(p);
  return g;
}

bool PathGlob::Matches(const Path& p) const {
  return GlobMatchSegments(segments_, Labels(p));
}

std::optional<std::vector<std::string>> PathGlob::Capture(
    const Path& p) const {
  // Backtracking match that records '*' bindings. '**' participates in
  // matching but contributes no captures.
  std::vector<std::string> bindings;
  const std::vector<std::string> subject = Labels(p);

  std::function<bool(size_t, size_t)> rec = [&](size_t gi,
                                                size_t si) -> bool {
    if (gi == segments_.size()) return si == subject.size();
    const std::string& seg = segments_[gi];
    if (seg == "**") {
      for (size_t skip = si; skip <= subject.size(); ++skip) {
        if (rec(gi + 1, skip)) return true;
      }
      return false;
    }
    if (si == subject.size()) return false;
    if (seg == "*") {
      bindings.push_back(subject[si]);
      if (rec(gi + 1, si + 1)) return true;
      bindings.pop_back();
      return false;
    }
    if (seg != subject[si]) return false;
    return rec(gi + 1, si + 1);
  };
  if (!rec(0, 0)) return std::nullopt;
  return bindings;
}

Result<Path> PathGlob::Substitute(
    const std::vector<std::string>& bindings) const {
  std::vector<std::string> labels;
  size_t next = 0;
  for (const std::string& seg : segments_) {
    if (seg == "**") {
      return Status::InvalidArgument("cannot substitute into '**'");
    }
    if (seg == "*") {
      if (next >= bindings.size()) {
        return Status::InvalidArgument("not enough bindings for glob '" +
                                       ToString() + "'");
      }
      labels.push_back(bindings[next++]);
    } else {
      labels.push_back(seg);
    }
  }
  if (next != bindings.size()) {
    return Status::InvalidArgument("too many bindings for glob '" +
                                   ToString() + "'");
  }
  return Path(labels);
}

size_t PathGlob::StarCount() const {
  size_t n = 0;
  for (const auto& s : segments_) {
    if (s == "*") ++n;
  }
  return n;
}

bool PathGlob::HasWildcards() const {
  for (const auto& s : segments_) {
    if (s == "*" || s == "**") return true;
  }
  return false;
}

bool PathGlob::SubsumedBy(const PathGlob& other) const {
  for (const auto& s : segments_) {
    if (s == "**") return segments_ == other.segments_;
  }
  // Without '**' on our side, we match exactly paths of length
  // segments_.size(); treat our own segments as a "subject with holes".
  // Conservative check: other must match every instantiation; with only
  // single-segment wildcards this reduces to segment-wise compatibility.
  bool other_has_deep = false;
  for (const auto& s : other.segments_) {
    if (s == "**") other_has_deep = true;
  }
  if (other_has_deep) {
    // Fall back to a conservative structural equality check.
    return segments_ == other.segments_;
  }
  if (segments_.size() != other.segments_.size()) return false;
  for (size_t i = 0; i < segments_.size(); ++i) {
    const std::string& a = segments_[i];
    const std::string& b = other.segments_[i];
    if (b == "*") continue;       // anything fits
    if (a == "*") return false;   // we are broader here
    if (a != b) return false;
  }
  return true;
}

std::string PathGlob::ToString() const { return Join(segments_, '/'); }

}  // namespace cpdb::tree
