#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace cpdb::tree {

/// A path p in Sigma* addressing a unique node of an edge-labeled tree
/// (paper Section 2), e.g. "T/c1/y".
///
/// A path is stored as its rendering: its labels joined by '/', "" for
/// the root. That is the form the Prov table, the wire and the update
/// language carry, so ToString() hands it out without work, Parse keeps
/// the text it checked, and building a path (Child, Concat, Parent,
/// RelativeTo, Rebase) makes one string. Access by label index (Depth,
/// At, Leaf) scans the rendering, so it is O(depth).
///
/// Labels may not be empty and may not contain '/'. A '/' inside a label
/// would silently split it and change the path's depth, so labels are
/// checked where they enter from outside: Parse, Tree::AddChild and
/// Tree::FromChildren refuse them; the label-taking members here assert.
///
/// Paths are ordered by their label sequence, not by their rendering:
/// labels compare byte by byte (bytes unsigned), and a label or path that
/// ends sorts before any byte that continues the other. So "T/c1/x" sorts
/// before "T/c1-x" although '-' sorts before '/' in the rendering. This
/// order keeps a subtree contiguous in sorted containers (used by the
/// provenance store's ancestor scans).
class Path {
 public:
  /// The root (empty) path.
  Path() = default;

  /// Builds a path from explicit labels. Precondition: labels are valid.
  explicit Path(const std::vector<std::string>& labels);

  /// Parses "a/b/c". Empty string yields the root path. Fails on empty
  /// labels (e.g. "a//b") or leading/trailing slashes.
  static Result<Path> Parse(std::string text);

  /// Parses, aborting on error. Only for use with trusted literals in
  /// tests/examples.
  static Path MustParse(const std::string& text);

  bool IsRoot() const { return text_.empty(); }
  /// Number of labels; O(depth).
  size_t Depth() const;
  /// Label `i`, counted from the root. Precondition: i < Depth().
  std::string At(size_t i) const;

  /// Final label. Precondition: !IsRoot().
  std::string Leaf() const;

  /// Path with the final label removed. Precondition: !IsRoot().
  Path Parent() const;

  /// This path extended by one label. Precondition: the label is valid.
  Path Child(std::string_view label) const;

  /// This path followed by all labels of `suffix`.
  Path Concat(const Path& suffix) const;

  /// True if this path is a (non-strict) prefix of `other` — the "p <= q"
  /// relation in the paper's Mod query.
  bool IsPrefixOf(const Path& other) const;

  /// True if this is a strict (proper) prefix of `other`.
  bool IsStrictPrefixOf(const Path& other) const;

  /// If this is a prefix of `other`, returns the remainder such that
  /// this->Concat(remainder) == other.
  Result<Path> RelativeTo(const Path& ancestor) const;

  /// Replaces the prefix `from` with `to`. Precondition established by
  /// caller: `from` is a prefix of this path. Used by hierarchical
  /// provenance inference: if p was copied from q, then p/a came from q/a.
  Path Rebase(const Path& from, const Path& to) const;

  /// Slash-joined rendering; "" for the root.
  const std::string& ToString() const { return text_; }

  bool operator==(const Path& other) const { return text_ == other.text_; }
  bool operator!=(const Path& other) const { return !(*this == other); }
  /// Label-sequence order (see the class comment).
  bool operator<(const Path& other) const;

 private:
  /// A path whose rendering is `text`, which the caller has checked.
  static Path FromText(std::string text);

  std::string text_;
};

std::ostream& operator<<(std::ostream& os, const Path& p);

/// Validates a single edge label: non-empty and without '/'.
bool IsValidLabel(std::string_view label);

}  // namespace cpdb::tree
