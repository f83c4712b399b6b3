#pragma once

#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "tree/path.h"
#include "tree/value.h"

namespace cpdb::update {

/// The three atomic update operations of the paper's update language
/// (Section 2):
///
///   u ::= ins {a : v} into p | del a from p | copy q into p
enum class OpKind {
  kInsert,
  kDelete,
  kCopy,
};

/// One atomic update.
///
/// All paths are *absolute* within a universe tree whose top-level edges
/// are the databases involved, e.g. {S1: ..., S2: ..., T: ...}. This makes
/// the cross-database copy of the paper ("copy S1/a1/y into T/c1/y") a
/// plain tree operation, exactly as written in Figure 3.
///
/// For an insert, the payload v is "either the empty tree or a data value"
/// (Section 2); `value == std::nullopt` encodes the empty tree {}.
struct Update {
  OpKind kind = OpKind::kInsert;

  /// ins/del: the node under which the edge lives (the p in
  /// "ins {a:v} into p" / "del a from p"). copy: the destination path.
  tree::Path target;

  /// ins/del: the edge label a.
  std::string label;

  /// ins only: leaf payload; std::nullopt means the empty tree {}.
  std::optional<tree::Value> value;

  /// copy only: the source path q.
  tree::Path source;

  static Update Insert(tree::Path p, std::string a,
                       std::optional<tree::Value> v = std::nullopt);
  static Update Delete(tree::Path p, std::string a);
  static Update Copy(tree::Path q, tree::Path p);

  /// The path of the node this update creates, removes, or overwrites:
  /// target/label for ins/del, target for copy.
  tree::Path AffectedPath() const;

  /// Rendering in the paper's concrete syntax, e.g.
  /// `insert {c2 : {}} into T`, `delete c5 from T`,
  /// `copy S1/a1/y into T/c1/y`.
  std::string ToString() const;

  bool operator==(const Update& other) const;
};

std::ostream& operator<<(std::ostream& os, const Update& u);

/// A sequence U = u1; ...; un of atomic updates.
using Script = std::vector<Update>;

/// Renders a script one operation per line, numbered like the paper's
/// Figure 3: `(1) delete c5 from T;`.
std::string ScriptToString(const Script& script);

}  // namespace cpdb::update
