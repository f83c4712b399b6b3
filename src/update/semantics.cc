#include "update/semantics.h"

#include <utility>

namespace cpdb::update {

namespace {

/// Collects the preorder node paths of `t`, each prefixed with `at`.
void CollectPaths(const tree::Tree& t, const tree::Path& at,
                  std::vector<tree::Path>* out) {
  t.Visit([&](const tree::Path& rel, const tree::Tree&) {
    out->push_back(at.Concat(rel));
  });
}

Status ApplyInsert(tree::Tree* universe, const Update& u,
                   ApplyEffect* effect) {
  tree::Tree* node = universe->Find(u.target);
  if (node == nullptr) {
    return Status::NotFound("insert target '" + u.target.ToString() +
                            "' does not exist");
  }
  tree::Tree payload;
  if (u.value.has_value()) payload = tree::Tree(*u.value);
  CPDB_RETURN_IF_ERROR(node->AddChild(u.label, std::move(payload)));
  if (effect != nullptr) {
    effect->inserted.push_back(u.target.Child(u.label));
  }
  return Status::OK();
}

Status ApplyDelete(tree::Tree* universe, const Update& u,
                   ApplyEffect* effect) {
  tree::Tree* node = universe->Find(u.target);
  if (node == nullptr) {
    return Status::NotFound("delete target '" + u.target.ToString() +
                            "' does not exist");
  }
  const tree::Tree* doomed = std::as_const(*node).GetChild(u.label);
  if (doomed == nullptr) {
    return Status::NotFound("edge '" + u.label + "' does not exist under '" +
                            u.target.ToString() + "'");
  }
  if (effect != nullptr) {
    CollectPaths(*doomed, u.target.Child(u.label), &effect->deleted);
  }
  return node->RemoveChild(u.label);
}

Status ApplyCopy(tree::Tree* universe, const Update& u, ApplyEffect* effect) {
  // Const lookup: a copy READS its source; privatizing the source path
  // here would defeat structural sharing.
  const tree::Tree* src = std::as_const(*universe).Find(u.source);
  if (src == nullptr) {
    return Status::NotFound("copy source '" + u.source.ToString() +
                            "' does not exist");
  }
  if (u.target.IsRoot()) {
    return Status::InvalidArgument("cannot copy into the universe root");
  }
  // Note: Find() the parent *before* cloning, so failure leaves no work.
  tree::Tree* parent = universe->Find(u.target.Parent());
  if (parent == nullptr) {
    return Status::NotFound("copy destination parent '" +
                            u.target.Parent().ToString() +
                            "' does not exist");
  }
  if (parent->HasValue()) {
    return Status::InvalidArgument("copy destination parent '" +
                                   u.target.Parent().ToString() +
                                   "' is a leaf");
  }
  // Self-affecting copies (e.g. copy T/a into T/a/b) must clone first;
  // we always clone, matching the deep-copy semantics of t[p := t.q].
  tree::Tree clone = src->Clone();
  const tree::Tree* previous = std::as_const(*parent).GetChild(u.target.Leaf());
  bool overwrote = previous != nullptr;
  if (effect != nullptr) {
    effect->overwrote = overwrote;
    if (previous != nullptr) {
      CollectPaths(*previous, u.target, &effect->overwritten);
    }
    clone.Visit([&](const tree::Path& rel, const tree::Tree&) {
      effect->copied.emplace_back(u.target.Concat(rel),
                                  u.source.Concat(rel));
    });
  }
  parent->PutChild(u.target.Leaf(), std::move(clone));
  return Status::OK();
}

}  // namespace

Status Apply(tree::Tree* universe, const Update& u, ApplyEffect* effect) {
  switch (u.kind) {
    case OpKind::kInsert:
      return ApplyInsert(universe, u, effect);
    case OpKind::kDelete:
      return ApplyDelete(universe, u, effect);
    case OpKind::kCopy:
      return ApplyCopy(universe, u, effect);
  }
  return Status::Internal("unknown update kind");
}

Status ApplySequence(tree::Tree* universe, const Script& script,
                     size_t* failed_at) {
  for (size_t i = 0; i < script.size(); ++i) {
    Status st = Apply(universe, script[i]);
    if (!st.ok()) {
      if (failed_at != nullptr) *failed_at = i;
      return st;
    }
  }
  if (failed_at != nullptr) *failed_at = script.size();
  return Status::OK();
}

Status UndoLog::ApplyTracked(tree::Tree* universe, const Update& u,
                             ApplyEffect* effect) {
  Entry e;
  e.kind = u.kind;
  e.target = u.target;
  e.label = u.label;

  // Capture pre-state needed by the inverse before mutating.
  if (u.kind == OpKind::kDelete) {
    const tree::Tree* node = std::as_const(*universe).Find(u.target);
    const tree::Tree* doomed =
        node == nullptr ? nullptr : node->GetChild(u.label);
    if (doomed != nullptr) e.saved = doomed->Clone();
  } else if (u.kind == OpKind::kCopy) {
    const tree::Tree* old = std::as_const(*universe).Find(u.target);
    if (old != nullptr) {
      e.had_previous = true;
      e.saved = old->Clone();
    }
    e.label = u.target.IsRoot() ? std::string() : u.target.Leaf();
  }

  CPDB_RETURN_IF_ERROR(Apply(universe, u, effect));
  entries_.push_back(std::move(e));
  return Status::OK();
}

Status UndoLog::RevertAll(tree::Tree* universe) {
  while (!entries_.empty()) {
    Entry e = std::move(entries_.back());
    entries_.pop_back();
    switch (e.kind) {
      case OpKind::kInsert: {
        CPDB_RETURN_IF_ERROR(universe->DeleteAt(e.target, e.label));
        break;
      }
      case OpKind::kDelete: {
        if (!e.saved.has_value()) {
          return Status::Internal("undo log entry missing saved subtree");
        }
        CPDB_RETURN_IF_ERROR(
            universe->InsertAt(e.target, e.label, std::move(*e.saved)));
        break;
      }
      case OpKind::kCopy: {
        if (e.had_previous) {
          CPDB_RETURN_IF_ERROR(
              universe->ReplaceAt(e.target, std::move(*e.saved)));
        } else {
          CPDB_RETURN_IF_ERROR(
              universe->DeleteAt(e.target.Parent(), e.label));
        }
        break;
      }
    }
  }
  return Status::OK();
}

}  // namespace cpdb::update
