#include "update/update.h"

#include <sstream>

namespace cpdb::update {

Update Update::Insert(tree::Path p, std::string a,
                      std::optional<tree::Value> v) {
  Update u;
  u.kind = OpKind::kInsert;
  u.target = std::move(p);
  u.label = std::move(a);
  u.value = std::move(v);
  return u;
}

Update Update::Delete(tree::Path p, std::string a) {
  Update u;
  u.kind = OpKind::kDelete;
  u.target = std::move(p);
  u.label = std::move(a);
  return u;
}

Update Update::Copy(tree::Path q, tree::Path p) {
  Update u;
  u.kind = OpKind::kCopy;
  u.source = std::move(q);
  u.target = std::move(p);
  return u;
}

tree::Path Update::AffectedPath() const {
  if (kind == OpKind::kCopy) return target;
  return target.Child(label);
}

std::string Update::ToString() const {
  std::ostringstream os;
  switch (kind) {
    case OpKind::kInsert: {
      os << "insert {" << label << " : ";
      if (value.has_value()) {
        if (value->is_string()) {
          os << '"' << value->AsString() << '"';
        } else {
          os << value->ToString();
        }
      } else {
        os << "{}";
      }
      os << "} into " << target;
      break;
    }
    case OpKind::kDelete:
      os << "delete " << label << " from " << target;
      break;
    case OpKind::kCopy:
      os << "copy " << source << " into " << target;
      break;
  }
  return os.str();
}

bool Update::operator==(const Update& other) const {
  return kind == other.kind && target == other.target &&
         label == other.label && value == other.value &&
         source == other.source;
}

std::ostream& operator<<(std::ostream& os, const Update& u) {
  return os << u.ToString();
}

std::string ScriptToString(const Script& script) {
  std::ostringstream os;
  for (size_t i = 0; i < script.size(); ++i) {
    os << "(" << (i + 1) << ") " << script[i].ToString() << ";\n";
  }
  return os.str();
}

}  // namespace cpdb::update
