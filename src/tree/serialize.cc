#include "tree/serialize.h"

#include <cctype>
#include <sstream>

#include "util/str.h"

namespace cpdb::tree {

namespace {

/// Recursive-descent parser for the tree literal syntax.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<Tree> Parse() {
    SkipSpace();
    auto t = ParseTreeNode();
    if (!t.ok()) return t;
    SkipSpace();
    if (pos_ != text_.size()) {
      return Err("trailing characters");
    }
    return t;
  }

 private:
  Status Err(const std::string& msg) const {
    return Status::InvalidArgument("tree parse error at offset " +
                                   std::to_string(pos_) + ": " + msg);
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Peek(char c) const { return pos_ < text_.size() && text_[pos_] == c; }

  bool Consume(char c) {
    if (Peek(c)) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<Tree> ParseTreeNode() {
    SkipSpace();
    if (Consume('{')) {
      SkipSpace();
      if (Consume('}')) return Tree();
      std::vector<std::pair<std::string, Tree>> children;
      for (;;) {
        SkipSpace();
        auto label = ParseToken();
        if (!label.ok()) return label.status();
        SkipSpace();
        if (!Consume(':')) return Err("expected ':' after label");
        auto child = ParseTreeNode();
        if (!child.ok()) return child;
        children.emplace_back(std::move(label).value(),
                              std::move(child).value());
        SkipSpace();
        if (Consume('}')) break;
        if (!Consume(',')) return Err("expected ',' or '}'");
      }
      return Tree::FromChildren(std::move(children));
    }
    if (Peek('"')) {
      auto s = ParseQuoted();
      if (!s.ok()) return s.status();
      return Tree(Value(s.value()));
    }
    auto tok = ParseToken();
    if (!tok.ok()) return tok.status();
    return Tree(Value::FromString(tok.value()));
  }

  Result<std::string> ParseQuoted() {
    if (!Consume('"')) return Err("expected '\"'");
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) ++pos_;
      out.push_back(text_[pos_++]);
    }
    if (!Consume('"')) return Err("unterminated string");
    return out;
  }

  Result<std::string> ParseToken() {
    size_t start = pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == ':' || c == ',' || c == '{' || c == '}' ||
          std::isspace(static_cast<unsigned char>(c))) {
        break;
      }
      ++pos_;
    }
    if (pos_ == start) return Err("expected token");
    return text_.substr(start, pos_ - start);
  }

  const std::string& text_;
  size_t pos_ = 0;
};

void PrettyRec(const Tree& t, const std::string& label, int indent,
               std::ostringstream* os) {
  for (int i = 0; i < indent; ++i) *os << "  ";
  if (!t.HasChildren()) {
    if (t.HasValue()) {
      *os << label << " = " << t.value().ToString() << "\n";
    } else {
      *os << label << " = {}\n";
    }
    return;
  }
  *os << label << "\n";
  for (const auto& [l, child] : t.children()) {
    PrettyRec(*child, l, indent + 1, os);
  }
}

}  // namespace

Result<Tree> ParseTree(const std::string& text) {
  return Parser(text).Parse();
}

std::string ToPretty(const Tree& t) {
  std::ostringstream os;
  for (const auto& [label, child] : t.children()) {
    PrettyRec(*child, label, 0, &os);
  }
  if (t.HasValue()) os << "= " << t.value().ToString() << "\n";
  return os.str();
}

}  // namespace cpdb::tree
