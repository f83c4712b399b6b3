#include "tree/xml.h"

#include <cctype>
#include <map>
#include <sstream>

namespace cpdb::tree {

std::string XmlEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

namespace {

std::string XmlUnescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size();) {
    if (s[i] == '&') {
      if (s.compare(i, 5, "&amp;") == 0) {
        out += '&';
        i += 5;
        continue;
      }
      if (s.compare(i, 4, "&lt;") == 0) {
        out += '<';
        i += 4;
        continue;
      }
      if (s.compare(i, 4, "&gt;") == 0) {
        out += '>';
        i += 4;
        continue;
      }
      if (s.compare(i, 6, "&quot;") == 0) {
        out += '"';
        i += 6;
        continue;
      }
    }
    out += s[i++];
  }
  return out;
}

void ToXmlRec(const Tree& t, const std::string& tag, int indent,
              std::ostringstream* os) {
  for (int i = 0; i < indent; ++i) *os << "  ";
  *os << "<" << tag << ">";
  if (t.HasChildren()) {
    *os << "\n";
    for (const auto& [label, child] : t.children()) {
      ToXmlRec(*child, label, indent + 1, os);
    }
    for (int i = 0; i < indent; ++i) *os << "  ";
  } else if (t.HasValue()) {
    *os << XmlEscape(t.value().ToString());
  }
  *os << "</" << tag << ">\n";
}

/// Minimal recursive-descent XML parser (elements + text only).
class XmlParser {
 public:
  explicit XmlParser(const std::string& text) : text_(text) {}

  Result<Tree> Parse() {
    SkipSpaceAndProlog();
    std::string tag;
    auto t = ParseElement(&tag);
    if (!t.ok()) return t;
    SkipSpaceAndProlog();
    if (pos_ != text_.size()) return Err("trailing content");
    // The root element's tag is discarded; its content becomes the tree.
    return t;
  }

 private:
  Status Err(const std::string& msg) const {
    return Status::InvalidArgument("xml parse error at offset " +
                                   std::to_string(pos_) + ": " + msg);
  }

  void SkipSpaceAndProlog() {
    for (;;) {
      while (pos_ < text_.size() &&
             std::isspace(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      if (text_.compare(pos_, 2, "<?") == 0) {
        size_t end = text_.find("?>", pos_);
        pos_ = (end == std::string::npos) ? text_.size() : end + 2;
        continue;
      }
      if (text_.compare(pos_, 4, "<!--") == 0) {
        size_t end = text_.find("-->", pos_);
        pos_ = (end == std::string::npos) ? text_.size() : end + 3;
        continue;
      }
      break;
    }
  }

  Result<Tree> ParseElement(std::string* tag_out) {
    if (pos_ >= text_.size() || text_[pos_] != '<') return Err("expected '<'");
    ++pos_;
    std::string tag = ParseName();
    if (tag.empty()) return Err("expected tag name");
    // Skip attributes (ignored by the tree model).
    while (pos_ < text_.size() && text_[pos_] != '>' && text_[pos_] != '/') {
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '/') {
      ++pos_;
      if (pos_ >= text_.size() || text_[pos_] != '>') return Err("bad />");
      ++pos_;
      *tag_out = tag;
      return Tree();  // self-closing element = empty tree
    }
    if (pos_ >= text_.size()) return Err("unterminated tag");
    ++pos_;  // consume '>'

    std::vector<std::pair<std::string, Tree>> children;
    std::string text_content;
    std::map<std::string, int> tag_counts;
    for (;;) {
      if (pos_ >= text_.size()) return Err("unexpected end of input");
      if (text_.compare(pos_, 2, "</") == 0) {
        pos_ += 2;
        std::string close = ParseName();
        if (close != tag) return Err("mismatched close tag '" + close + "'");
        if (pos_ >= text_.size() || text_[pos_] != '>') {
          return Err("expected '>'");
        }
        ++pos_;
        break;
      }
      if (text_[pos_] == '<') {
        if (text_.compare(pos_, 4, "<!--") == 0) {
          size_t end = text_.find("-->", pos_);
          if (end == std::string::npos) return Err("unterminated comment");
          pos_ = end + 3;
          continue;
        }
        std::string child_tag;
        auto child = ParseElement(&child_tag);
        if (!child.ok()) return child;
        int n = ++tag_counts[child_tag];
        std::string label =
            n == 1 ? child_tag : child_tag + "{" + std::to_string(n) + "}";
        children.emplace_back(std::move(label), std::move(child).value());
      } else {
        size_t start = pos_;
        while (pos_ < text_.size() && text_[pos_] != '<') ++pos_;
        text_content += text_.substr(start, pos_ - start);
      }
    }

    *tag_out = tag;
    // Text beside child elements is dropped: values live only at leaves.
    if (!children.empty()) return Tree::FromChildren(std::move(children));
    size_t b = text_content.find_first_not_of(" \t\r\n");
    if (b == std::string::npos) return Tree();
    size_t e = text_content.find_last_not_of(" \t\r\n");
    return Tree(
        Value::FromString(XmlUnescape(text_content.substr(b, e - b + 1))));
  }

  std::string ParseName() {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_' || text_[pos_] == '-' || text_[pos_] == '.' ||
            text_[pos_] == '{' || text_[pos_] == '}')) {
      ++pos_;
    }
    return text_.substr(start, pos_ - start);
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

std::string ToXml(const Tree& t, const std::string& root_tag) {
  std::ostringstream os;
  ToXmlRec(t, root_tag, 0, &os);
  return os.str();
}

Result<Tree> FromXml(const std::string& xml) { return XmlParser(xml).Parse(); }

}  // namespace cpdb::tree
