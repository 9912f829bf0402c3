#include "doc/html/html.h"

#include <cctype>
#include <set>

#include "doc/xml/reader.h"
#include "util/file.h"
#include "util/strings.h"

namespace slim::doc::html {

namespace {

const std::set<std::string>& VoidElements() {
  static const std::set<std::string> kVoid = {
      "area", "base", "br", "col", "embed", "hr", "img",
      "input", "link", "meta", "param", "source", "track", "wbr"};
  return kVoid;
}

// Elements whose open instance is implicitly closed when the same (or a
// sibling-kind) tag opens.
bool ImplicitlyCloses(const std::string& open, const std::string& incoming) {
  auto any = [&](std::initializer_list<const char*> names) {
    for (const char* n : names) {
      if (incoming == n) return true;
    }
    return false;
  };
  if (open == "p") {
    return any({"p", "div", "ul", "ol", "li", "table", "h1", "h2", "h3", "h4",
                "h5", "h6", "blockquote", "pre", "section", "article"});
  }
  if (open == "li") return any({"li"});
  if (open == "dt" || open == "dd") return any({"dt", "dd"});
  if (open == "tr") return any({"tr"});
  if (open == "td" || open == "th") return any({"td", "th", "tr"});
  if (open == "option") return any({"option", "optgroup"});
  if (open == "thead" || open == "tbody" || open == "tfoot") {
    return any({"thead", "tbody", "tfoot"});
  }
  return false;
}

void DecodeEntitiesInto(std::string_view raw, std::string* out) {
  for (size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] != '&') {
      out->push_back(raw[i]);
      continue;
    }
    size_t semi = raw.find(';', i);
    // Tolerant: a '&' without a nearby ';' is literal text.
    if (semi == std::string_view::npos || semi - i > 10) {
      out->push_back('&');
      continue;
    }
    std::string_view ent = raw.substr(i + 1, semi - i - 1);
    if (ent == "lt") *out += '<';
    else if (ent == "gt") *out += '>';
    else if (ent == "amp") *out += '&';
    else if (ent == "quot") *out += '"';
    else if (ent == "apos") *out += '\'';
    else if (ent == "nbsp") *out += ' ';
    else if (!ent.empty() && ent[0] == '#') {
      uint32_t cp = 0;
      bool ok = true;
      if (ent.size() > 1 && (ent[1] == 'x' || ent[1] == 'X')) {
        for (size_t k = 2; k < ent.size() && ok; ++k) {
          char c = ent[k];
          if (std::isxdigit(static_cast<unsigned char>(c))) {
            cp = cp * 16 + static_cast<uint32_t>(
                               std::isdigit(static_cast<unsigned char>(c))
                                   ? c - '0'
                                   : std::tolower(c) - 'a' + 10);
          } else {
            ok = false;
          }
        }
        ok = ok && ent.size() > 2;
      } else {
        for (size_t k = 1; k < ent.size() && ok; ++k) {
          if (std::isdigit(static_cast<unsigned char>(ent[k]))) {
            cp = cp * 10 + static_cast<uint32_t>(ent[k] - '0');
          } else {
            ok = false;
          }
        }
        ok = ok && ent.size() > 1;
      }
      if (ok && cp > 0 && cp <= 0x10FFFF) {
        if (cp < 0x80) {
          out->push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
          out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
          out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else if (cp < 0x10000) {
          out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
          out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
          out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else {
          out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
          out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
          out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
          out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        }
        i = semi;
        continue;
      }
      out->push_back('&');
      continue;
    } else {
      // Unknown entity: keep it literally.
      out->push_back('&');
      continue;
    }
    i = semi;
  }
}

class HtmlParser {
 public:
  explicit HtmlParser(std::string_view src) : src_(src) {}

  std::unique_ptr<xml::Document> Run() {
    auto doc = std::make_unique<xml::Document>();
    auto root = std::make_unique<xml::Element>("html");
    root_ = root.get();
    stack_.push_back(root_);
    Parse();
    doc->set_root(std::move(root));
    return doc;
  }

 private:
  xml::Element* Top() { return stack_.back(); }

  void FlushText() {
    if (pending_text_.empty()) return;
    std::string decoded;
    DecodeEntitiesInto(pending_text_, &decoded);
    // Collapse pure-whitespace runs outside <pre>.
    if (!Trim(decoded).empty()) {
      Top()->AddText(std::move(decoded));
    }
    pending_text_.clear();
  }

  void Parse() {
    while (i_ < src_.size()) {
      char c = src_[i_];
      if (c != '<') {
        pending_text_.push_back(c);
        ++i_;
        continue;
      }
      // Comment?
      if (src_.substr(i_).substr(0, 4) == "<!--") {
        FlushText();
        size_t end = src_.find("-->", i_ + 4);
        i_ = (end == std::string_view::npos) ? src_.size() : end + 3;
        continue;
      }
      // Doctype / other declarations?
      if (i_ + 1 < src_.size() && (src_[i_ + 1] == '!' || src_[i_ + 1] == '?')) {
        FlushText();
        size_t end = src_.find('>', i_);
        i_ = (end == std::string_view::npos) ? src_.size() : end + 1;
        continue;
      }
      // End tag?
      if (i_ + 1 < src_.size() && src_[i_ + 1] == '/') {
        FlushText();
        size_t end = src_.find('>', i_);
        if (end == std::string_view::npos) {
          i_ = src_.size();
          break;
        }
        std::string name =
            ToLower(Trim(src_.substr(i_ + 2, end - i_ - 2)));
        i_ = end + 1;
        CloseTag(name);
        continue;
      }
      // Start tag?
      if (i_ + 1 < src_.size() &&
          (std::isalpha(static_cast<unsigned char>(src_[i_ + 1])))) {
        FlushText();
        ParseStartTag();
        continue;
      }
      // Literal '<'.
      pending_text_.push_back('<');
      ++i_;
    }
    FlushText();
  }

  void ParseStartTag() {
    ++i_;  // '<'
    size_t name_start = i_;
    while (i_ < src_.size() &&
           (std::isalnum(static_cast<unsigned char>(src_[i_])) ||
            src_[i_] == '-' || src_[i_] == ':')) {
      ++i_;
    }
    std::string name = ToLower(src_.substr(name_start, i_ - name_start));

    // Attributes.
    std::vector<xml::Attribute> attrs;
    bool self_closing = false;
    while (i_ < src_.size() && src_[i_] != '>') {
      if (std::isspace(static_cast<unsigned char>(src_[i_]))) {
        ++i_;
        continue;
      }
      if (src_[i_] == '/') {
        self_closing = true;
        ++i_;
        continue;
      }
      // Attribute name.
      size_t astart = i_;
      while (i_ < src_.size() && src_[i_] != '=' && src_[i_] != '>' &&
             src_[i_] != '/' &&
             !std::isspace(static_cast<unsigned char>(src_[i_]))) {
        ++i_;
      }
      std::string aname = ToLower(src_.substr(astart, i_ - astart));
      std::string avalue;
      while (i_ < src_.size() &&
             std::isspace(static_cast<unsigned char>(src_[i_]))) {
        ++i_;
      }
      if (i_ < src_.size() && src_[i_] == '=') {
        ++i_;
        while (i_ < src_.size() &&
               std::isspace(static_cast<unsigned char>(src_[i_]))) {
          ++i_;
        }
        if (i_ < src_.size() && (src_[i_] == '"' || src_[i_] == '\'')) {
          char quote = src_[i_++];
          size_t vstart = i_;
          while (i_ < src_.size() && src_[i_] != quote) ++i_;
          std::string decoded;
          DecodeEntitiesInto(src_.substr(vstart, i_ - vstart), &decoded);
          avalue = std::move(decoded);
          if (i_ < src_.size()) ++i_;
        } else {
          size_t vstart = i_;
          while (i_ < src_.size() && src_[i_] != '>' &&
                 !std::isspace(static_cast<unsigned char>(src_[i_]))) {
            ++i_;
          }
          avalue = std::string(src_.substr(vstart, i_ - vstart));
        }
      }
      if (!aname.empty()) attrs.push_back({std::move(aname), std::move(avalue)});
    }
    if (i_ < src_.size()) ++i_;  // '>'

    if (name.empty()) return;

    // An explicit <html> at top level merges with the synthetic root
    // instead of nesting a second html element.
    if (name == "html" && Top() == root_) {
      for (auto& a : attrs) root_->SetAttribute(a.name, std::move(a.value));
      return;
    }

    // Implied end tags.
    while (stack_.size() > 1 && ImplicitlyCloses(Top()->name(), name)) {
      stack_.pop_back();
    }

    // Nesting is bounded as the XML parser bounds it, but HTML never fails:
    // at the bound the deepest open element closes first, and the new one
    // becomes its sibling.
    if (stack_.size() >= xml::kMaxXmlDepth) stack_.pop_back();

    xml::Element* elem = Top()->AddElement(name);
    for (auto& a : attrs) elem->SetAttribute(a.name, std::move(a.value));

    bool is_void = VoidElements().count(name) > 0;
    if (is_void || self_closing) return;

    // Raw-text elements: scoop everything up to the matching close tag.
    if (name == "script" || name == "style") {
      std::string close = "</" + name;
      size_t end = i_;
      while (true) {
        end = src_.find(close, end);
        if (end == std::string_view::npos) {
          end = src_.size();
          break;
        }
        size_t after = end + close.size();
        if (after >= src_.size() || src_[after] == '>' ||
            std::isspace(static_cast<unsigned char>(src_[after]))) {
          break;
        }
        ++end;
      }
      std::string raw(src_.substr(i_, end - i_));
      if (!Trim(raw).empty()) elem->AddText(std::move(raw));
      if (end < src_.size()) {
        size_t gt = src_.find('>', end);
        i_ = (gt == std::string_view::npos) ? src_.size() : gt + 1;
      } else {
        i_ = src_.size();
      }
      return;
    }

    stack_.push_back(elem);
  }

  void CloseTag(const std::string& name) {
    // Find the nearest matching open element; ignore the close tag if none.
    for (size_t d = stack_.size(); d > 1; --d) {
      if (stack_[d - 1]->name() == name) {
        stack_.resize(d - 1);
        return;
      }
    }
  }

  std::string_view src_;
  size_t i_ = 0;
  xml::Element* root_ = nullptr;
  std::vector<xml::Element*> stack_;
  std::string pending_text_;
};

}  // namespace

std::unique_ptr<xml::Document> ParseHtml(std::string_view text) {
  HtmlParser parser(text);
  return parser.Run();
}

Result<std::unique_ptr<xml::Document>> ParseHtmlFile(const std::string& path) {
  SLIM_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return ParseHtml(text);
}

xml::Element* FindById(xml::Document* doc, std::string_view id) {
  if (doc == nullptr || doc->root() == nullptr) return nullptr;
  xml::Element* found = nullptr;
  doc->root()->Visit([&](xml::Element* e) {
    if (found != nullptr) return;
    const std::string* v = e->FindAttribute("id");
    if (v != nullptr && *v == id) found = e;
  });
  return found;
}

xml::Element* FindAnchor(xml::Document* doc, std::string_view anchor) {
  if (doc == nullptr || doc->root() == nullptr) return nullptr;
  xml::Element* found = nullptr;
  doc->root()->Visit([&](xml::Element* e) {
    if (found != nullptr || e->name() != "a") return;
    const std::string* name_attr = e->FindAttribute("name");
    const std::string* id_attr = e->FindAttribute("id");
    if ((name_attr != nullptr && *name_attr == anchor) ||
        (id_attr != nullptr && *id_attr == anchor)) {
      found = e;
    }
  });
  return found;
}

std::vector<xml::Element*> FindByTag(xml::Document* doc,
                                     std::string_view tag) {
  std::vector<xml::Element*> out;
  if (doc == nullptr || doc->root() == nullptr) return out;
  doc->root()->Visit([&](xml::Element* e) {
    if (e->name() == tag) out.push_back(e);
  });
  return out;
}

namespace {
// Appends the text under `root` outside <script> and <style>, each piece
// followed by a space, in document order; an explicit stack of (element,
// next child) keeps any depth off the call stack.
void CollectVisibleText(const xml::Element* root, std::string* out) {
  auto hidden = [](const xml::Element* e) {
    return e->name() == "script" || e->name() == "style";
  };
  if (hidden(root)) return;
  std::vector<std::pair<const xml::Element*, size_t>> open = {{root, 0}};
  while (!open.empty()) {
    auto& [element, next] = open.back();
    if (next == element->children().size()) {
      open.pop_back();
      continue;
    }
    const xml::Node* c = element->children()[next++].get();
    switch (c->kind()) {
      case xml::NodeKind::kText:
      case xml::NodeKind::kCData:
        *out += static_cast<const xml::CharData*>(c)->text();
        *out += ' ';
        break;
      case xml::NodeKind::kElement: {
        const auto* child = static_cast<const xml::Element*>(c);
        if (!hidden(child)) open.emplace_back(child, 0);
        break;
      }
      default:
        break;
    }
  }
}
}  // namespace

std::string VisibleText(const xml::Element* element) {
  std::string raw;
  CollectVisibleText(element, &raw);
  // Collapse whitespace runs.
  std::string out;
  bool in_space = true;
  for (char c : raw) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!in_space) out.push_back(' ');
      in_space = true;
    } else {
      out.push_back(c);
      in_space = false;
    }
  }
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

}  // namespace slim::doc::html
