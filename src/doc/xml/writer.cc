#include "doc/xml/writer.h"

#include <fstream>

namespace slim::doc::xml {

namespace {

// Appends `s` with XML specials replaced; attribute values also escape the
// double quote, newline and tab so they survive a round trip.
void AppendEscaped(std::string_view s, bool attribute, std::string* out) {
  size_t run = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    std::string_view rep;
    switch (s[i]) {
      case '<': rep = "&lt;"; break;
      case '>': rep = "&gt;"; break;
      case '&': rep = "&amp;"; break;
      case '"': rep = attribute ? "&quot;" : ""; break;
      case '\n': rep = attribute ? "&#10;" : ""; break;
      case '\t': rep = attribute ? "&#9;" : ""; break;
      default: break;
    }
    if (rep.empty()) continue;
    out->append(s.data() + run, i - run);
    out->append(rep);
    run = i + 1;
  }
  out->append(s.data() + run, s.size() - run);
}

}  // namespace

void EscapeText(std::string_view s, std::string* out) {
  AppendEscaped(s, /*attribute=*/false, out);
}

std::string EscapeText(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  EscapeText(s, &out);
  return out;
}

void EscapeAttribute(std::string_view s, std::string* out) {
  AppendEscaped(s, /*attribute=*/true, out);
}

std::string EscapeAttribute(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  EscapeAttribute(s, &out);
  return out;
}

Writer::Writer(std::string* out, const WriteOptions& options)
    : out_(out), options_(options) {}

void Writer::Declaration() {
  out_->append("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
  if (options_.pretty) out_->push_back('\n');
}

void Writer::Indent(size_t depth) {
  if (options_.pretty) {
    out_->append(depth * static_cast<size_t>(options_.indent), ' ');
  }
}

void Writer::BeginContent() {
  if (open_.empty() || open_.back().has_content) return;
  open_.back().has_content = true;
  out_->push_back('>');
  if (options_.pretty && open_.back().block) out_->push_back('\n');
}

void Writer::Start(std::string_view name, bool block) {
  BeginContent();
  Indent(open_.size());
  out_->push_back('<');
  out_->append(name);
  open_.push_back({name, block, false});
}

void Writer::Attribute(std::string_view name, std::string_view value) {
  out_->push_back(' ');
  out_->append(name);
  out_->append("=\"");
  EscapeAttribute(value, out_);
  out_->push_back('"');
}

template <typename F>
void Writer::Child(F append) {
  BeginContent();
  bool own_line = options_.pretty && !open_.empty() && open_.back().block;
  if (own_line) Indent(open_.size());
  append();
  if (own_line) out_->push_back('\n');
}

void Writer::Text(std::string_view text) {
  Child([&] { EscapeText(text, out_); });
}

void Writer::CData(std::string_view text) {
  Child([&] {
    out_->append("<![CDATA[");
    out_->append(text);
    out_->append("]]>");
  });
}

void Writer::Comment(std::string_view text) {
  Child([&] {
    out_->append("<!--");
    out_->append(text);
    out_->append("-->");
  });
}

void Writer::End() {
  Frame frame = open_.back();
  open_.pop_back();
  if (!frame.has_content) {
    out_->append("/>");
  } else {
    if (options_.pretty && frame.block) Indent(open_.size());
    out_->append("</");
    out_->append(frame.name);
    out_->push_back('>');
  }
  if (options_.pretty) out_->push_back('\n');
}

namespace {

bool HasElementChildren(const Element& e) {
  for (const auto& c : e.children()) {
    if (c->kind() == NodeKind::kElement) return true;
  }
  return false;
}

void WriteElement(const Element& e, Writer* w) {
  w->Start(e.name(), HasElementChildren(e));
  for (const Attribute& a : e.attributes()) w->Attribute(a.name, a.value);
  for (const auto& c : e.children()) {
    switch (c->kind()) {
      case NodeKind::kElement:
        WriteElement(*static_cast<const Element*>(c.get()), w);
        break;
      case NodeKind::kText:
        w->Text(static_cast<const CharData*>(c.get())->text());
        break;
      case NodeKind::kCData:
        w->CData(static_cast<const CharData*>(c.get())->text());
        break;
      case NodeKind::kComment:
        w->Comment(static_cast<const CharData*>(c.get())->text());
        break;
    }
  }
  w->End();
}

}  // namespace

std::string WriteXml(const Element& elem, const WriteOptions& options) {
  std::string out;
  Writer w(&out, options);
  WriteElement(elem, &w);
  return out;
}

std::string WriteXml(const Document& doc, const WriteOptions& options) {
  std::string out;
  Writer w(&out, options);
  if (options.declaration) w.Declaration();
  if (doc.root() != nullptr) WriteElement(*doc.root(), &w);
  return out;
}

Status WriteXmlFile(const Document& doc, const std::string& path,
                    const WriteOptions& options) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  out << WriteXml(doc, options);
  if (!out.good()) return Status::IoError("write failed for '" + path + "'");
  return Status::OK();
}

}  // namespace slim::doc::xml
