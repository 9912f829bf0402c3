#include "doc/pdf/pdf_document.h"

#include <fstream>
#include <sstream>

#include "util/file.h"
#include "util/strings.h"

namespace slim::doc::pdf {

std::string Rect::ToString() const {
  return FormatNumber(x) + "," + FormatNumber(y) + "," + FormatNumber(width) +
         "," + FormatNumber(height);
}

Result<Rect> Rect::Parse(std::string_view text) {
  std::vector<std::string> parts = Split(text, ',');
  if (parts.size() != 4) {
    return Status::ParseError("rect must have 4 fields: '" +
                              std::string(text) + "'");
  }
  Rect r;
  if (!ParseDouble(parts[0], &r.x) || !ParseDouble(parts[1], &r.y) ||
      !ParseDouble(parts[2], &r.width) || !ParseDouble(parts[3], &r.height) ||
      r.width < 0 || r.height < 0) {
    return Status::ParseError("malformed rect '" + std::string(text) + "'");
  }
  return r;
}

Result<const Page*> PdfDocument::GetPage(int32_t index) const {
  if (index < 0 || static_cast<size_t>(index) >= pages_.size()) {
    return Status::OutOfRange("page " + std::to_string(index) +
                              " (document has " +
                              std::to_string(pages_.size()) + " pages)");
  }
  return &pages_[static_cast<size_t>(index)];
}

int32_t PdfDocument::AddPage(double width, double height) {
  Page p;
  p.width = width;
  p.height = height;
  pages_.push_back(std::move(p));
  return static_cast<int32_t>(pages_.size() - 1);
}

Status PdfDocument::AddTextObject(int32_t page, TextObject object) {
  if (page < 0 || static_cast<size_t>(page) >= pages_.size()) {
    return Status::OutOfRange("page " + std::to_string(page));
  }
  pages_[static_cast<size_t>(page)].objects.push_back(std::move(object));
  return Status::OK();
}

std::unique_ptr<PdfDocument> PdfDocument::BuildFromParagraphs(
    const std::vector<std::string>& paragraphs, const LayoutOptions& opt) {
  auto doc = std::make_unique<PdfDocument>();
  double text_width = opt.page_width - 2 * opt.margin;
  size_t chars_per_line =
      static_cast<size_t>(std::max(1.0, text_width / opt.char_width));

  int32_t page = doc->AddPage(opt.page_width, opt.page_height);
  double y = opt.margin;
  auto emit_line = [&](const std::string& line) {
    if (y + opt.line_height > opt.page_height - opt.margin) {
      page = doc->AddPage(opt.page_width, opt.page_height);
      y = opt.margin;
    }
    TextObject obj;
    obj.box = Rect{opt.margin, y,
                   static_cast<double>(line.size()) * opt.char_width,
                   opt.line_height};
    obj.text = line;
    obj.font_size = opt.font_size;
    doc->pages_[static_cast<size_t>(page)].objects.push_back(std::move(obj));
    y += opt.line_height;
  };

  for (const std::string& para : paragraphs) {
    // Greedy word wrap.
    std::string line;
    for (const std::string& word : SplitSkipEmpty(para, ' ')) {
      if (!line.empty() && line.size() + 1 + word.size() > chars_per_line) {
        emit_line(line);
        line.clear();
      }
      if (!line.empty()) line += ' ';
      line += word;
      // Hard-break pathologically long words.
      while (line.size() > chars_per_line) {
        emit_line(line.substr(0, chars_per_line));
        line = line.substr(chars_per_line);
      }
    }
    if (!line.empty()) emit_line(line);
    y += opt.line_height / 2;  // paragraph gap
  }
  return doc;
}

Result<std::vector<const TextObject*>> PdfDocument::ObjectsInRegion(
    int32_t page, const Rect& region) const {
  SLIM_ASSIGN_OR_RETURN(const Page* p, GetPage(page));
  std::vector<const TextObject*> out;
  for (const TextObject& obj : p->objects) {
    if (obj.box.Intersects(region)) out.push_back(&obj);
  }
  return out;
}

Result<std::string> PdfDocument::ExtractRegionText(int32_t page,
                                                   const Rect& region) const {
  SLIM_ASSIGN_OR_RETURN(std::vector<const TextObject*> objs,
                        ObjectsInRegion(page, region));
  std::string out;
  for (size_t i = 0; i < objs.size(); ++i) {
    if (i) out += '\n';
    out += objs[i]->text;
  }
  return out;
}

std::vector<std::pair<int32_t, int32_t>> PdfDocument::FindText(
    std::string_view term) const {
  std::vector<std::pair<int32_t, int32_t>> out;
  if (term.empty()) return out;
  for (size_t p = 0; p < pages_.size(); ++p) {
    for (size_t o = 0; o < pages_[p].objects.size(); ++o) {
      if (pages_[p].objects[o].text.find(term) != std::string::npos) {
        out.push_back({static_cast<int32_t>(p), static_cast<int32_t>(o)});
      }
    }
  }
  return out;
}

Result<Rect> PdfDocument::ObjectBox(int32_t page, int32_t object_index) const {
  SLIM_ASSIGN_OR_RETURN(const Page* p, GetPage(page));
  if (object_index < 0 ||
      static_cast<size_t>(object_index) >= p->objects.size()) {
    return Status::OutOfRange("object " + std::to_string(object_index) +
                              " on page " + std::to_string(page));
  }
  return p->objects[static_cast<size_t>(object_index)].box;
}

namespace {
std::string Escape(std::string_view s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}
std::string Unescape(std::string_view s) {
  std::string out;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      ++i;
      out.push_back(s[i] == 'n' ? '\n' : s[i]);
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}
}  // namespace

std::string PdfDocument::Serialize() const {
  std::ostringstream out;
  out << "SLIMPDF 1\n";
  out << "FILE " << Escape(file_name_) << "\n";
  for (const Page& p : pages_) {
    out << "PAGE " << FormatNumber(p.width) << " " << FormatNumber(p.height)
        << "\n";
    for (const TextObject& obj : p.objects) {
      out << "TEXT " << obj.box.ToString() << " " << FormatNumber(obj.font_size)
          << " " << Escape(obj.text) << "\n";
    }
  }
  return out.str();
}

Result<std::unique_ptr<PdfDocument>> PdfDocument::Deserialize(
    std::string_view text) {
  auto doc = std::make_unique<PdfDocument>();
  std::istringstream in{std::string(text)};
  std::string line;
  if (!std::getline(in, line) || Trim(line) != "SLIMPDF 1") {
    return Status::ParseError("missing SLIMPDF header");
  }
  int32_t current_page = -1;
  int line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view lv = line;
    if (Trim(lv).empty()) continue;
    auto fail = [&](const std::string& what) {
      return Status::ParseError("pdf line " + std::to_string(line_no) + ": " +
                                what);
    };
    if (StartsWith(lv, "FILE ")) {
      doc->file_name_ = Unescape(lv.substr(5));
    } else if (StartsWith(lv, "PAGE ")) {
      std::vector<std::string> parts = SplitSkipEmpty(lv.substr(5), ' ');
      if (parts.size() != 2) return fail("PAGE needs width height");
      double w, h;
      if (!ParseDouble(parts[0], &w) || !ParseDouble(parts[1], &h)) {
        return fail("bad page size");
      }
      current_page = doc->AddPage(w, h);
    } else if (StartsWith(lv, "TEXT ")) {
      if (current_page < 0) return fail("TEXT outside PAGE");
      std::string_view rest = lv.substr(5);
      size_t sp1 = rest.find(' ');
      if (sp1 == std::string_view::npos) return fail("truncated TEXT");
      SLIM_ASSIGN_OR_RETURN(Rect box, Rect::Parse(rest.substr(0, sp1)));
      rest.remove_prefix(sp1 + 1);
      size_t sp2 = rest.find(' ');
      if (sp2 == std::string_view::npos) return fail("truncated TEXT");
      double font_size;
      if (!ParseDouble(rest.substr(0, sp2), &font_size)) {
        return fail("bad font size");
      }
      TextObject obj;
      obj.box = box;
      obj.font_size = font_size;
      obj.text = Unescape(rest.substr(sp2 + 1));
      SLIM_RETURN_NOT_OK(doc->AddTextObject(current_page, std::move(obj)));
    } else {
      return fail("unrecognized record");
    }
  }
  return doc;
}

Status PdfDocument::SaveToFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  out << Serialize();
  if (!out.good()) return Status::IoError("write failed for '" + path + "'");
  return Status::OK();
}

Result<std::unique_ptr<PdfDocument>> PdfDocument::LoadFromFile(
    const std::string& path) {
  SLIM_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  SLIM_ASSIGN_OR_RETURN(std::unique_ptr<PdfDocument> doc, Deserialize(text));
  if (doc->file_name().empty()) doc->set_file_name(path);
  return doc;
}

}  // namespace slim::doc::pdf
