#include "doc/text/text_document.h"

#include <cctype>
#include <fstream>
#include <sstream>

#include "util/file.h"
#include "util/strings.h"

namespace slim::doc::text {

std::string TextSpan::ToString() const {
  return "p" + std::to_string(paragraph) + ":" + std::to_string(begin) + "-" +
         std::to_string(end);
}

Result<TextSpan> TextSpan::Parse(std::string_view text) {
  std::string_view s = Trim(text);
  if (s.empty() || s[0] != 'p') {
    return Status::ParseError("text span must start with 'p': '" +
                              std::string(text) + "'");
  }
  size_t colon = s.find(':');
  size_t dash = s.find('-', colon == std::string_view::npos ? 0 : colon);
  if (colon == std::string_view::npos || dash == std::string_view::npos) {
    return Status::ParseError("malformed text span '" + std::string(text) +
                              "'");
  }
  long long para = 0, begin = 0, end = 0;
  if (!ParseInt(s.substr(1, colon - 1), &para) ||
      !ParseInt(s.substr(colon + 1, dash - colon - 1), &begin) ||
      !ParseInt(s.substr(dash + 1), &end) || para < 0 || begin < 0 ||
      end < begin) {
    return Status::ParseError("malformed text span '" + std::string(text) +
                              "'");
  }
  return TextSpan{static_cast<int32_t>(para), static_cast<int32_t>(begin),
                  static_cast<int32_t>(end)};
}

int32_t TextDocument::AddParagraph(std::string text, int heading_level) {
  paragraphs_.push_back({std::move(text), heading_level});
  return static_cast<int32_t>(paragraphs_.size() - 1);
}

Status TextDocument::InsertParagraph(int32_t index, std::string text,
                                     int heading_level) {
  if (index < 0 || static_cast<size_t>(index) > paragraphs_.size()) {
    return Status::OutOfRange("paragraph index " + std::to_string(index));
  }
  paragraphs_.insert(paragraphs_.begin() + index,
                     {std::move(text), heading_level});
  return Status::OK();
}

Status TextDocument::RemoveParagraph(int32_t index) {
  if (index < 0 || static_cast<size_t>(index) >= paragraphs_.size()) {
    return Status::OutOfRange("paragraph index " + std::to_string(index));
  }
  paragraphs_.erase(paragraphs_.begin() + index);
  return Status::OK();
}

Status TextDocument::ReplaceSpan(const TextSpan& span,
                                 std::string_view replacement) {
  if (!IsValidSpan(span)) {
    return Status::OutOfRange("invalid span " + span.ToString());
  }
  std::string& text = paragraphs_[static_cast<size_t>(span.paragraph)].text;
  text.replace(static_cast<size_t>(span.begin),
               static_cast<size_t>(span.end - span.begin),
               std::string(replacement));
  return Status::OK();
}

Status TextDocument::InsertText(int32_t paragraph, int32_t offset,
                                std::string_view text) {
  return ReplaceSpan(TextSpan{paragraph, offset, offset}, text);
}

Result<const Paragraph*> TextDocument::GetParagraph(int32_t index) const {
  if (index < 0 || static_cast<size_t>(index) >= paragraphs_.size()) {
    return Status::OutOfRange("paragraph index " + std::to_string(index) +
                              " (document has " +
                              std::to_string(paragraphs_.size()) +
                              " paragraphs)");
  }
  return &paragraphs_[static_cast<size_t>(index)];
}

bool TextDocument::IsValidSpan(const TextSpan& span) const {
  if (span.paragraph < 0 ||
      static_cast<size_t>(span.paragraph) >= paragraphs_.size()) {
    return false;
  }
  const std::string& text = paragraphs_[static_cast<size_t>(span.paragraph)].text;
  return span.begin >= 0 && span.end >= span.begin &&
         static_cast<size_t>(span.end) <= text.size();
}

Result<std::string> TextDocument::ExtractSpan(const TextSpan& span) const {
  if (!IsValidSpan(span)) {
    return Status::OutOfRange("invalid span " + span.ToString());
  }
  const std::string& text = paragraphs_[static_cast<size_t>(span.paragraph)].text;
  return text.substr(static_cast<size_t>(span.begin),
                     static_cast<size_t>(span.end - span.begin));
}

Result<std::string> TextDocument::SpanContext(const TextSpan& span) const {
  if (!IsValidSpan(span)) {
    return Status::OutOfRange("invalid span " + span.ToString());
  }
  return paragraphs_[static_cast<size_t>(span.paragraph)].text;
}

std::vector<TextSpan> TextDocument::FindAll(std::string_view term,
                                            bool case_sensitive) const {
  std::vector<TextSpan> out;
  if (term.empty()) return out;
  std::string needle = case_sensitive ? std::string(term) : ToLower(term);
  for (size_t p = 0; p < paragraphs_.size(); ++p) {
    std::string hay = case_sensitive ? paragraphs_[p].text
                                     : ToLower(paragraphs_[p].text);
    size_t pos = 0;
    while ((pos = hay.find(needle, pos)) != std::string::npos) {
      out.push_back(TextSpan{static_cast<int32_t>(p),
                             static_cast<int32_t>(pos),
                             static_cast<int32_t>(pos + needle.size())});
      pos += 1;
    }
  }
  return out;
}

std::vector<TextSpan> TextDocument::Words(int32_t paragraph) const {
  std::vector<TextSpan> out;
  if (paragraph < 0 ||
      static_cast<size_t>(paragraph) >= paragraphs_.size()) {
    return out;
  }
  const std::string& text = paragraphs_[static_cast<size_t>(paragraph)].text;
  auto is_word_char = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '\'';
  };
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && !is_word_char(text[i])) ++i;
    size_t begin = i;
    while (i < text.size() && is_word_char(text[i])) ++i;
    if (i > begin) {
      out.push_back(TextSpan{paragraph, static_cast<int32_t>(begin),
                             static_cast<int32_t>(i)});
    }
  }
  return out;
}

size_t TextDocument::TotalChars() const {
  size_t n = 0;
  for (const Paragraph& p : paragraphs_) n += p.text.size();
  return n;
}

std::string TextDocument::Serialize() const {
  std::string out;
  for (size_t i = 0; i < paragraphs_.size(); ++i) {
    if (i) out += "\n\n";
    const Paragraph& p = paragraphs_[i];
    for (int h = 0; h < p.heading_level; ++h) out += '#';
    if (p.heading_level > 0) out += ' ';
    out += p.text;
  }
  out += '\n';
  return out;
}

std::unique_ptr<TextDocument> TextDocument::Deserialize(
    std::string_view text) {
  auto doc = std::make_unique<TextDocument>();
  std::string current;
  bool have_current = false;
  auto flush = [&] {
    if (!have_current) return;
    int level = 0;
    std::string_view body = current;
    while (!body.empty() && body[0] == '#') {
      ++level;
      body.remove_prefix(1);
    }
    if (level > 0 && !body.empty() && body[0] == ' ') body.remove_prefix(1);
    if (level > 0) {
      doc->AddParagraph(std::string(body), level);
    } else {
      doc->AddParagraph(current);
    }
    current.clear();
    have_current = false;
  };
  std::istringstream in{std::string(text)};
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (Trim(line).empty()) {
      flush();
      continue;
    }
    if (have_current) current += ' ';
    current += line;
    have_current = true;
  }
  flush();
  return doc;
}

Status TextDocument::SaveToFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  out << Serialize();
  if (!out.good()) return Status::IoError("write failed for '" + path + "'");
  return Status::OK();
}

Result<std::unique_ptr<TextDocument>> TextDocument::LoadFromFile(
    const std::string& path) {
  SLIM_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  std::unique_ptr<TextDocument> doc = Deserialize(text);
  doc->set_file_name(path);
  return doc;
}

}  // namespace slim::doc::text
