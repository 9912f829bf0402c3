#include "doc/xml/reader.h"

#include <array>
#include <cstdint>
#include <cstring>

namespace slim::doc::xml {

namespace {

// Byte classes. The table matches <cctype>'s isspace/isalpha/isalnum in the
// "C" locale; nothing in the tree calls setlocale.
enum : uint8_t { kSpace = 1, kNameStart = 2, kNameChar = 4 };

constexpr std::array<uint8_t, 256> MakeByteClasses() {
  std::array<uint8_t, 256> t{};
  for (unsigned char c : {' ', '\t', '\n', '\v', '\f', '\r'}) t[c] = kSpace;
  for (int c = 'a'; c <= 'z'; ++c) t[c] = kNameStart | kNameChar;
  for (int c = 'A'; c <= 'Z'; ++c) t[c] = kNameStart | kNameChar;
  for (int c = '0'; c <= '9'; ++c) t[c] = kNameChar;
  t['_'] = t[':'] = kNameStart | kNameChar;
  t['-'] = t['.'] = kNameChar;
  return t;
}

constexpr std::array<uint8_t, 256> kByteClass = MakeByteClasses();

bool Is(char c, uint8_t cls) {
  return (kByteClass[static_cast<unsigned char>(c)] & cls) != 0;
}

// Appends a Unicode code point as UTF-8.
void AppendUtf8(std::string* out, uint32_t cp) {
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
}

// Parses the body of a character reference ("#65", "#x41"); false when it is
// malformed.
bool ParseCharRef(std::string_view ent, uint32_t* cp) {
  bool ok = false;
  *cp = 0;
  if (ent.size() > 2 && (ent[1] == 'x' || ent[1] == 'X')) {
    for (size_t k = 2; k < ent.size(); ++k) {
      char c = ent[k];
      int digit;
      if (c >= '0' && c <= '9') digit = c - '0';
      else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
      else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
      else return false;
      *cp = *cp * 16 + static_cast<uint32_t>(digit);
      ok = true;
    }
  } else {
    for (size_t k = 1; k < ent.size(); ++k) {
      char c = ent[k];
      if (c < '0' || c > '9') return false;
      *cp = *cp * 10 + static_cast<uint32_t>(c - '0');
      ok = true;
    }
  }
  return ok && *cp <= 0x10FFFF;
}

}  // namespace

Reader::Reader(std::string_view text, bool keep_comments)
    : src_(text), keep_comments_(keep_comments) {}

std::optional<std::string_view> Reader::FindAttribute(
    std::string_view name) const {
  for (const AttributeView& a : attrs_) {
    if (a.name == name) return a.value;
  }
  return std::nullopt;
}

Status Reader::Error(const std::string& what) {
  size_t line = 1, col = 1;
  for (size_t j = 0; j < pos_ && j < src_.size(); ++j) {
    if (src_[j] == '\n') {
      ++line;
      col = 1;
    } else {
      ++col;
    }
  }
  error_ = Status::ParseError("XML " + std::to_string(line) + ":" +
                              std::to_string(col) + ": " + what);
  return error_;
}

bool Reader::Lookahead(std::string_view s) const {
  return src_.size() - pos_ >= s.size() &&
         std::memcmp(src_.data() + pos_, s.data(), s.size()) == 0;
}

Status Reader::Expect(std::string_view s) {
  if (!Lookahead(s)) return Error("expected '" + std::string(s) + "'");
  pos_ += s.size();
  return Status::OK();
}

void Reader::SkipSpace() {
  while (pos_ < src_.size() && Is(src_[pos_], kSpace)) ++pos_;
}

Status Reader::SkipUntil(std::string_view terminator) {
  size_t at = src_.find(terminator, pos_);
  if (at == std::string_view::npos) {
    return Error("unterminated construct (missing '" +
                 std::string(terminator) + "')");
  }
  pos_ = at + terminator.size();
  return Status::OK();
}

Status Reader::SkipProlog() {
  while (pos_ < src_.size()) {
    SkipSpace();
    if (Lookahead("<?")) {
      SLIM_RETURN_NOT_OK(SkipUntil("?>"));
    } else if (Lookahead("<!--")) {
      pos_ += 4;
      SLIM_RETURN_NOT_OK(SkipUntil("-->"));
    } else if (Lookahead("<!DOCTYPE")) {
      // Skip to the matching '>' (internal subsets nest brackets).
      int brackets = 0;
      while (pos_ < src_.size()) {
        char c = src_[pos_++];
        if (c == '[') ++brackets;
        else if (c == ']') --brackets;
        else if (c == '>' && brackets == 0) break;
      }
    } else {
      return Status::OK();
    }
  }
  return Error("no document element");
}

Status Reader::ParseName(std::string_view* name) {
  if (pos_ >= src_.size() || !Is(src_[pos_], kNameStart)) {
    return Error("expected a name");
  }
  size_t start = pos_;
  while (pos_ < src_.size() && Is(src_[pos_], kNameChar)) ++pos_;
  *name = src_.substr(start, pos_ - start);
  return Status::OK();
}

Status Reader::Decode(std::string_view raw) {
  size_t j = 0;
  while (j < raw.size()) {
    size_t amp = raw.find('&', j);
    if (amp == std::string_view::npos) amp = raw.size();
    buf_.append(raw.data() + j, amp - j);
    if (amp == raw.size()) break;
    size_t semi = raw.find(';', amp);
    if (semi == std::string_view::npos) {
      return Error("unterminated entity reference");
    }
    std::string_view ent = raw.substr(amp + 1, semi - amp - 1);
    uint32_t cp = 0;
    if (ent == "lt") buf_.push_back('<');
    else if (ent == "gt") buf_.push_back('>');
    else if (ent == "amp") buf_.push_back('&');
    else if (ent == "quot") buf_.push_back('"');
    else if (ent == "apos") buf_.push_back('\'');
    else if (!ent.empty() && ent[0] == '#') {
      if (!ParseCharRef(ent, &cp)) {
        return Error("bad character reference '&" + std::string(ent) + ";'");
      }
      AppendUtf8(&buf_, cp);
    } else {
      return Error("unknown entity '&" + std::string(ent) + ";'");
    }
    j = semi + 1;
  }
  return Status::OK();
}

Status Reader::Next() {
  if (!error_.ok()) return error_;
  buf_.clear();
  attrs_.clear();
  decoded_.clear();
  if (pending_end_) {
    pending_end_ = false;
    kind_ = TokenKind::kEndTag;
    name_ = open_.back();
    open_.pop_back();
    depth_ = open_.size();
    if (open_.empty()) state_ = State::kEpilogue;
    return Status::OK();
  }
  switch (state_) {
    case State::kProlog:
      SLIM_RETURN_NOT_OK(SkipProlog());
      return StartTag();
    case State::kContent:
      return Content();
    case State::kEpilogue:
      return Epilogue();
    case State::kDone:
      break;
  }
  kind_ = TokenKind::kEnd;
  return Status::OK();
}

Status Reader::StartTag() {
  SLIM_RETURN_NOT_OK(Expect("<"));
  if (open_.size() >= kMaxXmlDepth) {
    return Error("elements nested deeper than " +
                 std::to_string(kMaxXmlDepth) + " levels");
  }
  std::string_view name;
  SLIM_RETURN_NOT_OK(ParseName(&name));
  while (true) {
    SkipSpace();
    if (pos_ >= src_.size()) return Error("unterminated start tag");
    if (Lookahead("/>")) {
      pos_ += 2;
      pending_end_ = true;
      break;
    }
    if (src_[pos_] == '>') {
      ++pos_;
      break;
    }
    std::string_view attr_name;
    SLIM_RETURN_NOT_OK(ParseName(&attr_name));
    SkipSpace();
    SLIM_RETURN_NOT_OK(Expect("="));
    SkipSpace();
    if (pos_ >= src_.size() || (src_[pos_] != '"' && src_[pos_] != '\'')) {
      return Error("attribute value must be quoted");
    }
    char quote = src_[pos_++];
    size_t close = src_.find(quote, pos_);
    if (close == std::string_view::npos) {
      pos_ = src_.size();
      return Error("unterminated attribute value");
    }
    std::string_view raw = src_.substr(pos_, close - pos_);
    pos_ = close;
    std::string_view value = raw;
    if (raw.find('&') != std::string_view::npos) {
      size_t offset = buf_.size();
      SLIM_RETURN_NOT_OK(Decode(raw));
      decoded_.push_back({attrs_.size(), offset});
      value = std::string_view(nullptr, 0);  // patched below
    }
    ++pos_;  // closing quote
    for (const AttributeView& a : attrs_) {
      if (a.name == attr_name) {
        return Error("duplicate attribute '" + std::string(attr_name) + "'");
      }
    }
    attrs_.push_back({attr_name, value});
  }
  // Decoded values live in buf_, which may have moved while it grew.
  for (size_t k = 0; k < decoded_.size(); ++k) {
    size_t begin = decoded_[k].second;
    size_t end = k + 1 < decoded_.size() ? decoded_[k + 1].second : buf_.size();
    attrs_[decoded_[k].first].value =
        std::string_view(buf_.data() + begin, end - begin);
  }
  kind_ = TokenKind::kStartTag;
  name_ = name;
  depth_ = open_.size();
  open_.push_back(name);
  state_ = State::kContent;
  return Status::OK();
}

Status Reader::EndTag() {
  pos_ += 2;  // "</"
  std::string_view name;
  SLIM_RETURN_NOT_OK(ParseName(&name));
  if (name != open_.back()) {
    return Error("mismatched end tag </" + std::string(name) + "> for <" +
                 std::string(open_.back()) + ">");
  }
  SkipSpace();
  SLIM_RETURN_NOT_OK(Expect(">"));
  kind_ = TokenKind::kEndTag;
  name_ = name;
  open_.pop_back();
  depth_ = open_.size();
  if (open_.empty()) state_ = State::kEpilogue;
  return Status::OK();
}

Status Reader::Content() {
  while (true) {
    if (pos_ >= src_.size()) {
      return Error("unterminated element '" + std::string(open_.back()) + "'");
    }
    if (src_[pos_] != '<') {
      size_t start = pos_;
      const void* lt =
          std::memchr(src_.data() + pos_, '<', src_.size() - pos_);
      pos_ = lt == nullptr ? src_.size()
                           : static_cast<size_t>(static_cast<const char*>(lt) -
                                                 src_.data());
      std::string_view raw = src_.substr(start, pos_ - start);
      if (raw.find('&') == std::string_view::npos) {
        text_ = raw;
      } else {
        SLIM_RETURN_NOT_OK(Decode(raw));
        text_ = buf_;
      }
      kind_ = TokenKind::kText;
      depth_ = open_.size();
      return Status::OK();
    }
    if (Lookahead("</")) return EndTag();
    if (Lookahead("<!--")) {
      size_t begin = pos_ + 4;
      size_t end = src_.find("-->", begin);
      if (end == std::string_view::npos) return Error("unterminated comment");
      pos_ = end + 3;
      if (!keep_comments_) continue;
      kind_ = TokenKind::kComment;
      text_ = src_.substr(begin, end - begin);
      depth_ = open_.size();
      return Status::OK();
    }
    if (Lookahead("<![CDATA[")) {
      size_t begin = pos_ + 9;
      size_t end = src_.find("]]>", begin);
      if (end == std::string_view::npos) return Error("unterminated CDATA");
      pos_ = end + 3;
      kind_ = TokenKind::kCData;
      text_ = src_.substr(begin, end - begin);
      depth_ = open_.size();
      return Status::OK();
    }
    if (Lookahead("<?")) {
      SLIM_RETURN_NOT_OK(SkipUntil("?>"));
      continue;
    }
    return StartTag();
  }
}

Status Reader::Epilogue() {
  while (pos_ < src_.size()) {
    if (Is(src_[pos_], kSpace)) {
      ++pos_;
    } else if (Lookahead("<!--")) {
      pos_ += 4;
      SLIM_RETURN_NOT_OK(SkipUntil("-->"));
    } else if (Lookahead("<?")) {
      SLIM_RETURN_NOT_OK(SkipUntil("?>"));
    } else {
      return Error("content after document element");
    }
  }
  state_ = State::kDone;
  kind_ = TokenKind::kEnd;
  return Status::OK();
}

}  // namespace slim::doc::xml
