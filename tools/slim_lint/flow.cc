#include "flow.h"

#include <algorithm>
#include <cctype>
#include <cstring>

namespace slim::lint {

const char* TokKindName(TokKind kind) {
  switch (kind) {
#define TOKEN_KIND(name, spelling) \
  case TokKind::name:              \
    return spelling;
    SLIM_LINT_TOKEN_KINDS(TOKEN_KIND)
#undef TOKEN_KIND
  }
  return "<?>";
}

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Multi-character punctuators, longest first (maximal munch). '>' is
/// deliberately never merged into ">>"/">="/">>=": template argument lists
/// close with '>' tokens and the scanner counts them, while a shift or
/// comparison read as two tokens is harmless. '<' *is* merged into
/// "<<"/"<=" so stream inserts and comparisons never look like template
/// openings.
struct PunctEntry {
  const char* spelling;
  TokKind kind;
};

constexpr PunctEntry kPuncts[] = {
    {"<<=", TokKind::kPunct}, {"<=>", TokKind::kPunct},
    {"...", TokKind::kPunct}, {"->*", TokKind::kPunct},
    {"::", TokKind::kScope},  {"->", TokKind::kArrow},
    {"<<", TokKind::kPunct},  {"<=", TokKind::kPunct},
    {"&&", TokKind::kPunct},  {"||", TokKind::kPunct},
    {"==", TokKind::kPunct},  {"!=", TokKind::kPunct},
    {"+=", TokKind::kPunct},  {"-=", TokKind::kPunct},
    {"*=", TokKind::kPunct},  {"/=", TokKind::kPunct},
    {"%=", TokKind::kPunct},  {"^=", TokKind::kPunct},
    {"|=", TokKind::kPunct},  {"&=", TokKind::kPunct},
    {"++", TokKind::kPunct},  {"--", TokKind::kPunct},
    {".*", TokKind::kPunct},
};

TokKind SingleCharKind(char c) {
  switch (c) {
    case '.':
      return TokKind::kDot;
    case ',':
      return TokKind::kComma;
    case ';':
      return TokKind::kSemi;
    case ':':
      return TokKind::kColon;
    case '(':
      return TokKind::kLParen;
    case ')':
      return TokKind::kRParen;
    case '{':
      return TokKind::kLBrace;
    case '}':
      return TokKind::kRBrace;
    case '[':
      return TokKind::kLBracket;
    case ']':
      return TokKind::kRBracket;
    case '<':
      return TokKind::kLess;
    case '>':
      return TokKind::kGreater;
    case '&':
      return TokKind::kAmp;
    case '*':
      return TokKind::kStar;
    case '=':
      return TokKind::kAssign;
    default:
      return TokKind::kPunct;
  }
}

}  // namespace

std::vector<Token> Tokenize(std::string_view src) {
  std::vector<Token> out;
  const size_t n = src.size();
  size_t i = 0;
  int line = 1;
  bool at_line_start = true;  // only whitespace since the last newline

  auto advance_lines = [&src, &line](size_t from, size_t to) {
    for (size_t k = from; k < to && k < src.size(); ++k) {
      if (src[k] == '\n') ++line;
    }
  };

  while (i < n) {
    char c = src[i];
    if (c == '\n') {
      ++line;
      at_line_start = true;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      size_t eol = src.find('\n', i);
      i = eol == std::string_view::npos ? n : eol;  // newline handled above
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      size_t end = src.find("*/", i + 2);
      size_t stop = end == std::string_view::npos ? n : end + 2;
      advance_lines(i, stop);
      i = stop;
      continue;
    }
    if (c == '#' && at_line_start) {
      // Whole directive — including backslash-continued lines — as one
      // token, so a macro *definition* is never mistaken for code.
      size_t j = i;
      while (j < n) {
        size_t eol = src.find('\n', j);
        if (eol == std::string_view::npos) {
          j = n;
          break;
        }
        if (eol > j && src[eol - 1] == '\\') {
          j = eol + 1;
        } else {
          j = eol;
          break;
        }
      }
      out.push_back({TokKind::kDirective, src.substr(i, j - i), line});
      advance_lines(i, j);
      i = j;
      continue;
    }
    at_line_start = false;
    const int tok_line = line;
    if (c == '"' || c == '\'') {
      size_t j = i + 1;
      while (j < n) {
        if (src[j] == '\\') {
          j += 2;
        } else if (src[j] == c) {
          ++j;
          break;
        } else {
          ++j;
        }
      }
      j = std::min(j, n);
      out.push_back({c == '"' ? TokKind::kString : TokKind::kChar,
                     src.substr(i, j - i), tok_line});
      advance_lines(i, j);
      i = j;
      continue;
    }
    if (IsIdentStart(c)) {
      size_t j = i + 1;
      while (j < n && IsIdentChar(src[j])) ++j;
      std::string_view id = src.substr(i, j - i);
      if (j < n && src[j] == '"' &&
          (id == "R" || id == "u8R" || id == "uR" || id == "LR")) {
        // Raw string literal: R"delim( ... )delim".
        size_t lp = src.find('(', j + 1);
        if (lp != std::string_view::npos) {
          std::string closer =
              ")" + std::string(src.substr(j + 1, lp - j - 1)) + "\"";
          size_t end = src.find(closer, lp + 1);
          size_t stop =
              end == std::string_view::npos ? n : end + closer.size();
          out.push_back({TokKind::kString, src.substr(i, stop - i), tok_line});
          advance_lines(i, stop);
          i = stop;
          continue;
        }
      }
      out.push_back({TokKind::kIdent, id, tok_line});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(src[i + 1])))) {
      size_t j = i + 1;
      while (j < n) {
        char d = src[j];
        if (IsIdentChar(d) || d == '.' || d == '\'') {
          ++j;
        } else if ((d == '+' || d == '-') &&
                   (src[j - 1] == 'e' || src[j - 1] == 'E' ||
                    src[j - 1] == 'p' || src[j - 1] == 'P')) {
          ++j;
        } else {
          break;
        }
      }
      out.push_back({TokKind::kNumber, src.substr(i, j - i), tok_line});
      i = j;
      continue;
    }
    bool matched = false;
    for (const PunctEntry& p : kPuncts) {
      size_t len = std::strlen(p.spelling);
      if (src.compare(i, len, p.spelling) == 0) {
        out.push_back({p.kind, src.substr(i, len), tok_line});
        i += len;
        matched = true;
        break;
      }
    }
    if (matched) continue;
    out.push_back({SingleCharKind(c), src.substr(i, 1), tok_line});
    ++i;
  }
  out.push_back({TokKind::kEnd, {}, line});
  return out;
}

// ---------------------------------------------------------------------------
// Flow model extraction
// ---------------------------------------------------------------------------

namespace {

const char* const kMutexTypes[] = {"mutex", "recursive_mutex", "shared_mutex",
                                   "timed_mutex", "recursive_timed_mutex"};

bool IsStdMutexName(std::string_view id) {
  for (const char* m : kMutexTypes) {
    if (id == m) return true;
  }
  return false;
}

bool IsReadPathCallee(std::string_view id) {
  return id == "SelectEach" || id == "DistinctSubjects" ||
         id == "DistinctProperties" || id == "DistinctObjects";
}

bool IsBlockingCallee(std::string_view id) {
  return id == "wait" || id == "wait_for" || id == "wait_until" ||
         id == "sleep_for" || id == "sleep_until" || id == "recv" ||
         id == "send" || id == "accept" || id == "connect" || id == "poll";
}

bool IsControlKeyword(std::string_view id) {
  return id == "if" || id == "for" || id == "while" || id == "switch" ||
         id == "return" || id == "sizeof" || id == "catch" ||
         id == "alignof" || id == "decltype" || id == "new" ||
         id == "delete" || id == "throw" || id == "co_return" ||
         id == "co_await" || id == "assert" || id == "defined";
}

/// Walks one file's token stream with a namespace/class/function scope
/// stack and fills in a FlowFile. The grammar subset is deliberately
/// shallow: it only needs to see member declarations, function signatures
/// (with REQUIRES clauses) and, inside bodies, lock/pin RAII declarations
/// and call sites.
class FlowParser {
 public:
  FlowParser(const std::string& path, std::string_view contents)
      : toks_(Tokenize(contents)) {
    file_.path = path;
    size_t start = 0;
    for (size_t i = 0; i <= contents.size(); ++i) {
      if (i == contents.size() || contents[i] == '\n') {
        lines_.emplace_back(contents.substr(start, i - start));
        start = i + 1;
      }
    }
  }

  FlowFile Run() {
    ScanRawMutexes();
    ParseDeclSeq("");
    return std::move(file_);
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < toks_.size() ? toks_[i] : toks_.back();
  }

  const Token& Prev(size_t back) const {
    static const Token kNone{};
    return pos_ >= back ? toks_[pos_ - back] : kNone;
  }

  bool AtEnd() const { return Peek().kind == TokKind::kEnd; }

  bool LineHasAllow(int line, const char* rule) const {
    if (line < 1 || static_cast<size_t>(line) > lines_.size()) return false;
    std::string needle = std::string("slim-lint: allow(") + rule + ")";
    if (lines_[line - 1].find(needle) != std::string::npos) return true;
    // A marker on a pure comment line suppresses the declaration directly
    // below it (for justifications too long to trail the declaration).
    // Restricting to comment-only lines keeps a trailing marker on the
    // previous declaration from bleeding onto this one.
    if (line < 2) return false;
    const std::string& prev = lines_[line - 2];
    size_t start = prev.find_first_not_of(" \t");
    if (start == std::string::npos || prev.compare(start, 2, "//") != 0) {
      return false;
    }
    return prev.find(needle) != std::string::npos;
  }

  /// Token-stream port of the legacy per-line regex
  ///   (^|[^:<\w])std::(recursive_|shared_|timed_|recursive_timed_)?mutex\s+\w
  /// — a raw std::mutex *declaration*: `std` not preceded by `<` (template
  /// argument) or `::` (qualified), followed by `::`, a mutex type name and
  /// a declared identifier. One finding per line, like the line scanner.
  void ScanRawMutexes() {
    int last_line = -1;
    for (size_t i = 0; i + 3 < toks_.size(); ++i) {
      if (toks_[i].kind != TokKind::kIdent || toks_[i].text != "std") continue;
      if (toks_[i + 1].kind != TokKind::kScope) continue;
      if (toks_[i + 2].kind != TokKind::kIdent ||
          !IsStdMutexName(toks_[i + 2].text)) {
        continue;
      }
      if (toks_[i + 3].kind != TokKind::kIdent) continue;
      if (i > 0 && (toks_[i - 1].kind == TokKind::kLess ||
                    toks_[i - 1].kind == TokKind::kScope)) {
        continue;
      }
      int line = toks_[i].line;
      if (line == last_line) continue;
      last_line = line;
      MutexDecl decl;
      decl.member = std::string(toks_[i + 3].text);
      decl.line = line;
      decl.raw = true;
      decl.suppressed = LineHasAllow(line, "raw-mutex");
      file_.mutexes.push_back(std::move(decl));
    }
  }

  // --- Declaration-sequence level (namespace or class body) ---------------

  void SkipBalanced(TokKind open, TokKind close) {
    int depth = 0;
    while (!AtEnd()) {
      TokKind k = Peek().kind;
      ++pos_;
      if (k == open) {
        ++depth;
      } else if (k == close) {
        if (--depth == 0) return;
      }
    }
  }

  void SkipToSemi() {
    int depth = 0;
    while (!AtEnd()) {
      TokKind k = Peek().kind;
      if (depth == 0 && k == TokKind::kSemi) {
        ++pos_;
        return;
      }
      if (k == TokKind::kLParen || k == TokKind::kLBrace ||
          k == TokKind::kLBracket) {
        ++depth;
      } else if (k == TokKind::kRParen || k == TokKind::kRBrace ||
                 k == TokKind::kRBracket) {
        if (depth == 0) return;  // stray closer: let the caller see it
        --depth;
      }
      ++pos_;
    }
  }

  /// Parses declarations until the matching '}' (left unconsumed) or EOF.
  /// `class_name` is "" at namespace scope.
  void ParseDeclSeq(const std::string& class_name) {
    const bool in_class = !class_name.empty();
    while (!AtEnd()) {
      const Token& t = Peek();
      if (t.kind == TokKind::kRBrace) return;
      if (t.kind == TokKind::kDirective || t.kind == TokKind::kSemi) {
        ++pos_;
        continue;
      }
      if (t.kind == TokKind::kIdent) {
        if (t.text == "namespace") {
          ++pos_;
          while (!AtEnd() && Peek().kind != TokKind::kLBrace &&
                 Peek().kind != TokKind::kSemi) {
            ++pos_;
          }
          if (Peek().kind == TokKind::kLBrace) {
            ++pos_;
            ParseDeclSeq("");
            if (Peek().kind == TokKind::kRBrace) ++pos_;
          } else {
            ++pos_;
          }
          continue;
        }
        if (t.text == "enum") {
          while (!AtEnd() && Peek().kind != TokKind::kLBrace &&
                 Peek().kind != TokKind::kSemi) {
            ++pos_;
          }
          if (Peek().kind == TokKind::kLBrace) {
            SkipBalanced(TokKind::kLBrace, TokKind::kRBrace);
          }
          SkipToSemi();
          continue;
        }
        if (t.text == "class" || t.text == "struct" || t.text == "union") {
          ParseClass();
          continue;
        }
        if (t.text == "template") {
          ++pos_;
          SkipAngles();
          continue;
        }
        if (t.text == "using" || t.text == "typedef" || t.text == "friend" ||
            t.text == "static_assert") {
          SkipToSemi();
          continue;
        }
        if (t.text == "extern" && Peek(1).kind == TokKind::kString &&
            Peek(2).kind == TokKind::kLBrace) {
          pos_ += 3;
          ParseDeclSeq(class_name);
          if (Peek().kind == TokKind::kRBrace) ++pos_;
          continue;
        }
        if ((t.text == "public" || t.text == "private" ||
             t.text == "protected") &&
            Peek(1).kind == TokKind::kColon) {
          pos_ += 2;
          continue;
        }
        ParseDeclaration(class_name, in_class);
        continue;
      }
      // Attributes, stray punctuation, string literals from macros, ...
      if (t.kind == TokKind::kLBracket) {
        SkipBalanced(TokKind::kLBracket, TokKind::kRBracket);
        continue;
      }
      if (t.kind == TokKind::kLBrace) {
        SkipBalanced(TokKind::kLBrace, TokKind::kRBrace);
        continue;
      }
      ++pos_;
    }
  }

  /// Skips a balanced template argument list when positioned at '<'.
  /// Parens inside (e.g. a default argument expression) are opaque.
  void SkipAngles() {
    if (Peek().kind != TokKind::kLess) return;
    int angle = 0;
    while (!AtEnd()) {
      TokKind k = Peek().kind;
      if (k == TokKind::kLParen) {
        SkipBalanced(TokKind::kLParen, TokKind::kRParen);
        continue;
      }
      ++pos_;
      if (k == TokKind::kLess) {
        ++angle;
      } else if (k == TokKind::kGreater) {
        if (--angle == 0) return;
      } else if (k == TokKind::kSemi || k == TokKind::kLBrace) {
        return;  // malformed / not actually a template list
      }
    }
  }

  /// Positioned at "class"/"struct"/"union". Parses a (possibly nested)
  /// class definition, or skips a forward declaration / variable of
  /// elaborated type.
  void ParseClass() {
    ++pos_;  // class/struct/union
    while (Peek().kind == TokKind::kLBracket) {
      SkipBalanced(TokKind::kLBracket, TokKind::kRBracket);
    }
    std::string name;
    if (Peek().kind == TokKind::kIdent) {
      name = std::string(Peek().text);
      ++pos_;
    }
    // Scan to the body or the end of a forward declaration.
    while (!AtEnd()) {
      TokKind k = Peek().kind;
      if (k == TokKind::kLBrace) {
        ++pos_;
        ParseDeclSeq(name);
        if (Peek().kind == TokKind::kRBrace) ++pos_;
        SkipToSemi();
        return;
      }
      if (k == TokKind::kSemi) {
        ++pos_;
        return;
      }
      if (k == TokKind::kLess) {
        SkipAngles();
        continue;
      }
      ++pos_;
    }
  }

  /// A declaration that is not a nested type / namespace / using. Collects
  /// head tokens up to the first structural terminator at depth 0 and then
  /// dispatches: field (';', '=', '{') or function ('(').
  void ParseDeclaration(const std::string& class_name, bool in_class) {
    std::vector<Token> head;
    int angle = 0;
    while (!AtEnd()) {
      const Token& t = Peek();
      if (t.kind == TokKind::kDirective) {
        ++pos_;
        continue;
      }
      if (t.kind == TokKind::kLess) {
        ++angle;
        head.push_back(t);
        ++pos_;
        continue;
      }
      if (t.kind == TokKind::kGreater) {
        if (angle > 0) --angle;
        head.push_back(t);
        ++pos_;
        continue;
      }
      if (angle > 0) {
        head.push_back(t);
        ++pos_;
        continue;
      }
      switch (t.kind) {
        case TokKind::kSemi:
          ++pos_;
          FinishField(class_name, in_class, head, "");
          return;
        case TokKind::kAssign: {
          ++pos_;
          std::string init_string = CaptureInitString(TokKind::kSemi);
          FinishField(class_name, in_class, head, init_string);
          return;
        }
        case TokKind::kLBrace: {
          std::string init_string = CaptureBraceInitString();
          SkipToSemi();
          FinishField(class_name, in_class, head, init_string);
          return;
        }
        case TokKind::kLParen:
          ParseFunctionOrFnPtr(class_name, in_class, head);
          return;
        case TokKind::kLBracket:
          head.push_back(t);
          SkipBalanced(TokKind::kLBracket, TokKind::kRBracket);
          head.push_back(Prev(1));
          continue;
        case TokKind::kRBrace:
        case TokKind::kEnd:
          return;  // stray — let the caller handle it
        default:
          head.push_back(t);
          ++pos_;
          continue;
      }
    }
  }

  /// Consumes tokens up to (and including) a `terminator` at depth 0 and
  /// returns the first string literal seen (quotes stripped) — the
  /// InstrumentedMutex site name in `mu_{"site"}` / `= Mutex("site")`.
  std::string CaptureInitString(TokKind terminator) {
    std::string first;
    int depth = 0;
    while (!AtEnd()) {
      const Token& t = Peek();
      if (depth == 0 && t.kind == terminator) {
        ++pos_;
        break;
      }
      if (t.kind == TokKind::kLParen || t.kind == TokKind::kLBrace ||
          t.kind == TokKind::kLBracket) {
        ++depth;
      } else if (t.kind == TokKind::kRParen || t.kind == TokKind::kRBrace ||
                 t.kind == TokKind::kRBracket) {
        if (depth == 0) break;
        --depth;
      } else if (t.kind == TokKind::kString && first.empty() &&
                 t.text.size() >= 2) {
        first = std::string(t.text.substr(1, t.text.size() - 2));
      }
      ++pos_;
    }
    return first;
  }

  /// Positioned at the '{' of a brace initializer: consumes the balanced
  /// braces, returns the first string literal inside.
  std::string CaptureBraceInitString() {
    std::string first;
    int depth = 0;
    while (!AtEnd()) {
      const Token& t = Peek();
      if (t.kind == TokKind::kLBrace) {
        ++depth;
      } else if (t.kind == TokKind::kRBrace) {
        ++pos_;
        if (--depth == 0) break;
        continue;
      } else if (t.kind == TokKind::kString && first.empty() &&
                 t.text.size() >= 2) {
        first = std::string(t.text.substr(1, t.text.size() - 2));
      }
      ++pos_;
    }
    return first;
  }

  /// Classifies a terminated declaration head as a data member (or a
  /// namespace-scope mutex) and records it.
  void FinishField(const std::string& class_name, bool in_class,
                   std::vector<Token> head, const std::string& init_string) {
    if (head.empty()) return;
    for (const Token& t : head) {
      // `Foo& operator=(const Foo&) = delete;` reaches here via its '='
      // token — operators are never data members.
      if (t.kind == TokKind::kIdent && t.text == "operator") return;
    }
    // Strip trailing annotation-macro calls: `name GUARDED_BY(mu_)`.
    bool guarded = false;
    while (head.size() >= 3 && head.back().kind == TokKind::kRParen) {
      int depth = 0;
      size_t open = head.size();
      for (size_t i = head.size(); i-- > 0;) {
        if (head[i].kind == TokKind::kRParen) ++depth;
        if (head[i].kind == TokKind::kLParen && --depth == 0) {
          open = i;
          break;
        }
      }
      if (open == head.size() || open == 0 ||
          head[open - 1].kind != TokKind::kIdent) {
        break;
      }
      std::string_view macro = head[open - 1].text;
      if (macro == "GUARDED_BY" || macro == "PT_GUARDED_BY") {
        guarded = true;
      } else if (macro != "ACQUIRED_AFTER" && macro != "ACQUIRED_BEFORE") {
        break;
      }
      head.resize(open - 1);
    }
    // Declared name: last identifier at bracket/angle depth 0.
    int angle = 0;
    int bracket = 0;
    size_t name_idx = head.size();
    bool pointerish = false;
    for (size_t i = 0; i < head.size(); ++i) {
      TokKind k = head[i].kind;
      if (k == TokKind::kLess) ++angle;
      if (k == TokKind::kGreater && angle > 0) --angle;
      if (k == TokKind::kLBracket) ++bracket;
      if (k == TokKind::kRBracket && bracket > 0) --bracket;
      if (angle > 0 || bracket > 0) continue;
      if (k == TokKind::kIdent) name_idx = i;
      if (k == TokKind::kStar || k == TokKind::kAmp) pointerish = true;
    }
    if (name_idx >= head.size() || name_idx == 0) return;
    std::string name(head[name_idx].text);
    int line = head[name_idx].line;
    std::string type_text;
    bool is_const = false;
    bool is_atomic = false;
    bool is_mutable = false;
    for (size_t i = 0; i < name_idx; ++i) {
      if (!type_text.empty()) type_text += ' ';
      type_text += std::string(head[i].text);
      if (head[i].kind == TokKind::kIdent) {
        std::string_view id = head[i].text;
        if (id == "const" || id == "constexpr" || id == "static") {
          is_const = true;
        }
        if (id == "mutable") is_mutable = true;
        if (id == "atomic") is_atomic = true;
      }
    }
    if (is_mutable) is_const = false;
    bool is_instrumented =
        type_text.find("InstrumentedMutex") != std::string::npos;
    bool is_sync_primitive =
        is_instrumented || type_text.find("mutex") != std::string::npos ||
        type_text.find("condition_variable") != std::string::npos ||
        type_text.find("once_flag") != std::string::npos ||
        type_text.find("Notification") != std::string::npos;
    if (is_instrumented && !pointerish) {
      MutexDecl decl;
      decl.class_name = class_name;
      decl.member = name;
      decl.site = init_string;
      decl.line = line;
      file_.mutexes.push_back(std::move(decl));
      return;
    }
    if (!in_class) return;  // only members feed guarded-by coverage
    if (is_sync_primitive) return;  // primitives synchronize themselves
    FieldDecl field;
    field.class_name = class_name;
    field.name = std::move(name);
    field.type_text = std::move(type_text);
    field.line = line;
    field.guarded = guarded;
    field.is_const = is_const;
    field.is_atomic = is_atomic;
    field.suppressed = LineHasAllow(line, "unguarded");
    file_.fields.push_back(std::move(field));
  }

  /// Positioned at the '(' that follows a declaration head: either a
  /// function (declaration or definition) or a function-pointer member.
  void ParseFunctionOrFnPtr(const std::string& class_name, bool in_class,
                            const std::vector<Token>& head) {
    if (Peek(1).kind == TokKind::kStar || Peek(1).kind == TokKind::kAmp) {
      // `int (*fp)(int);` — treat as an unguardable pointer member; just
      // consume to the semicolon.
      SkipToSemi();
      return;
    }
    if (head.empty() || head.back().kind != TokKind::kIdent) {
      SkipToSemi();
      return;
    }
    FunctionModel fn;
    fn.name = std::string(head.back().text);
    fn.line = head.back().line;
    fn.class_name = class_name;
    if (head.size() >= 3 && head[head.size() - 2].kind == TokKind::kScope &&
        head[head.size() - 3].kind == TokKind::kIdent) {
      fn.class_name = std::string(head[head.size() - 3].text);
    }

    // Parameter list.
    size_t params_begin = pos_ + 1;
    SkipBalanced(TokKind::kLParen, TokKind::kRParen);
    for (size_t i = params_begin; i + 1 < pos_; ++i) {
      if (toks_[i].kind == TokKind::kIdent && toks_[i].text == "Snapshot") {
        fn.has_snapshot_param = true;
      }
    }

    // Trailer: cv-qualifiers, noexcept, thread-safety annotations, trailing
    // return type — up to the body '{', a ';' declaration end, '=' for
    // `= default/delete/0`, or ':' starting a constructor init list.
    while (!AtEnd()) {
      const Token& t = Peek();
      if (t.kind == TokKind::kSemi) {
        ++pos_;
        // Declarations only matter for their REQUIRES clause (merged into
        // the definition's model at tree level).
        if (!fn.requires_exprs.empty()) {
          file_.functions.push_back(std::move(fn));
        }
        return;
      }
      if (t.kind == TokKind::kAssign) {
        SkipToSemi();
        if (!fn.requires_exprs.empty()) {
          file_.functions.push_back(std::move(fn));
        }
        return;
      }
      if (t.kind == TokKind::kLBrace) {
        ParseFunctionBody(&fn);
        file_.functions.push_back(std::move(fn));
        return;
      }
      if (t.kind == TokKind::kColon) {
        SkipCtorInitList();
        continue;
      }
      if (t.kind == TokKind::kIdent &&
          (t.text == "REQUIRES" || t.text == "EXCLUSIVE_LOCKS_REQUIRED")) {
        ++pos_;
        if (Peek().kind == TokKind::kLParen) {
          CaptureParenExprs(&fn.requires_exprs);
        }
        continue;
      }
      if (t.kind == TokKind::kLParen) {
        SkipBalanced(TokKind::kLParen, TokKind::kRParen);
        continue;
      }
      if (t.kind == TokKind::kRBrace || t.kind == TokKind::kEnd) return;
      ++pos_;
    }
    (void)in_class;
  }

  /// Positioned at the ':' of a constructor init list. Consumes up to the
  /// body '{' (left unconsumed). Member initializer braces (`a_{1}`)
  /// follow an identifier or '>'; the body brace follows ')' or '}'.
  void SkipCtorInitList() {
    ++pos_;  // ':'
    TokKind prev = TokKind::kColon;
    while (!AtEnd()) {
      const Token& t = Peek();
      if (t.kind == TokKind::kLParen) {
        SkipBalanced(TokKind::kLParen, TokKind::kRParen);
        prev = TokKind::kRParen;
        continue;
      }
      if (t.kind == TokKind::kLess) {
        SkipAngles();
        prev = TokKind::kGreater;
        continue;
      }
      if (t.kind == TokKind::kLBrace) {
        if (prev == TokKind::kRParen || prev == TokKind::kRBrace) {
          return;  // function body
        }
        SkipBalanced(TokKind::kLBrace, TokKind::kRBrace);
        prev = TokKind::kRBrace;
        continue;
      }
      if (t.kind == TokKind::kSemi || t.kind == TokKind::kEnd) return;
      prev = t.kind;
      ++pos_;
    }
  }

  /// Positioned at a '(': splits the balanced argument list at top-level
  /// commas into joined expression strings ("store.write_mu_").
  void CaptureParenExprs(std::vector<std::string>* out) {
    int depth = 0;
    std::string cur;
    while (!AtEnd()) {
      const Token& t = Peek();
      if (t.kind == TokKind::kLParen) {
        if (depth++ > 0) cur += '(';
        ++pos_;
        continue;
      }
      if (t.kind == TokKind::kRParen) {
        ++pos_;
        if (--depth == 0) break;
        cur += ')';
        continue;
      }
      if (t.kind == TokKind::kComma && depth == 1) {
        if (!cur.empty()) out->push_back(cur);
        cur.clear();
        ++pos_;
        continue;
      }
      if (t.kind == TokKind::kEnd) break;
      if (t.kind != TokKind::kAmp || !cur.empty()) {
        cur += JoinSpelling(t);
      }
      ++pos_;
    }
    if (!cur.empty()) out->push_back(cur);
  }

  static std::string JoinSpelling(const Token& t) {
    if (t.kind == TokKind::kArrow) return "->";
    return std::string(t.text);
  }

  // --- Function bodies -----------------------------------------------------

  void ParseFunctionBody(FunctionModel* fn);

  std::vector<Token> toks_;
  size_t pos_ = 0;
  std::vector<std::string> lines_;
  FlowFile file_;
};

/// True when the held set includes the store's writer lock — directly, via
/// a WriterScope (which asserts it), or via a REQUIRES clause. A writer
/// reads its own pending epoch, so this covers read-path calls.
bool HoldsWriteLock(const std::vector<HeldLock>& held) {
  for (const HeldLock& h : held) {
    if (h.kind == HeldLock::Kind::kWriterScope) return true;
    if (h.mutex_expr.size() >= 9 &&
        h.mutex_expr.compare(h.mutex_expr.size() - 9, 9, "write_mu_") == 0) {
      return true;
    }
  }
  return false;
}

/// Walks a function body tracking `{}` scopes. Every '{' pushes a scope
/// and every '}' pops one — initializer braces get a (lockless) scope of
/// their own, which is harmless because the tracked facts are RAII
/// declarations that cannot appear inside an initializer.
void FlowParser::ParseFunctionBody(FunctionModel* fn) {
  struct Block {
    std::vector<HeldLock> locks;
    std::vector<int> snapshots;
  };
  std::vector<Block> blocks;
  blocks.emplace_back();
  for (const std::string& expr : fn->requires_exprs) {
    blocks.back().locks.push_back({HeldLock::Kind::kRequires, expr, fn->line});
  }
  ++pos_;  // the body '{'

  auto held_locks = [&blocks] {
    std::vector<HeldLock> all;
    for (const Block& b : blocks) {
      all.insert(all.end(), b.locks.begin(), b.locks.end());
    }
    return all;
  };
  auto snapshot_line = [&blocks] {
    for (size_t i = blocks.size(); i-- > 0;) {
      if (!blocks[i].snapshots.empty()) return blocks[i].snapshots.back();
    }
    return 0;
  };

  while (!AtEnd()) {
    const Token& t = Peek();
    if (t.kind == TokKind::kDirective) {
      ++pos_;
      continue;
    }
    if (t.kind == TokKind::kLBrace) {
      blocks.emplace_back();
      ++pos_;
      continue;
    }
    if (t.kind == TokKind::kRBrace) {
      blocks.pop_back();
      ++pos_;
      if (blocks.empty()) return;
      continue;
    }
    if (t.kind != TokKind::kIdent) {
      ++pos_;
      continue;
    }
    const std::string_view id = t.text;

    // Lock RAII declaration: [util::] MutexLock|UniqueLock var(&expr, ...).
    if ((id == "MutexLock" || id == "UniqueLock") &&
        Peek(1).kind == TokKind::kIdent && Peek(2).kind == TokKind::kLParen) {
      HeldLock lock;
      lock.kind = id == "MutexLock" ? HeldLock::Kind::kMutexLock
                                    : HeldLock::Kind::kUniqueLock;
      lock.line = t.line;
      pos_ += 2;  // now at '('
      std::vector<std::string> args;
      CaptureParenExprs(&args);
      if (!args.empty()) lock.mutex_expr = args[0];
      fn->acquisitions.push_back({lock, held_locks()});
      blocks.back().locks.push_back(std::move(lock));
      continue;
    }

    // Snapshot pin: [trim::] TripleStore::Snapshot var(store).
    if (id == "Snapshot" && Prev(1).kind == TokKind::kScope &&
        Prev(2).kind == TokKind::kIdent && Prev(2).text == "TripleStore" &&
        Peek(1).kind == TokKind::kIdent &&
        (Peek(2).kind == TokKind::kLParen ||
         Peek(2).kind == TokKind::kLBrace)) {
      blocks.back().snapshots.push_back(t.line);
      pos_ += 2;
      continue;
    }

    // Writer batch entered: WriterScope var(store).
    if (id == "WriterScope" && Peek(1).kind == TokKind::kIdent &&
        Peek(2).kind == TokKind::kLParen) {
      // A WriterScope *asserts* the writer lock rather than acquiring it,
      // so it joins the held set but is not an acquisition event (no
      // trim.store.write self-edge from the lock-then-scope idiom).
      blocks.back().locks.push_back({HeldLock::Kind::kWriterScope, "", t.line});
      if (int pin = snapshot_line(); pin != 0) {
        fn->pinned_writes.push_back(
            {"WriterScope", t.line, pin,
             LineHasAllow(t.line, "snapshot-discipline")});
      }
      pos_ += 2;
      continue;
    }

    // Plain call site: ident '('.
    if (Peek(1).kind == TokKind::kLParen && !IsControlKeyword(id)) {
      if (id == "BeginRead") fn->calls_begin_read = true;
      std::string receiver;
      if ((Prev(1).kind == TokKind::kDot || Prev(1).kind == TokKind::kArrow) &&
          Prev(2).kind == TokKind::kIdent) {
        receiver = std::string(Prev(2).text);
      }
      const int pin = snapshot_line();
      std::vector<HeldLock> held = held_locks();

      if (IsReadPathCallee(id)) {
        ReadCall rc;
        rc.callee = std::string(id);
        rc.line = t.line;
        rc.covered = pin != 0 || fn->has_snapshot_param ||
                     fn->calls_begin_read || HoldsWriteLock(held);
        rc.suppressed = LineHasAllow(t.line, "snapshot-discipline");
        fn->reads.push_back(std::move(rc));
      }
      if (IsBlockingCallee(id)) {
        BlockingCall bc;
        bc.callee = std::string(id);
        bc.line = t.line;
        bc.held = held;
        bc.snapshot_live = pin != 0;
        bc.snapshot_line = pin;
        bc.suppressed = LineHasAllow(t.line, "lock-across-blocking");
        fn->blocking.push_back(std::move(bc));
        if (pin != 0) {
          fn->pinned_writes.push_back(
              {"blocking call '" + std::string(id) + "'", t.line, pin,
               LineHasAllow(t.line, "snapshot-discipline")});
        }
      }
      if (id == "ApplyBatch" && pin != 0) {
        fn->pinned_writes.push_back(
            {"ApplyBatch", t.line, pin,
             LineHasAllow(t.line, "snapshot-discipline")});
      }
      CallSite cs;
      cs.callee = std::string(id);
      cs.receiver = std::move(receiver);
      cs.line = t.line;
      cs.held = std::move(held);
      cs.snapshot_live = pin != 0;
      fn->calls.push_back(std::move(cs));
      ++pos_;
      continue;
    }
    ++pos_;
  }
}

}  // namespace

FlowFile BuildFlowModel(const std::string& relative_path,
                        std::string_view contents) {
  return FlowParser(relative_path, contents).Run();
}

// ---------------------------------------------------------------------------
// FlowIndex
// ---------------------------------------------------------------------------

namespace {

/// Trailing member identifier of a mutex expression: "store.write_mu_" →
/// "write_mu_", "this->mu_" → "mu_", "mu_" → "mu_".
std::string TrailingMember(const std::string& expr) {
  size_t cut = expr.find_last_of(".>:");
  return cut == std::string::npos ? expr : expr.substr(cut + 1);
}

/// Leading receiver identifier, or "" when the expression is a bare name.
std::string LeadingReceiver(const std::string& expr) {
  size_t cut = expr.find_first_of(".-:");
  return cut == std::string::npos ? "" : expr.substr(0, cut);
}

}  // namespace

void FlowIndex::Add(const FlowFile& file) {
  for (const MutexDecl& m : file.mutexes) {
    if (m.raw || m.site.empty()) continue;
    by_class_[{m.class_name, m.member}] = m.site;
    by_member_[m.member].insert(m.site);
    class_sites_[m.class_name].push_back(m.site);
  }
  for (const FieldDecl& f : file.fields) {
    field_types_[{f.class_name, f.name}] = f.type_text;
  }
}

std::vector<std::string> FlowIndex::ResolveSites(
    const std::string& class_name, const std::string& mutex_expr) const {
  if (mutex_expr.empty()) return {};
  const std::string member = TrailingMember(mutex_expr);
  if (member.empty()) return {};
  const std::string receiver = LeadingReceiver(mutex_expr);

  // A bare member (or `this->member`) resolves only against the enclosing
  // class and namespace-scope globals: falling back to a tree-wide name
  // match for common spellings like "mu_" would cross-wire unrelated
  // classes' locks.
  auto it = by_class_.find({class_name, member});
  if (it != by_class_.end()) return {it->second};
  it = by_class_.find({std::string(), member});
  if (it != by_class_.end()) return {it->second};
  if (receiver.empty() || receiver == "this") return {};

  // `obj.member`: the receiver's declared field type names the owner class.
  const std::string& type = FieldType(class_name, receiver);
  std::string word;
  for (size_t i = 0; i <= type.size(); ++i) {
    if (i < type.size() && (std::isalnum(static_cast<unsigned char>(type[i])) ||
                            type[i] == '_')) {
      word.push_back(type[i]);
      continue;
    }
    if (!word.empty()) {
      auto owner = by_class_.find({word, member});
      if (owner != by_class_.end()) return {owner->second};
      word.clear();
    }
  }

  // Receiver type unknown (a parameter or local): fall back to every class
  // declaring this member name — the caller treats multiple candidates
  // conservatively.
  auto mt = by_member_.find(member);
  if (mt != by_member_.end()) {
    return std::vector<std::string>(mt->second.begin(), mt->second.end());
  }
  return {};
}

const std::string& FlowIndex::FieldType(const std::string& class_name,
                                        const std::string& field) const {
  static const std::string kEmpty;
  auto it = field_types_.find({class_name, field});
  return it == field_types_.end() ? kEmpty : it->second;
}

std::vector<std::string> FlowIndex::ClassSites(
    const std::string& class_name) const {
  auto it = class_sites_.find(class_name);
  return it == class_sites_.end() ? std::vector<std::string>() : it->second;
}

std::vector<std::string> ResolveCalleeKeys(
    const FlowIndex& index, const std::string& caller_class,
    const CallSite& call,
    const std::map<std::string, std::vector<std::string>>& by_simple) {
  auto it = by_simple.find(call.callee);
  if (it == by_simple.end()) return {};
  std::vector<std::string> out;
  if (call.receiver.empty() || call.receiver == "this") {
    for (const std::string& key : it->second) {
      if (key == caller_class + "::" + call.callee ||
          key == "::" + call.callee) {
        out.push_back(key);
      }
    }
    return out;
  }
  const std::string& type = index.FieldType(caller_class, call.receiver);
  if (type.empty()) return {};
  for (const std::string& key : it->second) {
    size_t cut = key.rfind("::");
    std::string cls = key.substr(0, cut);
    if (cls.empty()) continue;
    // Whole-word match of the class name inside the field's type text.
    size_t at = type.find(cls);
    while (at != std::string::npos) {
      bool left_ok = at == 0 || !(std::isalnum(static_cast<unsigned char>(
                                      type[at - 1])) ||
                                  type[at - 1] == '_');
      size_t end = at + cls.size();
      bool right_ok =
          end >= type.size() ||
          !(std::isalnum(static_cast<unsigned char>(type[end])) ||
            type[end] == '_');
      if (left_ok && right_ok) {
        out.push_back(key);
        break;
      }
      at = type.find(cls, at + 1);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

namespace {

/// Same layer set as the legacy raw-mutex scanner: layers whose locks feed
/// the obs.lock.* contention telemetry.
bool InInstrumentedLayerPath(const std::string& relative_path) {
  static const char* const kLayers[] = {"src/trim/", "src/slim/", "src/obs/",
                                        "src/workload/"};
  for (const char* layer : kLayers) {
    if (relative_path.rfind(layer, 0) == 0) return true;
  }
  return false;
}

/// Layers where the snapshot-discipline contract applies (the MVCC store
/// and its query layer).
bool InSnapshotLayer(const std::string& relative_path) {
  return relative_path.rfind("src/trim/", 0) == 0 ||
         relative_path.rfind("src/slim/", 0) == 0;
}

std::string JoinQuoted(const std::vector<std::string>& items) {
  std::string out;
  for (const std::string& s : items) {
    if (!out.empty()) out += ", ";
    out += "'" + s + "'";
  }
  return out;
}

}  // namespace

void LintRawMutexModel(const FlowFile& file, std::vector<Diagnostic>* out) {
  if (!InInstrumentedLayerPath(file.path)) return;
  size_t layer_end = file.path.find('/', 4);
  std::string layer = file.path.substr(4, layer_end - 4);
  for (const MutexDecl& m : file.mutexes) {
    if (!m.raw || m.suppressed) continue;
    out->push_back(
        {file.path, m.line, "raw-mutex",
         "raw std::mutex declared in instrumented layer '" + layer +
             "'; use util::InstrumentedMutex with a named lock site, or "
             "annotate the line with '// slim-lint: allow(raw-mutex)'"});
  }
}

void LintGuardedByCoverage(const FlowFile& file, const FlowIndex& index,
                           std::vector<Diagnostic>* out) {
  if (file.path.rfind("src/", 0) != 0) return;
  std::set<std::string> owners;
  for (const MutexDecl& m : file.mutexes) {
    if (!m.raw && !m.class_name.empty()) owners.insert(m.class_name);
  }
  if (owners.empty()) return;
  for (const FieldDecl& f : file.fields) {
    if (owners.count(f.class_name) == 0) continue;
    if (f.guarded || f.is_const || f.is_atomic || f.suppressed) continue;
    std::string sites = JoinQuoted(index.ClassSites(f.class_name));
    out->push_back(
        {file.path, f.line, "guarded-by-coverage",
         "mutable field '" + f.name + "' of '" + f.class_name +
             "' (which owns InstrumentedMutex " + sites +
             ") lacks GUARDED_BY(...); name the guarding mutex or add '// "
             "slim-lint: allow(unguarded) -- <why>'"});
  }
}

void LintLockAcrossBlocking(const FlowFile& file, const FlowIndex& index,
                            std::vector<Diagnostic>* out) {
  if (file.path.rfind("src/", 0) != 0) return;
  for (const FunctionModel& fn : file.functions) {
    for (const BlockingCall& bc : fn.blocking) {
      if (bc.suppressed) continue;
      std::set<std::string> sites;
      for (const HeldLock& h : bc.held) {
        if (h.kind == HeldLock::Kind::kWriterScope) {
          sites.insert("trim.store.write");
          continue;
        }
        for (std::string& s : index.ResolveSites(fn.class_name, h.mutex_expr)) {
          sites.insert(std::move(s));
        }
      }
      if (sites.empty()) continue;
      std::vector<std::string> sorted(sites.begin(), sites.end());
      out->push_back(
          {file.path, bc.line, "lock-across-blocking",
           "lock on " + JoinQuoted(sorted) + " held across blocking call '" +
               bc.callee +
               "()' — every contender stalls on the site; release the lock "
               "before blocking or add '// slim-lint: "
               "allow(lock-across-blocking) -- <why>'"});
    }
  }
}

void LintSnapshotDiscipline(const std::vector<FlowFile>& files,
                            const FlowIndex& index,
                            std::vector<Diagnostic>* out) {
  std::vector<Diagnostic> found;

  // Local half: a Snapshot pin alive around a writer batch or a blocking
  // call stalls epoch reclamation for every writer.
  for (const FlowFile& file : files) {
    if (!InSnapshotLayer(file.path)) continue;
    for (const FunctionModel& fn : file.functions) {
      for (const PinnedWrite& pw : fn.pinned_writes) {
        if (pw.suppressed) continue;
        found.push_back(
            {file.path, pw.line, "snapshot-discipline",
             "TripleStore::Snapshot taken at line " +
                 std::to_string(pw.snapshot_line) + " is still live around " +
                 pw.what +
                 " — a live pin stalls epoch reclamation; end the snapshot "
                 "first or add '// slim-lint: allow(snapshot-discipline) -- "
                 "<why>'"});
      }
    }
  }

  // Interprocedural half: an uncovered read-path call may be covered by
  // any caller's pin, so uncovered reads propagate up the (simple-name)
  // call graph and are reported only when still exposed at a root.
  struct Origin {
    const FlowFile* file;
    int line;
    std::string callee;
  };
  std::map<std::string, bool> covered;                     // key: Class::name
  std::map<std::string, std::vector<std::string>> by_simple;  // name -> keys
  for (const FlowFile& file : files) {
    if (file.path.rfind("src/", 0) != 0) continue;
    for (const FunctionModel& fn : file.functions) {
      std::string key = fn.class_name + "::" + fn.name;
      bool self = fn.has_snapshot_param || fn.calls_begin_read;
      for (const std::string& expr : fn.requires_exprs) {
        if (TrailingMember(expr) == "write_mu_") self = true;
      }
      auto [it, inserted] = covered.emplace(key, self);
      if (!inserted) it->second |= self;
      if (inserted) by_simple[fn.name].push_back(key);
    }
  }

  std::vector<Origin> origins;
  std::map<std::string, std::vector<size_t>> escaping;  // key -> origin idx
  std::set<std::pair<std::string, size_t>> seen;
  for (const FlowFile& file : files) {
    if (!InSnapshotLayer(file.path)) continue;
    for (const FunctionModel& fn : file.functions) {
      // The store's own implementation (and its Snapshot pin object) runs
      // the internal BeginRead/EndRead protocol; the rule targets its
      // *clients*, whose delegating wrappers must pin around multi-read
      // sequences.
      if (fn.class_name == "TripleStore" || fn.class_name == "Snapshot") {
        continue;
      }
      std::string key = fn.class_name + "::" + fn.name;
      if (covered[key]) continue;
      for (const ReadCall& rc : fn.reads) {
        if (rc.covered || rc.suppressed) continue;
        origins.push_back({&file, rc.line, rc.callee});
        escaping[key].push_back(origins.size() - 1);
        seen.insert({key, origins.size() - 1});
      }
    }
  }

  std::set<std::string> called_names;
  bool changed = !origins.empty();
  while (changed) {
    changed = false;
    for (const FlowFile& file : files) {
      if (file.path.rfind("src/", 0) != 0) continue;
      for (const FunctionModel& fn : file.functions) {
        std::string caller_key = fn.class_name + "::" + fn.name;
        if (covered[caller_key]) continue;
        for (const CallSite& cs : fn.calls) {
          if (cs.snapshot_live || HoldsWriteLock(cs.held)) continue;
          for (const std::string& callee_key :
               ResolveCalleeKeys(index, fn.class_name, cs, by_simple)) {
            if (callee_key == caller_key) continue;
            auto esc = escaping.find(callee_key);
            if (esc == escaping.end()) continue;
            for (size_t idx : esc->second) {
              if (seen.insert({caller_key, idx}).second) {
                escaping[caller_key].push_back(idx);
                changed = true;
              }
            }
          }
        }
      }
    }
  }
  for (const FlowFile& file : files) {
    if (file.path.rfind("src/", 0) != 0) continue;
    for (const FunctionModel& fn : file.functions) {
      for (const CallSite& cs : fn.calls) called_names.insert(cs.callee);
    }
  }

  std::set<std::pair<std::string, int>> reported;
  for (const auto& [key, idxs] : escaping) {
    size_t cut = key.rfind("::");
    std::string simple = key.substr(cut + 2);
    if (called_names.count(simple) != 0) continue;  // judged at its callers
    for (size_t idx : idxs) {
      const Origin& o = origins[idx];
      if (!reported.insert({o.file->path, o.line}).second) continue;
      found.push_back(
          {o.file->path, o.line, "snapshot-discipline",
           "read path '" + o.callee +
               "' is reachable without a live TripleStore::Snapshot (no "
               "pin, snapshot parameter, BeginRead or writer lock on any "
               "call path); pin a snapshot before reading or add '// "
               "slim-lint: allow(snapshot-discipline) -- <why>'"});
    }
  }

  std::sort(found.begin(), found.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return a.file != b.file ? a.file < b.file : a.line < b.line;
            });
  out->insert(out->end(), found.begin(), found.end());
}

}  // namespace slim::lint
