#include "doc/spreadsheet/formula.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>

#include "util/strings.h"

namespace slim::doc {

namespace {

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

enum class TokKind {
  kNumber, kString, kIdent, kLParen, kRParen, kComma, kColon, kBang,
  kPlus, kMinus, kStar, kSlash, kCaret, kAmp,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kEnd,
};

struct Token {
  TokKind kind;
  double number = 0;
  std::string text;  // ident (original case) or string literal contents
  size_t pos = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view src) : src_(src) {}

  Result<std::vector<Token>> Run() {
    std::vector<Token> out;
    while (true) {
      SkipSpace();
      size_t pos = i_;
      if (i_ >= src_.size()) {
        out.push_back({TokKind::kEnd, 0, "", pos});
        return out;
      }
      char c = src_[i_];
      if (std::isdigit(static_cast<unsigned char>(c)) ||
          (c == '.' && i_ + 1 < src_.size() &&
           std::isdigit(static_cast<unsigned char>(src_[i_ + 1])))) {
        SLIM_ASSIGN_OR_RETURN(Token t, LexNumber());
        out.push_back(std::move(t));
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        out.push_back(LexIdent());
        continue;
      }
      if (c == '"') {
        SLIM_ASSIGN_OR_RETURN(Token t, LexString());
        out.push_back(std::move(t));
        continue;
      }
      if (c == '\'') {
        // Quoted sheet name: 'My Sheet'!A1 — lexed as an ident token.
        SLIM_ASSIGN_OR_RETURN(Token t, LexQuotedSheet());
        out.push_back(std::move(t));
        continue;
      }
      ++i_;
      switch (c) {
        case '(': out.push_back({TokKind::kLParen, 0, "", pos}); break;
        case ')': out.push_back({TokKind::kRParen, 0, "", pos}); break;
        case ',': out.push_back({TokKind::kComma, 0, "", pos}); break;
        case ':': out.push_back({TokKind::kColon, 0, "", pos}); break;
        case '!': out.push_back({TokKind::kBang, 0, "", pos}); break;
        case '+': out.push_back({TokKind::kPlus, 0, "", pos}); break;
        case '-': out.push_back({TokKind::kMinus, 0, "", pos}); break;
        case '*': out.push_back({TokKind::kStar, 0, "", pos}); break;
        case '/': out.push_back({TokKind::kSlash, 0, "", pos}); break;
        case '^': out.push_back({TokKind::kCaret, 0, "", pos}); break;
        case '&': out.push_back({TokKind::kAmp, 0, "", pos}); break;
        case '=': out.push_back({TokKind::kEq, 0, "", pos}); break;
        case '<':
          if (i_ < src_.size() && src_[i_] == '>') {
            ++i_;
            out.push_back({TokKind::kNe, 0, "", pos});
          } else if (i_ < src_.size() && src_[i_] == '=') {
            ++i_;
            out.push_back({TokKind::kLe, 0, "", pos});
          } else {
            out.push_back({TokKind::kLt, 0, "", pos});
          }
          break;
        case '>':
          if (i_ < src_.size() && src_[i_] == '=') {
            ++i_;
            out.push_back({TokKind::kGe, 0, "", pos});
          } else {
            out.push_back({TokKind::kGt, 0, "", pos});
          }
          break;
        case '$':
          // Absolute-reference marker; transparent to evaluation. It must be
          // glued to a following ident/number, which the next loop iteration
          // lexes.
          break;
        default:
          return Status::ParseError("unexpected character '" +
                                    std::string(1, c) + "' at position " +
                                    std::to_string(pos));
      }
    }
  }

 private:
  void SkipSpace() {
    while (i_ < src_.size() &&
           std::isspace(static_cast<unsigned char>(src_[i_]))) {
      ++i_;
    }
  }

  Result<Token> LexNumber() {
    size_t pos = i_;
    size_t start = i_;
    while (i_ < src_.size() &&
           (std::isdigit(static_cast<unsigned char>(src_[i_])) ||
            src_[i_] == '.')) {
      ++i_;
    }
    // Exponent part.
    if (i_ < src_.size() && (src_[i_] == 'e' || src_[i_] == 'E')) {
      size_t save = i_;
      ++i_;
      if (i_ < src_.size() && (src_[i_] == '+' || src_[i_] == '-')) ++i_;
      if (i_ < src_.size() && std::isdigit(static_cast<unsigned char>(src_[i_]))) {
        while (i_ < src_.size() &&
               std::isdigit(static_cast<unsigned char>(src_[i_]))) {
          ++i_;
        }
      } else {
        i_ = save;  // 'E' belongs to something else (e.g. a cell ref typo)
      }
    }
    double v = 0;
    if (!ParseDouble(src_.substr(start, i_ - start), &v)) {
      return Status::ParseError("malformed number at position " +
                                std::to_string(pos));
    }
    return Token{TokKind::kNumber, v, "", pos};
  }

  Token LexIdent() {
    size_t pos = i_;
    size_t start = i_;
    while (i_ < src_.size() &&
           (std::isalnum(static_cast<unsigned char>(src_[i_])) ||
            src_[i_] == '_' || src_[i_] == '$' || src_[i_] == '.')) {
      ++i_;
    }
    std::string text(src_.substr(start, i_ - start));
    // Strip '$' absolute markers inside refs like B$2.
    text = ReplaceAll(text, "$", "");
    return Token{TokKind::kIdent, 0, std::move(text), pos};
  }

  Result<Token> LexString() {
    size_t pos = i_;
    ++i_;  // opening quote
    std::string text;
    while (i_ < src_.size()) {
      char c = src_[i_++];
      if (c == '"') {
        if (i_ < src_.size() && src_[i_] == '"') {  // doubled quote escape
          text.push_back('"');
          ++i_;
          continue;
        }
        return Token{TokKind::kString, 0, std::move(text), pos};
      }
      text.push_back(c);
    }
    return Status::ParseError("unterminated string literal at position " +
                              std::to_string(pos));
  }

  Result<Token> LexQuotedSheet() {
    size_t pos = i_;
    ++i_;  // opening quote
    std::string text;
    while (i_ < src_.size()) {
      char c = src_[i_++];
      if (c == '\'') {
        if (i_ < src_.size() && src_[i_] == '\'') {
          text.push_back('\'');
          ++i_;
          continue;
        }
        return Token{TokKind::kIdent, 0, std::move(text), pos};
      }
      text.push_back(c);
    }
    return Status::ParseError("unterminated sheet name at position " +
                              std::to_string(pos));
  }

  std::string_view src_;
  size_t i_ = 0;
};

// ---------------------------------------------------------------------------
// Parser (recursive descent; precedence: cmp < & < +- < */ < unary < ^)
// ---------------------------------------------------------------------------

bool LooksLikeCellRef(const std::string& ident) {
  size_t i = 0;
  while (i < ident.size() &&
         std::isalpha(static_cast<unsigned char>(ident[i]))) {
    ++i;
  }
  if (i == 0 || i > 4 || i == ident.size()) return false;
  for (size_t j = i; j < ident.size(); ++j) {
    if (!std::isdigit(static_cast<unsigned char>(ident[j]))) return false;
  }
  return true;
}

class Parser {
 public:
  explicit Parser(std::vector<Token> toks) : toks_(std::move(toks)) {}

  Result<std::unique_ptr<Expr>> Run() {
    SLIM_ASSIGN_OR_RETURN(Node n, ParseCompare());
    if (Peek().kind != TokKind::kEnd) {
      return Status::ParseError("trailing input at position " +
                                std::to_string(Peek().pos));
    }
    return std::move(n.expr);
  }

 private:
  /// A parsed subtree and its depth (a leaf is 1), kept within
  /// kMaxFormulaDepth.
  struct Node {
    std::unique_ptr<Expr> expr;
    size_t depth = 1;
  };

  const Token& Peek() const { return toks_[i_]; }
  Token Take() { return toks_[i_++]; }
  bool Accept(TokKind k) {
    if (Peek().kind == k) {
      ++i_;
      return true;
    }
    return false;
  }

  Status TooDeep() const {
    return Status::ParseError("formula nested deeper than " +
                              std::to_string(kMaxFormulaDepth) +
                              " levels at position " +
                              std::to_string(Peek().pos));
  }

  // Runs `parse` one level of parser nesting deeper.
  Result<Node> Nested(Result<Node> (Parser::*parse)()) {
    if (nesting_ == kMaxFormulaDepth) return TooDeep();
    ++nesting_;
    Result<Node> n = (this->*parse)();
    --nesting_;
    return n;
  }

  // Wraps `e` over children of the given depth.
  Result<Node> Wrap(std::unique_ptr<Expr> e, size_t child_depth) const {
    if (child_depth + 1 > kMaxFormulaDepth) return TooDeep();
    return Node{std::move(e), child_depth + 1};
  }

  Result<Node> ParseCompare() {
    SLIM_ASSIGN_OR_RETURN(Node lhs, ParseConcat());
    while (true) {
      BinaryOp op;
      switch (Peek().kind) {
        case TokKind::kEq: op = BinaryOp::kEq; break;
        case TokKind::kNe: op = BinaryOp::kNe; break;
        case TokKind::kLt: op = BinaryOp::kLt; break;
        case TokKind::kLe: op = BinaryOp::kLe; break;
        case TokKind::kGt: op = BinaryOp::kGt; break;
        case TokKind::kGe: op = BinaryOp::kGe; break;
        default: return lhs;
      }
      Take();
      SLIM_ASSIGN_OR_RETURN(Node rhs, ParseConcat());
      SLIM_ASSIGN_OR_RETURN(lhs,
                            MakeBinary(op, std::move(lhs), std::move(rhs)));
    }
  }

  Result<Node> ParseConcat() {
    SLIM_ASSIGN_OR_RETURN(Node lhs, ParseAdd());
    while (Accept(TokKind::kAmp)) {
      SLIM_ASSIGN_OR_RETURN(Node rhs, ParseAdd());
      SLIM_ASSIGN_OR_RETURN(lhs, MakeBinary(BinaryOp::kConcat, std::move(lhs),
                                            std::move(rhs)));
    }
    return lhs;
  }

  Result<Node> ParseAdd() {
    SLIM_ASSIGN_OR_RETURN(Node lhs, ParseMul());
    while (true) {
      BinaryOp op;
      if (Accept(TokKind::kPlus)) {
        op = BinaryOp::kAdd;
      } else if (Accept(TokKind::kMinus)) {
        op = BinaryOp::kSub;
      } else {
        return lhs;
      }
      SLIM_ASSIGN_OR_RETURN(Node rhs, ParseMul());
      SLIM_ASSIGN_OR_RETURN(lhs,
                            MakeBinary(op, std::move(lhs), std::move(rhs)));
    }
  }

  Result<Node> ParseMul() {
    SLIM_ASSIGN_OR_RETURN(Node lhs, ParsePower());
    while (true) {
      BinaryOp op;
      if (Accept(TokKind::kStar)) {
        op = BinaryOp::kMul;
      } else if (Accept(TokKind::kSlash)) {
        op = BinaryOp::kDiv;
      } else {
        return lhs;
      }
      SLIM_ASSIGN_OR_RETURN(Node rhs, ParsePower());
      SLIM_ASSIGN_OR_RETURN(lhs,
                            MakeBinary(op, std::move(lhs), std::move(rhs)));
    }
  }

  // Spreadsheet precedence quirk: unary minus binds tighter than '^', so
  // -2^2 evaluates to (-2)^2 = 4. '^' is right associative.
  Result<Node> ParsePower() {
    SLIM_ASSIGN_OR_RETURN(Node lhs, ParseUnary());
    if (Accept(TokKind::kCaret)) {
      SLIM_ASSIGN_OR_RETURN(Node rhs, Nested(&Parser::ParsePower));
      return MakeBinary(BinaryOp::kPow, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<Node> ParseUnary() {
    bool minus = Accept(TokKind::kMinus);
    if (!minus && !Accept(TokKind::kPlus)) return ParsePrimary();
    SLIM_ASSIGN_OR_RETURN(Node operand, Nested(&Parser::ParseUnary));
    if (!minus) return operand;  // unary plus: no-op
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kUnaryMinus;
    e->lhs = std::move(operand.expr);
    return Wrap(std::move(e), operand.depth);
  }

  Result<Node> ParsePrimary() {
    const Token& t = Peek();
    switch (t.kind) {
      case TokKind::kNumber: {
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::kNumber;
        e->number = Take().number;
        return Node{std::move(e)};
      }
      case TokKind::kString: {
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::kString;
        e->text = Take().text;
        return Node{std::move(e)};
      }
      case TokKind::kLParen: {
        Take();
        SLIM_ASSIGN_OR_RETURN(Node e, Nested(&Parser::ParseCompare));
        if (!Accept(TokKind::kRParen)) {
          return Status::ParseError("expected ')' at position " +
                                    std::to_string(Peek().pos));
        }
        return e;
      }
      case TokKind::kIdent:
        return ParseIdentLed();
      default:
        return Status::ParseError("unexpected token at position " +
                                  std::to_string(t.pos));
    }
  }

  // Identifier-led production: TRUE/FALSE, function call, cell ref, range,
  // or sheet-qualified ref.
  Result<Node> ParseIdentLed() {
    Token ident = Take();
    std::string upper = ToUpper(ident.text);

    if (upper == "TRUE" || upper == "FALSE") {
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kBool;
      e->boolean = (upper == "TRUE");
      return Node{std::move(e)};
    }

    if (Peek().kind == TokKind::kLParen) {
      Take();
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kCall;
      e->callee = upper;
      size_t args_depth = 0;
      if (!Accept(TokKind::kRParen)) {
        while (true) {
          SLIM_ASSIGN_OR_RETURN(Node arg, Nested(&Parser::ParseCompare));
          args_depth = std::max(args_depth, arg.depth);
          e->args.push_back(std::move(arg.expr));
          if (Accept(TokKind::kComma)) continue;
          if (Accept(TokKind::kRParen)) break;
          return Status::ParseError("expected ',' or ')' at position " +
                                    std::to_string(Peek().pos));
        }
      }
      return Wrap(std::move(e), args_depth);
    }

    if (Peek().kind == TokKind::kBang) {
      // Sheet-qualified reference: Sheet!A1 or Sheet!A1:B2.
      Take();
      if (Peek().kind != TokKind::kIdent) {
        return Status::ParseError("expected cell reference after '!'");
      }
      Token cell_tok = Take();
      return FinishReference(ident.text, cell_tok.text, cell_tok.pos);
    }

    if (LooksLikeCellRef(ident.text)) {
      return FinishReference("", ident.text, ident.pos);
    }

    return Status::ParseError("unknown identifier '" + ident.text +
                              "' at position " + std::to_string(ident.pos));
  }

  // Parses the optional ':End' range tail, then builds the ref node.
  Result<Node> FinishReference(const std::string& sheet,
                               const std::string& start_text, size_t pos) {
    SLIM_ASSIGN_OR_RETURN(CellRef start, ParseCellOr(start_text, pos));
    if (Accept(TokKind::kColon)) {
      if (Peek().kind != TokKind::kIdent) {
        return Status::ParseError("expected cell reference after ':'");
      }
      Token end_tok = Take();
      SLIM_ASSIGN_OR_RETURN(CellRef end, ParseCellOr(end_tok.text, end_tok.pos));
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kRangeRef;
      e->sheet = sheet;
      e->range = RangeRef{start, end}.Normalized();
      return Node{std::move(e)};
    }
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kCellRef;
    e->sheet = sheet;
    e->cell = start;
    return Node{std::move(e)};
  }

  Result<CellRef> ParseCellOr(const std::string& text, size_t pos) {
    Result<CellRef> r = ParseCell(text);
    if (!r.ok()) {
      return Status::ParseError("malformed cell reference '" + text +
                                "' at position " + std::to_string(pos));
    }
    return r;
  }

  Result<Node> MakeBinary(BinaryOp op, Node lhs, Node rhs) const {
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kBinary;
    e->op = op;
    e->lhs = std::move(lhs.expr);
    e->rhs = std::move(rhs.expr);
    return Wrap(std::move(e), std::max(lhs.depth, rhs.depth));
  }

  std::vector<Token> toks_;
  size_t i_ = 0;
  size_t nesting_ = 0;
};

// ---------------------------------------------------------------------------
// Evaluator
// ---------------------------------------------------------------------------

// Numeric coercion: blank->0, bool->0/1, numeric text->number, else #VALUE!.
bool ToNumber(const CellValue& v, double* out, CellError* err) {
  if (IsError(v)) {
    *err = std::get<CellError>(v);
    return false;
  }
  if (IsBlank(v)) {
    *out = 0;
    return true;
  }
  if (IsNumber(v)) {
    *out = std::get<double>(v);
    return true;
  }
  if (IsBool(v)) {
    *out = std::get<bool>(v) ? 1 : 0;
    return true;
  }
  if (IsText(v) && ParseDouble(std::get<std::string>(v), out)) return true;
  *err = CellError::kValue;
  return false;
}

std::string ToText(const CellValue& v) { return CellValueText(v); }

bool ToBool(const CellValue& v, bool* out, CellError* err) {
  if (IsError(v)) {
    *err = std::get<CellError>(v);
    return false;
  }
  if (IsBool(v)) {
    *out = std::get<bool>(v);
    return true;
  }
  double d;
  if (ToNumber(v, &d, err)) {
    *out = d != 0;
    return true;
  }
  return false;
}

// Three-way comparison with spreadsheet ordering: numbers < text < bool;
// within text, case-insensitive lexicographic.
int CompareValues(const CellValue& a, const CellValue& b) {
  auto rank = [](const CellValue& v) {
    if (IsBlank(v) || IsNumber(v)) return 0;
    if (IsText(v)) return 1;
    return 2;  // bool
  };
  int ra = rank(a), rb = rank(b);
  if (ra != rb) return ra < rb ? -1 : 1;
  if (ra == 0) {
    double da = IsBlank(a) ? 0 : std::get<double>(a);
    double db = IsBlank(b) ? 0 : std::get<double>(b);
    return da < db ? -1 : (da > db ? 1 : 0);
  }
  if (ra == 1) {
    std::string la = ToLower(std::get<std::string>(a));
    std::string lb = ToLower(std::get<std::string>(b));
    return la < lb ? -1 : (la > lb ? 1 : 0);
  }
  bool ba = std::get<bool>(a), bb = std::get<bool>(b);
  return ba == bb ? 0 : (!ba ? -1 : 1);
}

class Evaluator {
 public:
  explicit Evaluator(CellResolver* resolver) : resolver_(resolver) {}

  CellValue Eval(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kNumber: return e.number;
      case ExprKind::kString: return e.text;
      case ExprKind::kBool: return e.boolean;
      case ExprKind::kCellRef: return resolver_->ResolveCell(e.sheet, e.cell);
      case ExprKind::kRangeRef:
        // A bare range in scalar context is a #VALUE! error (we do not
        // implement implicit intersection).
        return CellError::kValue;
      case ExprKind::kUnaryMinus: {
        CellValue v = Eval(*e.lhs);
        double d;
        CellError err;
        if (!ToNumber(v, &d, &err)) return err;
        return -d;
      }
      case ExprKind::kBinary: return EvalBinary(e);
      case ExprKind::kCall: return EvalCall(e);
    }
    return CellError::kValue;
  }

 private:
  CellValue EvalBinary(const Expr& e) {
    CellValue a = Eval(*e.lhs);
    CellValue b = Eval(*e.rhs);
    CellError err;
    switch (e.op) {
      case BinaryOp::kAdd:
      case BinaryOp::kSub:
      case BinaryOp::kMul:
      case BinaryOp::kDiv:
      case BinaryOp::kPow: {
        double x, y;
        if (!ToNumber(a, &x, &err)) return err;
        if (!ToNumber(b, &y, &err)) return err;
        switch (e.op) {
          case BinaryOp::kAdd: return x + y;
          case BinaryOp::kSub: return x - y;
          case BinaryOp::kMul: return x * y;
          case BinaryOp::kDiv:
            if (y == 0) return CellError::kDivZero;
            return x / y;
          case BinaryOp::kPow: return std::pow(x, y);
          default: break;
        }
        return CellError::kValue;
      }
      case BinaryOp::kConcat: {
        if (IsError(a)) return a;
        if (IsError(b)) return b;
        return ToText(a) + ToText(b);
      }
      default: {
        if (IsError(a)) return a;
        if (IsError(b)) return b;
        int c = CompareValues(a, b);
        switch (e.op) {
          case BinaryOp::kEq: return c == 0;
          case BinaryOp::kNe: return c != 0;
          case BinaryOp::kLt: return c < 0;
          case BinaryOp::kLe: return c <= 0;
          case BinaryOp::kGt: return c > 0;
          case BinaryOp::kGe: return c >= 0;
          default: break;
        }
        return CellError::kValue;
      }
    }
  }

  // Flattens an argument into scalar values; ranges expand to their cells.
  // Returns false (and sets *err) if an error value is encountered.
  bool Flatten(const Expr& arg, std::vector<CellValue>* out, CellError* err) {
    if (arg.kind == ExprKind::kRangeRef) {
      for (CellValue& v : resolver_->ResolveRange(arg.sheet, arg.range)) {
        if (IsError(v)) {
          *err = std::get<CellError>(v);
          return false;
        }
        out->push_back(std::move(v));
      }
      return true;
    }
    CellValue v = Eval(arg);
    if (IsError(v)) {
      *err = std::get<CellError>(v);
      return false;
    }
    out->push_back(std::move(v));
    return true;
  }

  CellValue EvalCall(const Expr& e) {
    const std::string& f = e.callee;
    CellError err;

    auto aggregate = [&](auto init, auto fold,
                         bool want_count) -> CellValue {
      double acc = init;
      int64_t count = 0;
      for (const auto& arg : e.args) {
        std::vector<CellValue> vals;
        if (!Flatten(*arg, &vals, &err)) return err;
        for (const CellValue& v : vals) {
          if (IsBlank(v)) continue;  // aggregates skip blanks
          double d;
          if (IsText(v)) {
            // Aggregates skip non-numeric text (spreadsheet semantics).
            if (!ParseDouble(std::get<std::string>(v), &d)) continue;
          } else if (!ToNumber(v, &d, &err)) {
            return err;
          }
          acc = fold(acc, d);
          ++count;
        }
      }
      if (want_count) return static_cast<double>(count);
      return acc;
    };

    if (f == "SUM") {
      return aggregate(0.0, [](double a, double b) { return a + b; }, false);
    }
    if (f == "COUNT") {
      return aggregate(0.0, [](double a, double) { return a; }, true);
    }
    if (f == "COUNTA") {
      int64_t count = 0;
      for (const auto& arg : e.args) {
        std::vector<CellValue> vals;
        if (!Flatten(*arg, &vals, &err)) return err;
        for (const CellValue& v : vals) {
          if (!IsBlank(v)) ++count;
        }
      }
      return static_cast<double>(count);
    }
    if (f == "AVERAGE" || f == "AVG") {
      CellValue total =
          aggregate(0.0, [](double a, double b) { return a + b; }, false);
      if (IsError(total)) return total;
      CellValue n = aggregate(0.0, [](double a, double) { return a; }, true);
      if (IsError(n)) return n;
      double count = std::get<double>(n);
      if (count == 0) return CellError::kDivZero;
      return std::get<double>(total) / count;
    }
    if (f == "MIN" || f == "MAX") {
      bool is_min = (f == "MIN");
      bool seen = false;
      double best = 0;
      for (const auto& arg : e.args) {
        std::vector<CellValue> vals;
        if (!Flatten(*arg, &vals, &err)) return err;
        for (const CellValue& v : vals) {
          if (IsBlank(v)) continue;
          double d;
          if (IsText(v)) {
            if (!ParseDouble(std::get<std::string>(v), &d)) continue;
          } else if (!ToNumber(v, &d, &err)) {
            return err;
          }
          if (!seen || (is_min ? d < best : d > best)) best = d;
          seen = true;
        }
      }
      return seen ? CellValue(best) : CellValue(0.0);
    }
    if (f == "IF") {
      if (e.args.size() < 2 || e.args.size() > 3) return CellError::kValue;
      CellValue cond = Eval(*e.args[0]);
      bool b;
      if (!ToBool(cond, &b, &err)) return err;
      if (b) return Eval(*e.args[1]);
      if (e.args.size() == 3) return Eval(*e.args[2]);
      return false;
    }
    if (f == "AND" || f == "OR") {
      bool is_and = (f == "AND");
      bool acc = is_and;
      for (const auto& arg : e.args) {
        std::vector<CellValue> vals;
        if (!Flatten(*arg, &vals, &err)) return err;
        for (const CellValue& v : vals) {
          if (IsBlank(v)) continue;
          bool b;
          if (!ToBool(v, &b, &err)) return err;
          acc = is_and ? (acc && b) : (acc || b);
        }
      }
      return acc;
    }
    if (f == "NOT") {
      if (e.args.size() != 1) return CellError::kValue;
      bool b;
      if (!ToBool(Eval(*e.args[0]), &b, &err)) return err;
      return !b;
    }
    if (f == "CONCAT" || f == "CONCATENATE") {
      std::string out;
      for (const auto& arg : e.args) {
        std::vector<CellValue> vals;
        if (!Flatten(*arg, &vals, &err)) return err;
        for (const CellValue& v : vals) out += ToText(v);
      }
      return out;
    }
    if (f == "ABS" || f == "SQRT" || f == "ROUND") {
      if (e.args.empty()) return CellError::kValue;
      double d;
      if (!ToNumber(Eval(*e.args[0]), &d, &err)) return err;
      if (f == "ABS") return std::fabs(d);
      if (f == "SQRT") {
        if (d < 0) return CellError::kValue;
        return std::sqrt(d);
      }
      // ROUND(x, digits) — digits defaults to 0.
      double digits = 0;
      if (e.args.size() >= 2) {
        if (!ToNumber(Eval(*e.args[1]), &digits, &err)) return err;
      }
      double scale = std::pow(10.0, std::floor(digits));
      return std::round(d * scale) / scale;
    }
    if (f == "LEN") {
      if (e.args.size() != 1) return CellError::kValue;
      CellValue v = Eval(*e.args[0]);
      if (IsError(v)) return v;
      return static_cast<double>(ToText(v).size());
    }
    if (f == "UPPER" || f == "LOWER") {
      if (e.args.size() != 1) return CellError::kValue;
      CellValue v = Eval(*e.args[0]);
      if (IsError(v)) return v;
      return f == "UPPER" ? ToUpper(ToText(v)) : ToLower(ToText(v));
    }
    if (f == "MID") {
      // MID(text, start1, count)
      if (e.args.size() != 3) return CellError::kValue;
      CellValue v = Eval(*e.args[0]);
      if (IsError(v)) return v;
      double start1, count;
      if (!ToNumber(Eval(*e.args[1]), &start1, &err)) return err;
      if (!ToNumber(Eval(*e.args[2]), &count, &err)) return err;
      if (start1 < 1 || count < 0) return CellError::kValue;
      std::string text = ToText(v);
      size_t begin = static_cast<size_t>(start1) - 1;
      if (begin >= text.size()) return std::string();
      return text.substr(begin, static_cast<size_t>(count));
    }
    if (f == "LEFT" || f == "RIGHT") {
      // LEFT/RIGHT(text, count=1)
      if (e.args.empty() || e.args.size() > 2) return CellError::kValue;
      CellValue v = Eval(*e.args[0]);
      if (IsError(v)) return v;
      double count = 1;
      if (e.args.size() == 2) {
        if (!ToNumber(Eval(*e.args[1]), &count, &err)) return err;
      }
      if (count < 0) return CellError::kValue;
      std::string text = ToText(v);
      size_t n = std::min(text.size(), static_cast<size_t>(count));
      return f == "LEFT" ? text.substr(0, n) : text.substr(text.size() - n);
    }
    if (f == "FIND") {
      // FIND(needle, haystack, start1=1): 1-based position or #VALUE!.
      if (e.args.size() < 2 || e.args.size() > 3) return CellError::kValue;
      CellValue needle = Eval(*e.args[0]);
      CellValue hay = Eval(*e.args[1]);
      if (IsError(needle)) return needle;
      if (IsError(hay)) return hay;
      double start1 = 1;
      if (e.args.size() == 3) {
        if (!ToNumber(Eval(*e.args[2]), &start1, &err)) return err;
      }
      if (start1 < 1) return CellError::kValue;
      std::string h = ToText(hay);
      size_t from = static_cast<size_t>(start1) - 1;
      if (from > h.size()) return CellError::kValue;
      size_t pos = h.find(ToText(needle), from);
      if (pos == std::string::npos) return CellError::kValue;
      return static_cast<double>(pos + 1);
    }
    if (f == "SUBSTITUTE") {
      // SUBSTITUTE(text, from, to)
      if (e.args.size() != 3) return CellError::kValue;
      CellValue t = Eval(*e.args[0]);
      CellValue from = Eval(*e.args[1]);
      CellValue to = Eval(*e.args[2]);
      if (IsError(t)) return t;
      if (IsError(from)) return from;
      if (IsError(to)) return to;
      return ReplaceAll(ToText(t), ToText(from), ToText(to));
    }
    if (f == "TRIM") {
      if (e.args.size() != 1) return CellError::kValue;
      CellValue v = Eval(*e.args[0]);
      if (IsError(v)) return v;
      // Spreadsheet TRIM also collapses interior runs of spaces.
      std::string text = ToText(v);
      std::string out;
      bool in_space = true;
      for (char c : text) {
        if (c == ' ') {
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
    if (f == "SUMIF" || f == "COUNTIF") {
      // SUMIF(range, criterion [, sum_range]) / COUNTIF(range, criterion).
      // Criteria: a plain value (equality, text case-insensitive) or a
      // string beginning with <, <=, >, >=, <> followed by a number.
      bool is_sum = (f == "SUMIF");
      if (e.args.size() < 2 || e.args.size() > (is_sum ? 3u : 2u)) {
        return CellError::kValue;
      }
      if (e.args[0]->kind != ExprKind::kRangeRef) return CellError::kValue;
      std::vector<CellValue> tested =
          resolver_->ResolveRange(e.args[0]->sheet, e.args[0]->range);
      std::vector<CellValue> summed;
      if (is_sum && e.args.size() == 3) {
        if (e.args[2]->kind != ExprKind::kRangeRef) return CellError::kValue;
        summed = resolver_->ResolveRange(e.args[2]->sheet, e.args[2]->range);
        if (summed.size() != tested.size()) return CellError::kValue;
      } else {
        summed = tested;
      }
      CellValue criterion = Eval(*e.args[1]);
      if (IsError(criterion)) return criterion;
      auto matches = [&](const CellValue& v) {
        if (IsText(criterion)) {
          const std::string& c = std::get<std::string>(criterion);
          // Comparison-operator criteria.
          for (const char* op : {"<=", ">=", "<>", "<", ">", "="}) {
            if (c.rfind(op, 0) == 0) {
              std::string rest = c.substr(std::string(op).size());
              double bound, val;
              CellError ignore;
              if (!ParseDouble(rest, &bound)) break;  // fall through to eq
              if (!ToNumber(v, &val, &ignore)) return false;
              std::string_view o = op;
              if (o == "<") return val < bound;
              if (o == "<=") return val <= bound;
              if (o == ">") return val > bound;
              if (o == ">=") return val >= bound;
              if (o == "<>") return val != bound;
              return val == bound;
            }
          }
        }
        if (IsBlank(v)) return false;
        return CompareValues(v, criterion) == 0;
      };
      double total = 0;
      int64_t count = 0;
      for (size_t i = 0; i < tested.size(); ++i) {
        if (IsError(tested[i])) return tested[i];
        if (!matches(tested[i])) continue;
        ++count;
        double d;
        CellError ignore;
        if (is_sum && ToNumber(summed[i], &d, &ignore)) total += d;
      }
      return is_sum ? CellValue(total) : CellValue(double(count));
    }
    if (f == "MATCH") {
      // MATCH(value, range) — exact match, 1-based index, else #VALUE!.
      if (e.args.size() != 2 || e.args[1]->kind != ExprKind::kRangeRef) {
        return CellError::kValue;
      }
      CellValue needle = Eval(*e.args[0]);
      if (IsError(needle)) return needle;
      std::vector<CellValue> values =
          resolver_->ResolveRange(e.args[1]->sheet, e.args[1]->range);
      for (size_t i = 0; i < values.size(); ++i) {
        if (IsError(values[i])) return values[i];
        if (CompareValues(values[i], needle) == 0 && !IsBlank(values[i])) {
          return static_cast<double>(i + 1);
        }
      }
      return CellError::kValue;
    }
    if (f == "INDEX") {
      // INDEX(range, row1 [, col1]) — 1-based.
      if (e.args.size() < 2 || e.args.size() > 3 ||
          e.args[0]->kind != ExprKind::kRangeRef) {
        return CellError::kValue;
      }
      const RangeRef& r = e.args[0]->range;
      double row1, col1 = 1;
      if (!ToNumber(Eval(*e.args[1]), &row1, &err)) return err;
      if (e.args.size() == 3) {
        if (!ToNumber(Eval(*e.args[2]), &col1, &err)) return err;
      }
      if (row1 < 1 || col1 < 1 || row1 > r.rows() || col1 > r.cols()) {
        return CellError::kRef;
      }
      CellRef cell{r.start.row + static_cast<int32_t>(row1) - 1,
                   r.start.col + static_cast<int32_t>(col1) - 1};
      return resolver_->ResolveCell(e.args[0]->sheet, cell);
    }
    if (f == "VLOOKUP") {
      // VLOOKUP(value, range, col1) — exact match on the first column.
      if (e.args.size() != 3 || e.args[1]->kind != ExprKind::kRangeRef) {
        return CellError::kValue;
      }
      CellValue needle = Eval(*e.args[0]);
      if (IsError(needle)) return needle;
      double col1;
      if (!ToNumber(Eval(*e.args[2]), &col1, &err)) return err;
      const RangeRef& r = e.args[1]->range;
      if (col1 < 1 || col1 > r.cols()) return CellError::kRef;
      for (int32_t row = r.start.row; row <= r.end.row; ++row) {
        CellValue key =
            resolver_->ResolveCell(e.args[1]->sheet, CellRef{row, r.start.col});
        if (IsError(key)) return key;
        if (!IsBlank(key) && CompareValues(key, needle) == 0) {
          return resolver_->ResolveCell(
              e.args[1]->sheet,
              CellRef{row, r.start.col + static_cast<int32_t>(col1) - 1});
        }
      }
      return CellError::kValue;  // #N/A in real sheets; we fold into #VALUE!
    }
    return CellError::kName;
  }

  CellResolver* resolver_;
};

void CollectReferencesInto(const Expr& e, std::vector<FormulaRef>* out) {
  switch (e.kind) {
    case ExprKind::kCellRef:
      out->push_back({e.sheet, RangeRef{e.cell, e.cell}});
      break;
    case ExprKind::kRangeRef:
      out->push_back({e.sheet, e.range});
      break;
    case ExprKind::kUnaryMinus:
      CollectReferencesInto(*e.lhs, out);
      break;
    case ExprKind::kBinary:
      CollectReferencesInto(*e.lhs, out);
      CollectReferencesInto(*e.rhs, out);
      break;
    case ExprKind::kCall:
      for (const auto& a : e.args) CollectReferencesInto(*a, out);
      break;
    default:
      break;
  }
}

std::string FormatBinaryOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kPow: return "^";
    case BinaryOp::kConcat: return "&";
    case BinaryOp::kEq: return "=";
    case BinaryOp::kNe: return "<>";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
  }
  return "?";
}

}  // namespace

Result<std::unique_ptr<Expr>> ParseFormula(std::string_view source) {
  Lexer lexer(source);
  SLIM_ASSIGN_OR_RETURN(std::vector<Token> toks, lexer.Run());
  Parser parser(std::move(toks));
  return parser.Run();
}

std::string FormatFormula(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kNumber: return FormatNumber(e.number);
    case ExprKind::kString: {
      std::string out = "\"";
      out += ReplaceAll(e.text, "\"", "\"\"");
      out += "\"";
      return out;
    }
    case ExprKind::kBool: return e.boolean ? "TRUE" : "FALSE";
    case ExprKind::kCellRef: {
      std::string out;
      if (!e.sheet.empty()) out = e.sheet + "!";
      return out + FormatCell(e.cell);
    }
    case ExprKind::kRangeRef: {
      std::string out;
      if (!e.sheet.empty()) out = e.sheet + "!";
      // Always emit corner:corner form, even for 1x1 ranges.
      return out + FormatCell(e.range.start) + ":" + FormatCell(e.range.end);
    }
    case ExprKind::kUnaryMinus:
      // Binary operands already print parenthesized, so a bare "-" is
      // unambiguous — and keeps "-6" a formatting fixpoint.
      return "-" + FormatFormula(*e.lhs);
    case ExprKind::kBinary:
      return "(" + FormatFormula(*e.lhs) + FormatBinaryOp(e.op) +
             FormatFormula(*e.rhs) + ")";
    case ExprKind::kCall: {
      std::string out = e.callee + "(";
      for (size_t i = 0; i < e.args.size(); ++i) {
        if (i) out += ",";
        out += FormatFormula(*e.args[i]);
      }
      return out + ")";
    }
  }
  return "?";
}

CellValue EvaluateFormula(const Expr& expr, CellResolver* resolver) {
  Evaluator ev(resolver);
  return ev.Eval(expr);
}

std::vector<FormulaRef> CollectReferences(const Expr& expr) {
  std::vector<FormulaRef> out;
  CollectReferencesInto(expr, &out);
  return out;
}

}  // namespace slim::doc
