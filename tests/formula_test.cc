#include <gtest/gtest.h>

#include <map>
#include <string>

#include "doc/spreadsheet/formula.h"
#include "doc/spreadsheet/workbook.h"

namespace slim::doc {
namespace {

// A resolver over an in-memory map; unset cells are blank.
class FakeResolver : public CellResolver {
 public:
  void Set(const std::string& sheet, const CellRef& ref, CellValue v) {
    cells_[{sheet, ref.row, ref.col}] = std::move(v);
  }
  CellValue ResolveCell(const std::string& sheet, const CellRef& ref) override {
    auto it = cells_.find({sheet, ref.row, ref.col});
    return it == cells_.end() ? CellValue(std::monostate{}) : it->second;
  }
  std::vector<CellValue> ResolveRange(const std::string& sheet,
                                      const RangeRef& range) override {
    std::vector<CellValue> out;
    for (int32_t r = range.start.row; r <= range.end.row; ++r) {
      for (int32_t c = range.start.col; c <= range.end.col; ++c) {
        out.push_back(ResolveCell(sheet, {r, c}));
      }
    }
    return out;
  }

 private:
  std::map<std::tuple<std::string, int32_t, int32_t>, CellValue> cells_;
};

CellValue Eval(const std::string& src, CellResolver* resolver = nullptr) {
  FakeResolver empty;
  auto parsed = ParseFormula(src);
  EXPECT_TRUE(parsed.ok()) << src << ": " << parsed.status();
  if (!parsed.ok()) return CellError::kValue;
  return EvaluateFormula(**parsed, resolver ? resolver : &empty);
}

double EvalNum(const std::string& src, CellResolver* resolver = nullptr) {
  CellValue v = Eval(src, resolver);
  EXPECT_TRUE(IsNumber(v)) << src << " -> " << CellValueText(v);
  return IsNumber(v) ? std::get<double>(v) : -1e300;
}

TEST(FormulaParseTest, RejectsMalformed) {
  for (const char* bad :
       {"", "1+", "(1", "1)", "SUM(", "1,2", "\"open", "FOO BAR", "@x", "..",
        "A1:", "Sheet!", "1 2"}) {
    EXPECT_FALSE(ParseFormula(bad).ok()) << bad;
  }
}

TEST(FormulaEvalTest, Literals) {
  EXPECT_DOUBLE_EQ(EvalNum("42"), 42);
  EXPECT_DOUBLE_EQ(EvalNum("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(EvalNum("1e3"), 1000);
  EXPECT_EQ(Eval("\"hi\""), CellValue(std::string("hi")));
  EXPECT_EQ(Eval("TRUE"), CellValue(true));
  EXPECT_EQ(Eval("false"), CellValue(false));
  EXPECT_EQ(Eval("\"with \"\"quotes\"\"\""),
            CellValue(std::string("with \"quotes\"")));
}

TEST(FormulaEvalTest, ArithmeticAndPrecedence) {
  EXPECT_DOUBLE_EQ(EvalNum("1+2*3"), 7);
  EXPECT_DOUBLE_EQ(EvalNum("(1+2)*3"), 9);
  EXPECT_DOUBLE_EQ(EvalNum("10-4-3"), 3);        // left assoc
  EXPECT_DOUBLE_EQ(EvalNum("100/10/2"), 5);      // left assoc
  EXPECT_DOUBLE_EQ(EvalNum("2^3^2"), 512);       // right assoc
  EXPECT_DOUBLE_EQ(EvalNum("-2^2"), 4);          // unary binds the 2 first
  EXPECT_DOUBLE_EQ(EvalNum("2*-3"), -6);
  EXPECT_DOUBLE_EQ(EvalNum("+5"), 5);
}

TEST(FormulaEvalTest, DivisionByZero) {
  EXPECT_EQ(Eval("1/0"), CellValue(CellError::kDivZero));
}

TEST(FormulaEvalTest, Concat) {
  EXPECT_EQ(Eval("\"a\"&\"b\""), CellValue(std::string("ab")));
  EXPECT_EQ(Eval("\"n=\"&5"), CellValue(std::string("n=5")));
  EXPECT_EQ(Eval("1&2"), CellValue(std::string("12")));
}

TEST(FormulaEvalTest, Comparisons) {
  EXPECT_EQ(Eval("1<2"), CellValue(true));
  EXPECT_EQ(Eval("2<=2"), CellValue(true));
  EXPECT_EQ(Eval("3>4"), CellValue(false));
  EXPECT_EQ(Eval("1=1"), CellValue(true));
  EXPECT_EQ(Eval("1<>1"), CellValue(false));
  EXPECT_EQ(Eval("\"abc\"=\"ABC\""), CellValue(true));  // case-insensitive
  EXPECT_EQ(Eval("\"a\"<\"b\""), CellValue(true));
  EXPECT_EQ(Eval("5<\"a\""), CellValue(true));  // numbers sort before text
}

TEST(FormulaEvalTest, CellReferences) {
  FakeResolver r;
  r.Set("", {0, 0}, 10.0);          // A1
  r.Set("", {0, 1}, 4.0);           // B1
  r.Set("Other", {0, 0}, 100.0);    // Other!A1
  EXPECT_DOUBLE_EQ(EvalNum("A1+B1", &r), 14);
  EXPECT_DOUBLE_EQ(EvalNum("Other!A1+A1", &r), 110);
  // Blank cells act as zero in arithmetic.
  EXPECT_DOUBLE_EQ(EvalNum("A1+Z99", &r), 10);
}

TEST(FormulaEvalTest, QuotedSheetName) {
  FakeResolver r;
  r.Set("My Sheet", {0, 0}, 8.0);
  EXPECT_DOUBLE_EQ(EvalNum("'My Sheet'!A1*2", &r), 16);
}

TEST(FormulaEvalTest, AggregateFunctions) {
  FakeResolver r;
  r.Set("", {0, 0}, 1.0);
  r.Set("", {1, 0}, 2.0);
  r.Set("", {2, 0}, 3.0);
  r.Set("", {3, 0}, std::string("not a number"));
  // blank A5
  EXPECT_DOUBLE_EQ(EvalNum("SUM(A1:A5)", &r), 6);
  EXPECT_DOUBLE_EQ(EvalNum("COUNT(A1:A5)", &r), 3);
  EXPECT_DOUBLE_EQ(EvalNum("COUNTA(A1:A5)", &r), 4);
  EXPECT_DOUBLE_EQ(EvalNum("AVERAGE(A1:A5)", &r), 2);
  EXPECT_DOUBLE_EQ(EvalNum("MIN(A1:A5)", &r), 1);
  EXPECT_DOUBLE_EQ(EvalNum("MAX(A1:A5)", &r), 3);
  EXPECT_DOUBLE_EQ(EvalNum("SUM(A1,A2,10)", &r), 13);
}

TEST(FormulaEvalTest, NumericTextCountsInAggregates) {
  FakeResolver r;
  r.Set("", {0, 0}, std::string("5"));
  r.Set("", {1, 0}, 2.0);
  EXPECT_DOUBLE_EQ(EvalNum("SUM(A1:A2)", &r), 7);
}

TEST(FormulaEvalTest, AverageOfNothingIsDivZero) {
  FakeResolver r;
  EXPECT_EQ(Eval("AVERAGE(A1:A3)", &r), CellValue(CellError::kDivZero));
}

TEST(FormulaEvalTest, IfAndBoolFunctions) {
  EXPECT_DOUBLE_EQ(EvalNum("IF(1<2, 10, 20)"), 10);
  EXPECT_DOUBLE_EQ(EvalNum("IF(1>2, 10, 20)"), 20);
  EXPECT_EQ(Eval("IF(FALSE, 1)"), CellValue(false));  // missing else
  EXPECT_EQ(Eval("AND(TRUE, 1<2)"), CellValue(true));
  EXPECT_EQ(Eval("AND(TRUE, FALSE)"), CellValue(false));
  EXPECT_EQ(Eval("OR(FALSE, 1>2)"), CellValue(false));
  EXPECT_EQ(Eval("OR(FALSE, TRUE)"), CellValue(true));
  EXPECT_EQ(Eval("NOT(FALSE)"), CellValue(true));
}

TEST(FormulaEvalTest, ScalarFunctions) {
  EXPECT_DOUBLE_EQ(EvalNum("ABS(-3)"), 3);
  EXPECT_DOUBLE_EQ(EvalNum("SQRT(16)"), 4);
  EXPECT_EQ(Eval("SQRT(-1)"), CellValue(CellError::kValue));
  EXPECT_DOUBLE_EQ(EvalNum("ROUND(2.567, 1)"), 2.6);
  EXPECT_DOUBLE_EQ(EvalNum("ROUND(2.5)"), 3);
  EXPECT_DOUBLE_EQ(EvalNum("LEN(\"hello\")"), 5);
  EXPECT_EQ(Eval("UPPER(\"hi\")"), CellValue(std::string("HI")));
  EXPECT_EQ(Eval("LOWER(\"HI\")"), CellValue(std::string("hi")));
  EXPECT_EQ(Eval("MID(\"abcdef\", 2, 3)"), CellValue(std::string("bcd")));
  EXPECT_EQ(Eval("MID(\"abc\", 10, 3)"), CellValue(std::string("")));
  EXPECT_EQ(Eval("CONCAT(\"a\", 1, TRUE)"),
            CellValue(std::string("a1TRUE")));
}

TEST(FormulaEvalTest, UnknownFunctionIsNameError) {
  EXPECT_EQ(Eval("NOSUCHFN(1)"), CellValue(CellError::kName));
}

TEST(FormulaEvalTest, TypeErrorPropagates) {
  EXPECT_EQ(Eval("\"abc\"+1"), CellValue(CellError::kValue));
  EXPECT_EQ(Eval("ABS(\"abc\")"), CellValue(CellError::kValue));
  // Errors flow through concatenation too.
  EXPECT_EQ(Eval("(1/0) & \"x\""), CellValue(CellError::kDivZero));
}

TEST(FormulaEvalTest, BareRangeInScalarContextIsError) {
  FakeResolver r;
  EXPECT_EQ(Eval("A1:B2+1", &r), CellValue(CellError::kValue));
}

TEST(FormulaFormatTest, RoundTripThroughParser) {
  for (const char* src :
       {"1+2*3", "SUM(A1:B2,C3)", "IF(A1>0,\"pos\",\"neg\")",
        "Sheet2!B3:C9", "-A1", "\"quo\"\"te\"", "2^3^2", "A1&\" \"&B1"}) {
    auto first = ParseFormula(src);
    ASSERT_TRUE(first.ok()) << src;
    std::string printed = FormatFormula(**first);
    auto second = ParseFormula(printed);
    ASSERT_TRUE(second.ok()) << printed;
    // Formatting is canonical: format(parse(format(x))) == format(x).
    EXPECT_EQ(FormatFormula(**second), printed) << src;
  }
}

TEST(FormulaRefsTest, CollectReferences) {
  auto parsed = ParseFormula("SUM(A1:B2) + Sheet2!C3 * IF(D4>0, E5, 1)");
  ASSERT_TRUE(parsed.ok());
  std::vector<FormulaRef> refs = CollectReferences(**parsed);
  ASSERT_EQ(refs.size(), 4u);
  EXPECT_EQ(refs[0].range, (RangeRef{{0, 0}, {1, 1}}));
  EXPECT_EQ(refs[1].sheet, "Sheet2");
  EXPECT_EQ(refs[1].range, (RangeRef{{2, 2}, {2, 2}}));
  EXPECT_EQ(refs[2].range, (RangeRef{{3, 3}, {3, 3}}));
  EXPECT_EQ(refs[3].range, (RangeRef{{4, 4}, {4, 4}}));
}

// Property sweep: algebraic identities hold for many operand values.
class FormulaIdentity : public ::testing::TestWithParam<int> {};

TEST_P(FormulaIdentity, AddCommutes) {
  double a = GetParam() * 1.5 - 7;
  double b = GetParam() * -0.25 + 2;
  std::string sa = FormatNumber(a), sb = FormatNumber(b);
  EXPECT_DOUBLE_EQ(EvalNum(sa + "+" + sb), EvalNum(sb + "+" + sa));
}

TEST_P(FormulaIdentity, MulDistributesOverAdd) {
  double a = GetParam() - 5, b = GetParam() * 2, c = 3 - GetParam();
  std::string sa = FormatNumber(a), sb = FormatNumber(b),
              sc = FormatNumber(c);
  EXPECT_NEAR(EvalNum(sa + "*(" + sb + "+" + sc + ")"),
              EvalNum(sa + "*" + sb + "+" + sa + "*" + sc), 1e-9);
}

TEST_P(FormulaIdentity, SumEqualsFold) {
  FakeResolver r;
  double total = 0;
  int n = GetParam() % 10 + 1;
  for (int i = 0; i < n; ++i) {
    double v = i * 1.25 + GetParam();
    r.Set("", {i, 0}, v);
    total += v;
  }
  EXPECT_NEAR(EvalNum("SUM(A1:A" + std::to_string(n) + ")", &r), total, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FormulaIdentity, ::testing::Range(0, 25));

// Depth bound: nesting past kMaxFormulaDepth is a ParseError, never a stack
// overflow in the parser or in a walker of the tree it returns.
std::string Repeat(const std::string& s, size_t n) {
  std::string out;
  out.reserve(s.size() * n);
  for (size_t i = 0; i < n; ++i) out += s;
  return out;
}

// Each shape at `depth` parser levels or tree levels; all evaluate to 1 or
// to the term count.
std::string NestedParens(size_t depth) {
  return Repeat("(", depth) + "1" + Repeat(")", depth);
}
std::string SumOf(size_t depth) { return "1" + Repeat("+1", depth - 1); }
std::string Negations(size_t depth) { return Repeat("-", depth - 1) + "1"; }
std::string PowerTower(size_t depth) { return "1" + Repeat("^1", depth - 1); }

TEST(FormulaDepthTest, HostileNestingIsAParseError) {
  for (const std::string& src :
       {NestedParens(200000), Repeat("-", 200000) + "1", SumOf(200000)}) {
    auto parsed = ParseFormula(src);
    ASSERT_FALSE(parsed.ok());
    EXPECT_TRUE(parsed.status().IsParseError());
    EXPECT_NE(parsed.status().message().find(
                  "nested deeper than 1000 levels at position "),
              std::string::npos)
        << parsed.status().message();
  }
}

TEST(FormulaDepthTest, LimitIsExact) {
  ASSERT_EQ(kMaxFormulaDepth, 1000u);
  for (auto shape : {NestedParens, SumOf, Negations, PowerTower}) {
    std::string at_limit = shape(kMaxFormulaDepth);
    auto parsed = ParseFormula(at_limit);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    CellValue v = Eval(at_limit);
    ASSERT_TRUE(IsNumber(v)) << CellValueText(v);
    double expected = shape == SumOf ? 1000.0 : shape == Negations ? -1 : 1;
    EXPECT_EQ(std::get<double>(v), expected);
    EXPECT_FALSE(FormatFormula(**parsed).empty());
    EXPECT_TRUE(CollectReferences(**parsed).empty());

    auto past = ParseFormula(shape(kMaxFormulaDepth + 1));
    ASSERT_FALSE(past.ok());
    EXPECT_TRUE(past.status().IsParseError());
  }
}

TEST(FormulaDepthTest, LongReferenceSumsStillParse) {
  std::string src = "A1";
  for (int i = 2; i <= 500; ++i) src += "+A" + std::to_string(i);
  auto parsed = ParseFormula(src);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(CollectReferences(**parsed).size(), 500u);
}

TEST(FormulaDepthTest, WorksheetInputNamesTheFormula) {
  Workbook wb;
  Worksheet* ws = *wb.AddSheet("S");
  Status s = ws->SetInput({0, 0}, "=" + NestedParens(200000));
  EXPECT_TRUE(s.IsParseError());
  EXPECT_NE(s.message().find("in formula '=((("), std::string::npos);
  EXPECT_NE(s.message().find("nested deeper than 1000 levels"),
            std::string::npos);
  EXPECT_EQ(ws->GetCell({0, 0}), nullptr);
}

}  // namespace
}  // namespace slim::doc
