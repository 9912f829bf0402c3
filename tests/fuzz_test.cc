#include <gtest/gtest.h>

#include "doc/html/html.h"
#include "doc/spreadsheet/csv.h"
#include "doc/spreadsheet/workbook.h"
#include "doc/slides/slide_deck.h"
#include "doc/pdf/pdf_document.h"
#include "doc/xml/parser.h"
#include "doc/xml/writer.h"
#include "trim/persistence.h"
#include "util/rng.h"

// Randomized round-trip ("fuzz-ish") properties and truncation failure
// injection for every persistence format in the repository. The goal of
// the truncation sweeps is crash-freedom and clean errors: feeding any
// prefix of a valid file to a parser must produce either a Status error or
// a structurally valid (possibly shorter) document — never UB.

namespace slim {
namespace {

// ---------------------------------------------------------------------------
// Random generators
// ---------------------------------------------------------------------------

// Random text including XML-hostile characters.
std::string RandomText(Rng* rng, size_t max_len) {
  static const char* kPieces[] = {"a", "b", "<", ">", "&", "\"", "'", " ",
                                  "\n", "\t", "x", "é", "1", ".", "-"};
  std::string out;
  size_t n = rng->Below(max_len + 1);
  for (size_t i = 0; i < n; ++i) {
    out += kPieces[rng->Below(std::size(kPieces))];
  }
  return out;
}

void BuildRandomXmlTree(Rng* rng, doc::xml::Element* parent, int depth) {
  size_t children = rng->Below(4);
  for (size_t i = 0; i < children; ++i) {
    switch (rng->Below(depth > 0 ? 3 : 2)) {
      case 0: {
        std::string text = RandomText(rng, 12);
        // Whitespace-only text is stripped on reparse; skip to keep the
        // comparison exact.
        if (text.find_first_not_of(" \n\t") != std::string::npos) {
          parent->AddText(text);
        }
        break;
      }
      case 1: {
        // CDATA cannot contain "]]>".
        parent->AddCData("raw " + rng->Word(6));
        break;
      }
      default: {
        doc::xml::Element* child = parent->AddElement(rng->Word(5));
        size_t attrs = rng->Below(3);
        for (size_t a = 0; a < attrs; ++a) {
          child->SetAttribute(rng->Word(4), RandomText(rng, 10));
        }
        BuildRandomXmlTree(rng, child, depth - 1);
        break;
      }
    }
  }
}

std::string SubtreeSignature(const doc::xml::Element* e) {
  std::string out = "<" + e->name();
  for (const auto& a : e->attributes()) {
    out += " " + a.name + "='" + a.value + "'";
  }
  out += ">";
  out += e->InnerText();
  for (const auto& c : e->children()) {
    if (c->kind() == doc::xml::NodeKind::kElement) {
      out += SubtreeSignature(static_cast<const doc::xml::Element*>(c.get()));
    }
  }
  out += "</" + e->name() + ">";
  return out;
}

// ---------------------------------------------------------------------------
// XML write∘parse fixpoint on random trees
// ---------------------------------------------------------------------------

class XmlFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(XmlFuzz, WriteParseRoundTripPreservesStructure) {
  Rng rng(GetParam());
  auto doc = doc::xml::Document::Create(rng.Word(6));
  doc->root()->SetAttribute(rng.Word(3), RandomText(&rng, 16));
  BuildRandomXmlTree(&rng, doc->root(), 4);

  // Compact form: pretty-printing interleaves indentation with mixed
  // content, which (correctly) lands in text nodes on reparse; the exact
  // round trip is a property of the compact serialization.
  doc::xml::WriteOptions wopts;
  wopts.pretty = false;
  std::string first = doc::xml::WriteXml(*doc, wopts);
  doc::xml::ParseOptions opts;
  opts.strip_whitespace_text = false;
  auto back = doc::xml::ParseXml(first, opts);
  ASSERT_TRUE(back.ok()) << back.status() << "\n" << first;
  // Element structure, attributes, and text content all survive.
  EXPECT_EQ(SubtreeSignature((*back)->root()),
            SubtreeSignature(doc->root()));
  // And the serialization is a fixpoint.
  EXPECT_EQ(doc::xml::WriteXml(**back, wopts), first);
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlFuzz, ::testing::Range<uint64_t>(1, 25));

// ---------------------------------------------------------------------------
// HTML parser never crashes on random byte soup
// ---------------------------------------------------------------------------

class HtmlSoupFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HtmlSoupFuzz, AnyInputYieldsADocument) {
  Rng rng(GetParam());
  static const char* kSoup[] = {"<", ">", "</", "<div", "<p>", "&", "&amp",
                                "=", "\"", "'", "a", " ", "<!--", "-->",
                                "<script>", "</script>", "<![CDATA[", "/>",
                                "<!DOCTYPE", "\n"};
  std::string input;
  size_t n = 5 + rng.Below(120);
  for (size_t i = 0; i < n; ++i) {
    input += kSoup[rng.Below(std::size(kSoup))];
  }
  auto doc = doc::html::ParseHtml(input);
  ASSERT_NE(doc, nullptr);
  ASSERT_NE(doc->root(), nullptr);
  // The result is a well-formed tree: serializing it must not crash and
  // visiting it terminates.
  size_t count = 0;
  doc->root()->Visit([&](doc::xml::Element*) { ++count; });
  EXPECT_GE(count, 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HtmlSoupFuzz,
                         ::testing::Range<uint64_t>(100, 140));

// ---------------------------------------------------------------------------
// CSV random round trip
// ---------------------------------------------------------------------------

class CsvFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsvFuzz, WriteParseRoundTrip) {
  Rng rng(GetParam());
  std::vector<std::vector<std::string>> rows;
  size_t nrows = 1 + rng.Below(8);
  size_t ncols = 1 + rng.Below(6);
  for (size_t r = 0; r < nrows; ++r) {
    std::vector<std::string> row;
    for (size_t c = 0; c < ncols; ++c) {
      static const char* kPieces[] = {"a", ",", "\"", "\n", " ", "x", "1"};
      std::string field;
      size_t len = rng.Below(8);
      for (size_t i = 0; i < len; ++i) {
        field += kPieces[rng.Below(std::size(kPieces))];
      }
      row.push_back(std::move(field));
    }
    rows.push_back(std::move(row));
  }
  auto back = doc::ParseCsv(doc::WriteCsv(rows));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, rows);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvFuzz, ::testing::Range<uint64_t>(1, 30));

// ---------------------------------------------------------------------------
// Random formula: format∘parse fixpoint and evaluation agreement
// ---------------------------------------------------------------------------

std::unique_ptr<doc::Expr> RandomExpr(Rng* rng, int depth);

std::unique_ptr<doc::Expr> RandomLeaf(Rng* rng) {
  auto e = std::make_unique<doc::Expr>();
  switch (rng->Below(3)) {
    case 0:
      e->kind = doc::ExprKind::kNumber;
      e->number = static_cast<double>(rng->Range(-50, 50)) / 2.0;
      break;
    case 1:
      e->kind = doc::ExprKind::kString;
      e->text = rng->Word(4);
      break;
    default:
      e->kind = doc::ExprKind::kBool;
      e->boolean = rng->Chance(0.5);
      break;
  }
  return e;
}

std::unique_ptr<doc::Expr> RandomExpr(Rng* rng, int depth) {
  if (depth <= 0 || rng->Chance(0.3)) return RandomLeaf(rng);
  auto e = std::make_unique<doc::Expr>();
  if (rng->Chance(0.25)) {
    e->kind = doc::ExprKind::kCall;
    static const char* kFns[] = {"SUM", "CONCAT", "IF", "ABS", "LEN"};
    e->callee = kFns[rng->Below(std::size(kFns))];
    size_t args = e->callee == "IF" ? 3 : 1 + rng->Below(3);
    for (size_t i = 0; i < args; ++i) {
      e->args.push_back(RandomExpr(rng, depth - 1));
    }
    return e;
  }
  if (rng->Chance(0.2)) {
    e->kind = doc::ExprKind::kUnaryMinus;
    e->lhs = RandomExpr(rng, depth - 1);
    return e;
  }
  e->kind = doc::ExprKind::kBinary;
  static const doc::BinaryOp kOps[] = {
      doc::BinaryOp::kAdd, doc::BinaryOp::kSub, doc::BinaryOp::kMul,
      doc::BinaryOp::kDiv, doc::BinaryOp::kConcat, doc::BinaryOp::kEq,
      doc::BinaryOp::kLt};
  e->op = kOps[rng->Below(std::size(kOps))];
  e->lhs = RandomExpr(rng, depth - 1);
  e->rhs = RandomExpr(rng, depth - 1);
  return e;
}

class NullResolver : public doc::CellResolver {
 public:
  doc::CellValue ResolveCell(const std::string&, const doc::CellRef&) override {
    return std::monostate{};
  }
  std::vector<doc::CellValue> ResolveRange(const std::string&,
                                           const doc::RangeRef&) override {
    return {};
  }
};

class FormulaFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FormulaFuzz, FormatParseEvaluateAgree) {
  Rng rng(GetParam());
  NullResolver resolver;
  for (int i = 0; i < 20; ++i) {
    auto original = RandomExpr(&rng, 4);
    std::string printed = doc::FormatFormula(*original);
    auto reparsed = doc::ParseFormula(printed);
    ASSERT_TRUE(reparsed.ok()) << printed << ": " << reparsed.status();
    // Printing is canonical.
    EXPECT_EQ(doc::FormatFormula(**reparsed), printed);
    // Both trees evaluate identically (including error values).
    doc::CellValue a = doc::EvaluateFormula(*original, &resolver);
    doc::CellValue b = doc::EvaluateFormula(**reparsed, &resolver);
    EXPECT_EQ(doc::CellValueText(a), doc::CellValueText(b)) << printed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FormulaFuzz,
                         ::testing::Range<uint64_t>(1, 15));

// ---------------------------------------------------------------------------
// Truncation failure injection: every persistence format
// ---------------------------------------------------------------------------

// Cuts `data` at several points and feeds each prefix to `parse`, which
// must never crash. `parse` returns true if the prefix parsed OK.
template <typename ParseFn>
void TruncationSweep(const std::string& data, ParseFn parse) {
  for (size_t cut : {data.size() / 7, data.size() / 3, data.size() / 2,
                     data.size() * 3 / 4, data.size() - 1}) {
    if (cut >= data.size()) continue;
    (void)parse(data.substr(0, cut));  // must not crash; result irrelevant
  }
  // The full data must parse.
  EXPECT_TRUE(parse(data));
}

TEST(TruncationTest, Workbook) {
  doc::Workbook wb("t.book");
  doc::Worksheet* ws = *wb.AddSheet("S");
  for (int i = 0; i < 20; ++i) {
    ws->SetValue({i, 0}, std::string("value ") + std::to_string(i));
    ws->SetValue({i, 1}, double(i));
  }
  (void)ws->SetFormula({20, 0}, "=SUM(B1:B20)");
  TruncationSweep(wb.Serialize(), [](const std::string& text) {
    return doc::Workbook::Deserialize(text).ok();
  });
}

TEST(TruncationTest, SlideDeck) {
  doc::slides::SlideDeck deck("t.deck");
  for (int s = 0; s < 5; ++s) {
    auto* slide = *deck.GetSlide(deck.AddSlide("slide " + std::to_string(s)));
    (void)slide->AddShape({"sh", doc::slides::ShapeKind::kBulletList, 1, 2, 3,
                           4, "text", {"b1", "b2"}});
  }
  TruncationSweep(deck.Serialize(), [](const std::string& text) {
    return doc::slides::SlideDeck::Deserialize(text).ok();
  });
}

TEST(TruncationTest, Pdf) {
  auto doc = doc::pdf::PdfDocument::BuildFromParagraphs(
      {"one paragraph of text", "another paragraph with more words in it"});
  TruncationSweep(doc->Serialize(), [](const std::string& text) {
    return doc::pdf::PdfDocument::Deserialize(text).ok();
  });
}

TEST(TruncationTest, TrimXml) {
  trim::TripleStore store;
  for (int i = 0; i < 25; ++i) {
    (void)store.AddLiteral("s" + std::to_string(i), "p", "v<&>" +
                                                             std::to_string(i));
  }
  TruncationSweep(trim::StoreToXml(store), [](const std::string& text) {
    trim::TripleStore loaded;
    return trim::StoreFromXml(text, &loaded).ok();
  });
}

// Decodes `bytes` as a store file and installs it, as LoadStore does.
Status LoadStoreBytes(std::string bytes, trim::TripleStore* store) {
  trim::TripleStore::Image image;
  SLIM_RETURN_NOT_OK(trim::DecodeStore(std::move(bytes), &image));
  return store->InstallImage(image);
}

// A store that a failed load must leave as it was: its XML and its epoch.
struct StoreBefore {
  explicit StoreBefore(const trim::TripleStore& store)
      : xml(trim::StoreToXml(store)), epoch(store.GetEpochStats().current) {}
  bool Same(const trim::TripleStore& store) const {
    return store.GetEpochStats().current == epoch &&
           trim::StoreToXml(store) == xml;
  }
  std::string xml;
  uint64_t epoch;
};

// Every proper prefix of a binary store file is an error that leaves the
// store unchanged; the whole file loads.
TEST(TruncationTest, TrimBinary) {
  trim::TripleStore source;
  for (int i = 0; i < 25; ++i) {
    (void)source.AddLiteral("s" + std::to_string(i), "p",
                            "value" + std::to_string(i));
  }
  const std::string data = trim::StoreToBinary(source);
  trim::TripleStore store;
  ASSERT_TRUE(store.AddLiteral("old", "p", "kept").ok());
  const StoreBefore before(store);
  for (size_t cut = 0; cut < data.size(); ++cut) {
    EXPECT_FALSE(LoadStoreBytes(data.substr(0, cut), &store).ok()) << cut;
  }
  EXPECT_TRUE(before.Same(store));
  ASSERT_TRUE(LoadStoreBytes(data, &store).ok());
  EXPECT_EQ(trim::StoreToXml(store), trim::StoreToXml(source));
}

TEST(TruncationTest, XmlDocument) {
  auto doc = doc::xml::Document::Create("root");
  for (int i = 0; i < 10; ++i) {
    doc::xml::Element* e = doc->root()->AddElement("child");
    e->SetAttribute("n", std::to_string(i));
    e->AddText("text & more");
  }
  TruncationSweep(doc::xml::WriteXml(*doc), [](const std::string& text) {
    return doc::xml::ParseXml(text).ok();
  });
}

// Corruption of a binary store file: every single-byte change, to any of
// the 255 other values, is an error that leaves the store unchanged.
class BinaryCorruptionFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BinaryCorruptionFuzz, FlippedBytesFailCleanly) {
  Rng rng(GetParam());
  trim::TripleStore source;
  for (int i = 0; i < 10; ++i) {
    const std::string subject = "s" + std::to_string(rng.Below(6));
    (void)source.Add({subject, RandomText(&rng, 3) + "p",
                      rng.Chance(0.5) ? trim::Object::Literal(RandomText(&rng, 6))
                                      : trim::Object::Resource(subject)});
  }
  const std::string data = trim::StoreToBinary(source);
  trim::TripleStore store;
  ASSERT_TRUE(store.AddLiteral("old", "p", "kept").ok());
  const StoreBefore before(store);
  size_t accepted = 0;
  for (size_t pos = 0; pos < data.size(); ++pos) {
    std::string corrupted = data;
    for (int delta = 1; delta < 256; ++delta) {
      corrupted[pos] = static_cast<char>(data[pos] ^ delta);
      if (LoadStoreBytes(corrupted, &store).ok()) ++accepted;
    }
  }
  EXPECT_EQ(accepted, 0u);
  EXPECT_TRUE(before.Same(store));
  ASSERT_TRUE(LoadStoreBytes(data, &store).ok());
  EXPECT_EQ(trim::StoreToXml(store), trim::StoreToXml(source));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinaryCorruptionFuzz,
                         ::testing::Values(3, 9, 27));

}  // namespace
}  // namespace slim
