#include <gtest/gtest.h>

#include <regex>

#include "doc/xml/dom.h"
#include "doc/xml/parser.h"
#include "doc/xml/path.h"
#include "doc/xml/writer.h"

namespace slim::doc::xml {
namespace {

std::unique_ptr<Document> MustParse(std::string_view text,
                                    const ParseOptions& opts = {}) {
  auto r = ParseXml(text, opts);
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ok() ? std::move(*r) : nullptr;
}

TEST(XmlParseTest, MinimalDocument) {
  auto doc = MustParse("<root/>");
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->root()->name(), "root");
  EXPECT_TRUE(doc->root()->children().empty());
  EXPECT_EQ(doc->ElementCount(), 1u);
}

TEST(XmlParseTest, NestedElementsAndText) {
  auto doc = MustParse("<a><b>hello</b><b>world</b><c/></a>");
  ASSERT_NE(doc, nullptr);
  std::vector<Element*> bs = doc->root()->ChildElements("b");
  ASSERT_EQ(bs.size(), 2u);
  EXPECT_EQ(bs[0]->InnerText(), "hello");
  EXPECT_EQ(bs[1]->InnerText(), "world");
  EXPECT_EQ(doc->root()->InnerText(), "helloworld");
  EXPECT_EQ(doc->ElementCount(), 4u);
}

TEST(XmlParseTest, Attributes) {
  auto doc = MustParse(
      "<result name=\"Na\" value='142' units=\"mmol/L\"/>");
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(*doc->root()->FindAttribute("name"), "Na");
  EXPECT_EQ(*doc->root()->FindAttribute("value"), "142");
  EXPECT_EQ(doc->root()->FindAttribute("missing"), nullptr);
  EXPECT_EQ(doc->root()->attributes().size(), 3u);
}

TEST(XmlParseTest, EntitiesDecoded) {
  auto doc = MustParse("<t a=\"&lt;&amp;&gt;\">&quot;x&apos; &#65;&#x42;</t>");
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(*doc->root()->FindAttribute("a"), "<&>");
  EXPECT_EQ(doc->root()->InnerText(), "\"x' AB");
}

TEST(XmlParseTest, Utf8CharacterReference) {
  auto doc = MustParse("<t>&#233;</t>");  // é
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->root()->InnerText(), "\xC3\xA9");
}

TEST(XmlParseTest, CData) {
  auto doc = MustParse("<t><![CDATA[<not><parsed> & raw]]></t>");
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->root()->InnerText(), "<not><parsed> & raw");
}

TEST(XmlParseTest, CommentsSkippedByDefault) {
  auto doc = MustParse("<t><!-- hidden -->visible</t>");
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->root()->children().size(), 1u);
  ParseOptions keep;
  keep.keep_comments = true;
  auto doc2 = MustParse("<t><!-- hidden -->visible</t>", keep);
  EXPECT_EQ(doc2->root()->children().size(), 2u);
}

TEST(XmlParseTest, PrologAndDoctypeSkipped) {
  auto doc = MustParse(
      "<?xml version=\"1.0\"?>\n"
      "<!DOCTYPE labReport [ <!ELEMENT x (y)> ]>\n"
      "<!-- header -->\n"
      "<labReport/>");
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->root()->name(), "labReport");
}

TEST(XmlParseTest, WhitespaceStrippingOption) {
  const char* src = "<a>\n  <b>x</b>\n</a>";
  auto stripped = MustParse(src);
  EXPECT_EQ(stripped->root()->children().size(), 1u);
  ParseOptions keep;
  keep.strip_whitespace_text = false;
  auto kept = MustParse(src, keep);
  EXPECT_EQ(kept->root()->children().size(), 3u);
}

TEST(XmlParseTest, Rejections) {
  for (const char* bad :
       {"", "<a>", "<a></b>", "<a", "<a x></a>", "<a x=\"1></a>", "<a>&nope;</a>",
        "<a></a><b></b>", "<a x=\"1\" x=\"2\"/>", "<a>&#xZZ;</a>",
        "plain text", "<a><b></a></b>"}) {
    EXPECT_FALSE(ParseXml(bad).ok()) << bad;
  }
}

TEST(XmlParseTest, ErrorIncludesLineAndColumn) {
  Status st = ParseXml("<a>\n<b></c>\n</a>").status();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("2:"), std::string::npos) << st;
}

TEST(XmlParseTest, MalformedInputIsAParseErrorWithLineAndColumn) {
  struct Case {
    const char* what;
    const char* text;
  };
  const Case cases[] = {
      {"mismatched end tag", "<a>\n<b></c>\n</a>"},
      {"unterminated comment", "<a><!-- open</a>"},
      {"unterminated CDATA", "<a><![CDATA[ open</a>"},
      {"unterminated PI", "<a><?pi open</a>"},
      {"unterminated attribute", "<a x=\"open/>"},
      {"unterminated start tag", "<a x=\"1\""},
      {"bad character reference", "<a>&#xZZ;</a>"},
      {"unknown entity", "<a>&nope;</a>"},
      {"unterminated entity", "<a x=\"&amp\"/>"},
      {"duplicate attribute", "<a x=\"1\" x=\"2\"/>"},
      {"content after the root", "<a/>\n<b/>"},
      {"no root", "<?xml version=\"1.0\"?><!-- only a comment -->"},
  };
  const std::regex prefix(R"(^XML \d+:\d+: )");
  for (const Case& c : cases) {
    Status st = ParseXml(c.text).status();
    EXPECT_TRUE(st.IsParseError()) << c.what << ": " << st;
    EXPECT_TRUE(std::regex_search(st.message(), prefix))
        << c.what << ": " << st;
  }
  EXPECT_EQ(ParseXml("<a>\n<b></c>\n</a>").status().message(),
            "XML 2:7: mismatched end tag </c> for <b>");
  EXPECT_EQ(ParseXml("<a/>\n<b/>").status().message(),
            "XML 2:1: content after document element");
}

TEST(XmlWriteTest, EscapesSpecials) {
  EXPECT_EQ(EscapeText("a<b>&c"), "a&lt;b&gt;&amp;c");
  EXPECT_EQ(EscapeAttribute("x\"y\nz"), "x&quot;y&#10;z");
}

TEST(XmlWriteTest, ParseWriteFixpoint) {
  const char* src =
      "<report mrn=\"MRN1\"><panel name=\"lytes\"><result name=\"Na\" "
      "value=\"140\">Na 140</result><result name=\"K\" value=\"4.2\">K "
      "4.2</result></panel><note>watch &amp; wait</note></report>";
  auto doc1 = MustParse(src);
  std::string printed1 = WriteXml(*doc1);
  auto doc2 = MustParse(printed1);
  std::string printed2 = WriteXml(*doc2);
  EXPECT_EQ(printed1, printed2);
  EXPECT_EQ(doc1->ElementCount(), doc2->ElementCount());
  EXPECT_EQ(doc2->root()->InnerText().find("watch & wait") !=
                std::string::npos,
            true);
}

TEST(XmlDomTest, BuildProgrammatically) {
  auto doc = Document::Create("labReport");
  Element* panel = doc->root()->AddElement("panel");
  panel->SetAttribute("name", "electrolytes");
  Element* result = panel->AddElement("result");
  result->SetAttribute("name", "Na");
  result->AddText("Na 141");
  EXPECT_EQ(doc->ElementCount(), 3u);
  EXPECT_EQ(result->parent(), panel);
  EXPECT_EQ(panel->parent(), doc->root());
  EXPECT_EQ(doc->root()->parent(), nullptr);
  EXPECT_EQ(panel->FirstChild("result"), result);
  EXPECT_EQ(panel->FirstChild("nope"), nullptr);
}

TEST(XmlDomTest, SetAttributeOverwrites) {
  Element e("x");
  e.SetAttribute("a", "1");
  e.SetAttribute("a", "2");
  EXPECT_EQ(e.attributes().size(), 1u);
  EXPECT_EQ(*e.FindAttribute("a"), "2");
  EXPECT_TRUE(e.RemoveAttribute("a"));
  EXPECT_FALSE(e.RemoveAttribute("a"));
}

TEST(XmlDomTest, RemoveChild) {
  Element e("x");
  e.AddElement("a");
  e.AddElement("b");
  ASSERT_TRUE(e.RemoveChild(0).ok());
  EXPECT_EQ(e.ChildElements().size(), 1u);
  EXPECT_EQ(e.ChildElements()[0]->name(), "b");
  EXPECT_TRUE(e.RemoveChild(5).IsOutOfRange());
}

TEST(XmlDomTest, OrdinalAmongSiblings) {
  auto doc = MustParse("<a><b/><c/><b/><b/></a>");
  std::vector<Element*> bs = doc->root()->ChildElements("b");
  EXPECT_EQ(bs[0]->OrdinalAmongSiblings(), 1);
  EXPECT_EQ(bs[1]->OrdinalAmongSiblings(), 2);
  EXPECT_EQ(bs[2]->OrdinalAmongSiblings(), 3);
  EXPECT_EQ(doc->root()->ChildElements("c")[0]->OrdinalAmongSiblings(), 1);
  EXPECT_EQ(doc->root()->OrdinalAmongSiblings(), 1);
}

// ---------------------------------------------------------------------------
// XmlPath
// ---------------------------------------------------------------------------

TEST(XmlPathTest, ParseAndToString) {
  auto p = XmlPath::Parse("/report/patient[2]/labs/result[5]");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->steps().size(), 4u);
  EXPECT_EQ(p->steps()[1].name, "patient");
  EXPECT_EQ(p->steps()[1].ordinal, 2);
  EXPECT_EQ(p->steps()[2].ordinal, 0);
  EXPECT_EQ(p->ToString(), "/report/patient[2]/labs/result[5]");
}

TEST(XmlPathTest, ParseRejections) {
  for (const char* bad : {"", "relative/path", "/", "/a//b", "/a[0]", "/a[x]",
                          "/a[1", "/a]1["}) {
    EXPECT_FALSE(XmlPath::Parse(bad).ok()) << bad;
  }
}

TEST(XmlPathTest, ResolveWalksOrdinals) {
  auto doc = MustParse("<r><p><x>one</x></p><p><x>two</x><x>three</x></p></r>");
  auto path = XmlPath::Parse("/r/p[2]/x[2]");
  ASSERT_TRUE(path.ok());
  auto elem = path->Resolve(doc.get());
  ASSERT_TRUE(elem.ok()) << elem.status();
  EXPECT_EQ((*elem)->InnerText(), "three");
}

TEST(XmlPathTest, ResolveDefaultsOrdinalToOne) {
  auto doc = MustParse("<r><p>first</p><p>second</p></r>");
  auto elem = XmlPath::Parse("/r/p")->Resolve(doc.get());
  ASSERT_TRUE(elem.ok());
  EXPECT_EQ((*elem)->InnerText(), "first");
}

TEST(XmlPathTest, ResolveFailures) {
  auto doc = MustParse("<r><p/></r>");
  EXPECT_TRUE(XmlPath::Parse("/other/p")->Resolve(doc.get()).status()
                  .IsNotFound());
  EXPECT_TRUE(XmlPath::Parse("/r/q")->Resolve(doc.get()).status()
                  .IsNotFound());
  EXPECT_TRUE(XmlPath::Parse("/r/p[2]")->Resolve(doc.get()).status()
                  .IsNotFound());
  EXPECT_TRUE(XmlPath::Parse("/r/*")->Resolve(doc.get()).status()
                  .IsInvalidArgument());
}

TEST(XmlPathTest, FindAllWildcardsAndUnspecifiedOrdinals) {
  auto doc = MustParse(
      "<r><p><x/><x/></p><q><x/></q><p><x/></p></r>");
  EXPECT_EQ(XmlPath::Parse("/r/p/x")->FindAll(doc.get()).size(), 3u);
  EXPECT_EQ(XmlPath::Parse("/r/*/x")->FindAll(doc.get()).size(), 4u);
  EXPECT_EQ(XmlPath::Parse("/r/p[2]/x")->FindAll(doc.get()).size(), 1u);
  EXPECT_EQ(XmlPath::Parse("/r/nope/x")->FindAll(doc.get()).size(), 0u);
}

TEST(XmlPathTest, PathOfIsInverseOfResolve) {
  auto doc = MustParse(
      "<report><panel><result/><result/></panel>"
      "<panel><result/><result/><result/></panel></report>");
  // Every element's canonical path resolves back to that element.
  doc->root()->Visit([&](Element* e) {
    XmlPath path = PathOf(e);
    auto back = path.Resolve(doc.get());
    ASSERT_TRUE(back.ok()) << path.ToString() << ": " << back.status();
    EXPECT_EQ(*back, e) << path.ToString();
  });
}

// Property sweep: PathOf/Resolve inverse over generated trees of varying
// shape.
class XmlPathRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(XmlPathRoundTrip, EveryElementAddressable) {
  int n = GetParam();
  auto doc = Document::Create("root");
  // Deterministic tree: breadth n%4+1, depth 3, duplicated names.
  Element* level1 = doc->root();
  for (int i = 0; i <= n % 4; ++i) {
    Element* child = level1->AddElement(i % 2 ? "a" : "b");
    for (int j = 0; j <= (n + i) % 3; ++j) {
      Element* grand = child->AddElement("a");
      if ((n + j) % 2) grand->AddElement("leaf");
    }
  }
  size_t count = 0;
  doc->root()->Visit([&](Element* e) {
    ++count;
    auto back = PathOf(e).Resolve(doc.get());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, e);
  });
  EXPECT_EQ(count, doc->ElementCount());
}

INSTANTIATE_TEST_SUITE_P(Sweep, XmlPathRoundTrip, ::testing::Range(0, 24));

}  // namespace
}  // namespace slim::doc::xml
