#include <gtest/gtest.h>
#include <pthread.h>

#include <functional>
#include <utility>
#include <vector>

#include "doc/html/html.h"
#include "doc/xml/path.h"
#include "doc/xml/reader.h"

namespace slim::doc::html {
namespace {

TEST(HtmlParseTest, WellFormedFragment) {
  auto doc = ParseHtml("<html><body><p>hello</p></body></html>");
  ASSERT_NE(doc->root(), nullptr);
  EXPECT_EQ(doc->root()->name(), "html");
  auto ps = FindByTag(doc.get(), "p");
  ASSERT_EQ(ps.size(), 1u);
  EXPECT_EQ(ps[0]->InnerText(), "hello");
}

TEST(HtmlParseTest, SyntheticRootWhenMissing) {
  auto doc = ParseHtml("<p>no html element</p>");
  EXPECT_EQ(doc->root()->name(), "html");
  EXPECT_EQ(FindByTag(doc.get(), "p").size(), 1u);
}

TEST(HtmlParseTest, TagNamesLowercased) {
  auto doc = ParseHtml("<DIV CLASS=\"Big\">x</DIV>");
  auto divs = FindByTag(doc.get(), "div");
  ASSERT_EQ(divs.size(), 1u);
  EXPECT_EQ(*divs[0]->FindAttribute("class"), "Big");
}

TEST(HtmlParseTest, VoidElementsDontNest) {
  auto doc = ParseHtml("<p>a<br>b<img src=x>c</p>");
  auto ps = FindByTag(doc.get(), "p");
  ASSERT_EQ(ps.size(), 1u);
  EXPECT_EQ(ps[0]->ChildElements("br").size(), 1u);
  EXPECT_EQ(ps[0]->ChildElements("img").size(), 1u);
  EXPECT_EQ(VisibleText(ps[0]), "a b c");
}

TEST(HtmlParseTest, UnquotedAndBareAttributes) {
  auto doc = ParseHtml("<input type=text disabled>");
  auto inputs = FindByTag(doc.get(), "input");
  ASSERT_EQ(inputs.size(), 1u);
  EXPECT_EQ(*inputs[0]->FindAttribute("type"), "text");
  ASSERT_NE(inputs[0]->FindAttribute("disabled"), nullptr);
  EXPECT_EQ(*inputs[0]->FindAttribute("disabled"), "");
}

TEST(HtmlParseTest, ImpliedEndTags) {
  auto doc = ParseHtml("<ul><li>one<li>two<li>three</ul><p>a<p>b");
  EXPECT_EQ(FindByTag(doc.get(), "li").size(), 3u);
  auto ps = FindByTag(doc.get(), "p");
  ASSERT_EQ(ps.size(), 2u);
  EXPECT_EQ(VisibleText(ps[0]), "a");
  EXPECT_EQ(VisibleText(ps[1]), "b");
}

TEST(HtmlParseTest, TableImpliedCells) {
  auto doc = ParseHtml(
      "<table><tr><td>a<td>b<tr><td>c</table>");
  EXPECT_EQ(FindByTag(doc.get(), "tr").size(), 2u);
  EXPECT_EQ(FindByTag(doc.get(), "td").size(), 3u);
}

TEST(HtmlParseTest, StrayCloseTagIgnored) {
  auto doc = ParseHtml("<div>text</span></div>");
  EXPECT_EQ(FindByTag(doc.get(), "div").size(), 1u);
  EXPECT_EQ(VisibleText(doc->root()), "text");
}

TEST(HtmlParseTest, UnclosedElementsAutoCloseAtEof) {
  auto doc = ParseHtml("<div><section><p>dangling");
  EXPECT_EQ(FindByTag(doc.get(), "p").size(), 1u);
  EXPECT_EQ(VisibleText(doc->root()), "dangling");
}

TEST(HtmlParseTest, ScriptAndStyleAreRawText) {
  auto doc = ParseHtml(
      "<script>if (a < b) { x = \"<p>not a tag</p>\"; }</script>"
      "<style>p > span { color: red }</style><p>real</p>");
  EXPECT_EQ(FindByTag(doc.get(), "p").size(), 1u);
  // Script content is preserved but not rendered.
  auto scripts = FindByTag(doc.get(), "script");
  ASSERT_EQ(scripts.size(), 1u);
  EXPECT_NE(scripts[0]->InnerText().find("not a tag"), std::string::npos);
  EXPECT_EQ(VisibleText(doc->root()), "real");
}

TEST(HtmlParseTest, EntitiesTolerant) {
  auto doc = ParseHtml("<p>a &amp; b &nbsp; c &unknown; d &#65;</p>");
  EXPECT_EQ(VisibleText(doc->root()), "a & b c &unknown; d A");
}

TEST(HtmlParseTest, CommentsAndDoctypeSkipped) {
  auto doc = ParseHtml("<!DOCTYPE html><!-- c --><p>x</p>");
  EXPECT_EQ(FindByTag(doc.get(), "p").size(), 1u);
}

// A small thread stack: 256 KB, or 1 MB under a sanitizer, whose
// instrumentation makes every frame several times larger.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr size_t kSmallStackBytes = 1024 * 1024;
#else
constexpr size_t kSmallStackBytes = 256 * 1024;
#endif

// Runs `fn` on a thread with a kSmallStackBytes stack.
void OnSmallStack(const std::function<void()>& fn) {
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, kSmallStackBytes), 0);
  pthread_t thread;
  auto run = [](void* arg) -> void* {
    (*static_cast<const std::function<void()>*>(arg))();
    return nullptr;
  };
  ASSERT_EQ(pthread_create(&thread, &attr, run,
                           const_cast<std::function<void()>*>(&fn)),
            0);
  pthread_join(thread, nullptr);
  pthread_attr_destroy(&attr);
}

// The deepest element below `root`, counting `root` as depth 1; walked
// with an explicit stack.
size_t MaxDepth(const xml::Element* root) {
  size_t deepest = 0;
  std::vector<std::pair<const xml::Element*, size_t>> open = {{root, 1}};
  while (!open.empty()) {
    auto [element, depth] = open.back();
    open.pop_back();
    deepest = std::max(deepest, depth);
    for (const xml::Element* child : element->ChildElements()) {
      open.emplace_back(child, depth + 1);
    }
  }
  return deepest;
}

// Hostile base documents: 50,000 nested <div>s parse into a tree no deeper
// than the XML parser accepts, so the recursive walks and the document's
// destructor stay within a small thread stack.
TEST(HtmlParseTest, DeepNestingIsBoundedOnASmallStack) {
  constexpr int kLevels = 50000;
  std::string html;
  for (int i = 0; i < kLevels; ++i) {
    html += "<div id=\"d" + std::to_string(i) + "\">";
  }
  html += "deep text";
  for (int i = 0; i < kLevels; ++i) html += "</div>";
  OnSmallStack([&html] {
    std::unique_ptr<xml::Document> doc = ParseHtml(html);
    EXPECT_LE(MaxDepth(doc->root()), xml::kMaxXmlDepth);
    EXPECT_EQ(FindByTag(doc.get(), "div").size(), size_t{kLevels});
    EXPECT_EQ(VisibleText(doc->root()), "deep text");
    EXPECT_NE(FindById(doc.get(), "d49999"), nullptr);
    doc.reset();
  });
}

// A DOM built in code has no depth bound: 100,000 nested elements are
// walked by Visit, InnerText, VisibleText and ElementCount and freed
// without recursion, on a small thread stack.
TEST(DomTest, DeepTreeBuiltInCodeWalksAndFreesOnASmallStack) {
  constexpr size_t kLevels = 100000;
  OnSmallStack([] {
    std::unique_ptr<xml::Document> doc = xml::Document::Create("html");
    xml::Element* e = doc->root();
    for (size_t i = 1; i < kLevels; ++i) {
      e = e->AddElement(i % 1000 == 0 ? "script" : "div");
      if (i % 1000 == 1) e->AddText("t");
    }
    e->AddText("deep");
    size_t visited = 0;
    doc->root()->Visit([&visited](xml::Element*) { ++visited; });
    EXPECT_EQ(visited, size_t{kLevels});
    EXPECT_EQ(doc->ElementCount(), size_t{kLevels});
    EXPECT_EQ(doc->root()->InnerText(), std::string(100, 't') + "deep");
    // Text below the first <script> (level 1,000) is not visible.
    EXPECT_EQ(VisibleText(doc->root()), "t");
    doc.reset();
  });
}

TEST(HtmlFindTest, ById) {
  auto doc = ParseHtml(
      "<body><div id=\"a\">first</div><div id=\"b\">second</div></body>");
  ASSERT_NE(FindById(doc.get(), "b"), nullptr);
  EXPECT_EQ(VisibleText(FindById(doc.get(), "b")), "second");
  EXPECT_EQ(FindById(doc.get(), "zzz"), nullptr);
}

TEST(HtmlFindTest, Anchor) {
  auto doc = ParseHtml(
      "<body><a name=\"sec2\">Section 2</a><a id=\"sec3\">Section 3</a>"
      "<div id=\"sec4\">not an anchor</div></body>");
  ASSERT_NE(FindAnchor(doc.get(), "sec2"), nullptr);
  ASSERT_NE(FindAnchor(doc.get(), "sec3"), nullptr);
  EXPECT_EQ(FindAnchor(doc.get(), "sec4"), nullptr);  // <div>, not <a>
}

TEST(HtmlFindTest, XmlPathWorksOnHtmlDom) {
  auto doc = ParseHtml("<html><body><p>one</p><p>two</p></body></html>");
  auto path = xml::XmlPath::Parse("/html/body/p[2]");
  ASSERT_TRUE(path.ok());
  auto elem = path->Resolve(doc.get());
  ASSERT_TRUE(elem.ok()) << elem.status();
  EXPECT_EQ(VisibleText(*elem), "two");
  // PathOf round trip on the HTML DOM too.
  EXPECT_EQ(xml::PathOf(*elem).ToString(), "/html[1]/body[1]/p[2]");
}

TEST(HtmlVisibleTextTest, CollapsesWhitespace) {
  auto doc = ParseHtml("<p>  a\n\n   b\t c  </p>");
  EXPECT_EQ(VisibleText(doc->root()), "a b c");
}

}  // namespace
}  // namespace slim::doc::html
