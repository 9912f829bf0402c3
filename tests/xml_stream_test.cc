#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <thread>
#include <tuple>

#include "doc/xml/parser.h"
#include "doc/xml/reader.h"
#include "doc/xml/writer.h"
#include "mark/mark_manager.h"
#include "mark/modules.h"
#include "trim/persistence.h"
#include "util/file.h"
#include "util/rng.h"

// The streaming persistence paths (xml::Reader / xml::Writer straight under
// TRIM persistence and the mark manager) against the DOM-based code they
// replaced, kept here as the reference: the same bytes written, the same
// files accepted and rejected with the same status code, and the same
// triples and marks loaded. Plus the guarantees the streaming paths add:
// all-or-nothing loads, bounded nesting and crash-safe saves.

namespace slim {
namespace {

namespace xml = doc::xml;
using mark::MarkManager;
using trim::Object;
using trim::Triple;
using trim::TripleStore;

// ---------------------------------------------------------------------------
// Reference: the DOM-based persistence, on the public DOM API.
// ---------------------------------------------------------------------------

std::string DomStoreToXml(const TripleStore& store) {
  xml::Document doc;
  auto root = std::make_unique<xml::Element>("trim:store");
  root->SetAttribute("xmlns:trim", "http://slim.ogi.edu/trim");
  store.ForEach([&](const Triple& t) {
    xml::Element* stmt = root->AddElement("trim:statement");
    stmt->SetAttribute("subject", t.subject);
    stmt->SetAttribute("property", t.property);
    xml::Element* obj = stmt->AddElement(
        t.object.is_resource() ? "trim:resource" : "trim:literal");
    if (!t.object.text.empty()) obj->AddText(t.object.text);
  });
  doc.set_root(std::move(root));
  return xml::WriteXml(doc);
}

Status DomStoreFromXml(std::string_view xml_text, TripleStore* store) {
  xml::ParseOptions opts;
  opts.strip_whitespace_text = false;
  SLIM_ASSIGN_OR_RETURN(std::unique_ptr<xml::Document> doc,
                        xml::ParseXml(xml_text, opts));
  if (doc->root() == nullptr || doc->root()->name() != "trim:store") {
    return Status::ParseError("root element is not <trim:store>");
  }
  store->Clear();
  for (xml::Element* stmt : doc->root()->ChildElements("trim:statement")) {
    const std::string* subject = stmt->FindAttribute("subject");
    const std::string* property = stmt->FindAttribute("property");
    if (subject == nullptr || property == nullptr) {
      return Status::ParseError("missing subject/property attribute");
    }
    xml::Element* res = stmt->FirstChild("trim:resource");
    xml::Element* lit = stmt->FirstChild("trim:literal");
    if ((res == nullptr) == (lit == nullptr)) {
      return Status::ParseError("not exactly one object");
    }
    Object object = res != nullptr ? Object::Resource(res->InnerText())
                                   : Object::Literal(lit->InnerText());
    SLIM_RETURN_NOT_OK(
        store->Add(Triple{*subject, *property, std::move(object)}));
  }
  return Status::OK();
}

std::string DomMarksToXml(const MarkManager& manager) {
  xml::Document doc;
  auto root = std::make_unique<xml::Element>("marks");
  for (const std::string& id : manager.MarkIds()) {
    const mark::Mark* m = *manager.GetMark(id);
    xml::Element* me = root->AddElement("mark");
    me->SetAttribute("id", id);
    me->SetAttribute("type", std::string(m->type()));
    for (const auto& [name, value] : m->Fields()) {
      xml::Element* fe = me->AddElement("field");
      fe->SetAttribute("name", name);
      fe->SetAttribute("value", value);
    }
    if (!m->excerpt().empty()) {
      me->AddElement("excerpt")->AddText(m->excerpt());
    }
  }
  doc.set_root(std::move(root));
  return xml::WriteXml(doc);
}

// `modules` stands in for the manager's registry of default modules.
Status DomMarksFromXml(std::string_view xml_text,
                       const std::map<std::string, mark::MarkModule*>& modules,
                       MarkManager* manager) {
  xml::ParseOptions opts;
  opts.strip_whitespace_text = false;
  SLIM_ASSIGN_OR_RETURN(std::unique_ptr<xml::Document> doc,
                        xml::ParseXml(xml_text, opts));
  if (doc->root() == nullptr || doc->root()->name() != "marks") {
    return Status::ParseError("root element is not <marks>");
  }
  for (xml::Element* me : doc->root()->ChildElements("mark")) {
    const std::string* id = me->FindAttribute("id");
    const std::string* type = me->FindAttribute("type");
    if (id == nullptr || type == nullptr) {
      return Status::ParseError("<mark> missing id/type attribute");
    }
    mark::MarkFields fields;
    for (xml::Element* fe : me->ChildElements("field")) {
      const std::string* name = fe->FindAttribute("name");
      const std::string* value = fe->FindAttribute("value");
      if (name == nullptr || value == nullptr) {
        return Status::ParseError("<field> missing name/value attribute");
      }
      fields.push_back({*name, *value});
    }
    auto module = modules.find(*type);
    if (module == modules.end()) return Status::NotFound("no module");
    SLIM_ASSIGN_OR_RETURN(std::unique_ptr<mark::Mark> m,
                          module->second->FromFields(*id, fields));
    xml::Element* excerpt = me->FirstChild("excerpt");
    if (excerpt != nullptr) m->set_excerpt(excerpt->InnerText());
    SLIM_RETURN_NOT_OK(manager->AdoptMark(std::move(m)));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Comparing the two loaders.
// ---------------------------------------------------------------------------

struct StoreLoad {
  StatusCode code;
  std::vector<Triple> triples;  // sorted; only when the load succeeded
};

StoreLoad LoadStoreWith(Status (*load)(std::string_view, TripleStore*),
                        std::string_view text) {
  TripleStore store;
  Status st = load(text, &store);
  StoreLoad out{st.code(), {}};
  if (st.ok()) {
    store.ForEach([&](const Triple& t) { out.triples.push_back(t); });
    std::sort(out.triples.begin(), out.triples.end());
  }
  return out;
}

void ExpectSameStoreLoad(std::string_view text) {
  StoreLoad dom = LoadStoreWith(DomStoreFromXml, text);
  StoreLoad streamed = LoadStoreWith(trim::StoreFromXml, text);
  EXPECT_EQ(streamed.code, dom.code) << "input: " << text;
  EXPECT_EQ(streamed.triples, dom.triples) << "input: " << text;
}

using MarkRow = std::tuple<std::string, std::string, mark::MarkFields,
                           std::string>;  // id, type, fields, excerpt

class MarksXml : public ::testing::Test {
 protected:
  // FromFields needs no base application.
  mark::ExcelMarkModule excel_{nullptr};
  mark::XmlMarkModule xml_{nullptr};
  std::map<std::string, mark::MarkModule*> modules_{{"excel", &excel_},
                                                    {"xml", &xml_}};

  // A manager with both modules and one mark already held, so a file that
  // repeats its id clashes.
  std::unique_ptr<MarkManager> NewManager() {
    auto m = std::make_unique<MarkManager>();
    EXPECT_TRUE(m->RegisterModule(&excel_).ok());
    EXPECT_TRUE(m->RegisterModule(&xml_).ok());
    EXPECT_TRUE(m->AdoptMark(std::make_unique<mark::XmlMark>(
                                 "held", "lab.xml", "/report[1]"))
                    .ok());
    return m;
  }

  static std::vector<MarkRow> Rows(const MarkManager& manager) {
    std::vector<MarkRow> rows;
    for (const std::string& id : manager.MarkIds()) {
      const mark::Mark* m = *manager.GetMark(id);
      rows.emplace_back(id, std::string(m->type()), m->Fields(), m->excerpt());
    }
    return rows;
  }

  void ExpectSameMarksLoad(std::string_view text) {
    auto dom = NewManager();
    auto streamed = NewManager();
    Status dom_st = DomMarksFromXml(text, modules_, dom.get());
    Status streamed_st = streamed->FromXml(text);
    EXPECT_EQ(streamed_st.code(), dom_st.code()) << "input: " << text;
    if (dom_st.ok()) {
      EXPECT_EQ(Rows(*streamed), Rows(*dom)) << "input: " << text;
    }
  }
};

// ---------------------------------------------------------------------------
// Random inputs.
// ---------------------------------------------------------------------------

// Text with XML specials, attribute-escaped whitespace, non-ASCII bytes,
// and sometimes whitespace only.
std::string RandomText(Rng* rng, size_t max_len) {
  static const char* kPieces[] = {"a", "b", "<", ">", "&", "\"", "'", " ",
                                  "\n", "\t", "\r", "x", "é", "1", ";", "#"};
  if (rng->Chance(0.1)) return std::string(rng->Below(4), ' ') + "\n\t";
  std::string out;
  size_t n = rng->Below(max_len + 1);
  for (size_t i = 0; i < n; ++i) out += kPieces[rng->Below(std::size(kPieces))];
  return out;
}

void FillRandomStore(uint64_t seed, size_t n, TripleStore* store) {
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    std::string subject = "s" + RandomText(&rng, 6) + std::to_string(i % 7);
    std::string property = "p" + RandomText(&rng, 4);
    std::string text = rng.Chance(0.15) ? "" : RandomText(&rng, 24);
    Object object = rng.Chance(0.3) ? Object::Resource(std::move(text))
                                    : Object::Literal(std::move(text));
    (void)store->Add(Triple{subject, property, std::move(object)});
  }
}

void FillRandomMarks(uint64_t seed, size_t n, MarkManager* manager) {
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    std::string id = "m" + RandomText(&rng, 5) + "-" + std::to_string(i);
    std::unique_ptr<mark::Mark> m;
    if (rng.Chance(0.5)) {
      int32_t row = static_cast<int32_t>(rng.Below(50));
      int32_t col = static_cast<int32_t>(rng.Below(10));
      m = std::make_unique<mark::ExcelMark>(
          id, RandomText(&rng, 10), RandomText(&rng, 8),
          doc::RangeRef{{row, col}, {row + 2, col + 1}});
    } else {
      m = std::make_unique<mark::XmlMark>(id, RandomText(&rng, 10),
                                          "/r[" + RandomText(&rng, 6) + "]");
    }
    if (rng.Chance(0.7)) m->set_excerpt(RandomText(&rng, 30));
    ASSERT_TRUE(manager->AdoptMark(std::move(m)).ok());
  }
}

// Every single-byte substitution from a small alphabet of structural
// characters, and every single-byte deletion.
template <typename F>
void ForEachByteMutation(const std::string& text, F f) {
  static const char kBytes[] = {'<', '>', '/', '&', '"', '=', ' ', 'x', ';'};
  for (size_t i = 0; i < text.size(); ++i) {
    std::string mutated = text;
    for (char b : kBytes) {
      if (text[i] == b) continue;
      mutated[i] = b;
      f(mutated);
    }
    f(text.substr(0, i) + text.substr(i + 1));
  }
}

// ---------------------------------------------------------------------------
// Store: byte identity and the differential loader.
// ---------------------------------------------------------------------------

TEST(StreamingStoreXml, WriterIsByteIdenticalToDomWriter) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    TripleStore store;
    FillRandomStore(seed, 40, &store);
    EXPECT_EQ(trim::StoreToXml(store), DomStoreToXml(store)) << seed;
  }
  TripleStore empty;
  EXPECT_EQ(trim::StoreToXml(empty), DomStoreToXml(empty));
}

TEST(StreamingStoreXml, LoaderMatchesDomOnRandomStores) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    TripleStore store;
    FillRandomStore(seed, 40, &store);
    std::string text = trim::StoreToXml(store);
    ExpectSameStoreLoad(text);
    TripleStore loaded;
    ASSERT_TRUE(trim::StoreFromXml(text, &loaded).ok());
    EXPECT_EQ(loaded.size(), store.size());
  }
}

TEST(StreamingStoreXml, LoaderMatchesDomOnHandWrittenVariants) {
  auto stmt = [](std::string_view attrs, std::string_view body) {
    return "<trim:statement " + std::string(attrs) + ">" + std::string(body) +
           "</trim:statement>";
  };
  const std::string sp = "subject=\"s\" property=\"p\"";
  const std::vector<std::string> bodies = {
      "<trim:literal>a<!-- note -->b</trim:literal>",
      "<trim:literal>a<![CDATA[<b>&amp;]]>c</trim:literal>",
      "<trim:literal>a<?pi data?>b</trim:literal>",
      "<trim:literal>a<b>in<trim:resource>r</trim:resource></b>c"
      "</trim:literal>",
      "<note>n</note><trim:resource>r</trim:resource>",
      "<trim:literal>first</trim:literal><trim:literal>second</trim:literal>",
      "<trim:literal>v</trim:literal><trim:resource>r</trim:resource>",
      "<trim:resource>r</trim:resource><trim:literal>v</trim:literal>",
      "<trim:literal/>",
      "<trim:literal>  \n\t </trim:literal>",
      "<trim:literal>&#233;&lt;&#x42;&#10;</trim:literal>",
      "loose text<trim:resource>r</trim:resource>tail",
      "<x><trim:literal>deeper</trim:literal></x>",
      "",
  };
  std::vector<std::string> files;
  for (const std::string& body : bodies) {
    files.push_back("<trim:store>" + stmt(sp, body) + "</trim:store>");
  }
  const std::string lit = "<trim:literal>v</trim:literal>";
  files.insert(
      files.end(),
      {
          "<trim:store/>",
          "<?xml version=\"1.0\"?><!DOCTYPE s [<!ELEMENT s ANY>]><!-- c -->"
          "<trim:store>" + stmt(sp, lit) + "</trim:store><!-- after -->",
          "<trim:store x=\"1\"><unknown/>" +
              stmt(sp + " extra=\"e\"", lit) + "<other>" +
              stmt("subject=\"o\" property=\"q\"", lit) +
              "</other></trim:store>",
          "<trim:store><trim:statement " + sp + "/></trim:store>",
          "<trim:store>" + stmt("subject=\"&#65;&amp;\" property=\"p&#x42;\"",
                                lit) + "</trim:store>",
          "<trim:store>" + stmt("subject=\"\" property=\"p\"", lit) +
              "</trim:store>",
          "<trim:store>" + stmt("subject=\"s\"", lit) + "</trim:store>",
          "<trim:store>" + stmt(sp, lit) + stmt(sp, lit) + "</trim:store>",
          "<trim:store>" + stmt(sp, lit) + stmt(sp, lit) +
              stmt("subject=\"s\"", lit) + "</trim:store>",
          "<trim:store>" + stmt("subject=\"s\"", lit) + stmt(sp, lit) +
              stmt(sp, lit) + "</trim:store>",
          "<trim:store>" + stmt("subject=\"s\"", lit) + "<a></b></trim:store>",
          "<trim:store>" + stmt(sp, lit) + "</trim:store><extra/>",
          "<store>" + stmt(sp, lit) + "</store>",
          "<trim:store>" + stmt(sp, "<trim:statement " + sp + ">" + lit +
                                        "</trim:statement>" + lit) +
              "</trim:store>",
      });
  for (const std::string& file : files) ExpectSameStoreLoad(file);
}

TEST(StreamingStoreXml, LoaderMatchesDomOnEveryPrefix) {
  TripleStore store;
  ASSERT_TRUE(store.AddLiteral("b1", "name", "A & <B>").ok());
  ASSERT_TRUE(store.AddResource("b1", "content", "s1").ok());
  ASSERT_TRUE(store.AddLiteral("s1", "note", "").ok());
  std::string text = trim::StoreToXml(store);
  for (size_t n = 0; n <= text.size(); ++n) {
    ExpectSameStoreLoad(text.substr(0, n));
  }
}

TEST(StreamingStoreXml, LoaderMatchesDomOnByteMutations) {
  TripleStore store;
  ASSERT_TRUE(store.AddLiteral("b1", "name", "A&B").ok());
  ASSERT_TRUE(store.AddResource("b1", "content", "s1").ok());
  std::string text = trim::StoreToXml(store);
  ForEachByteMutation(text,
                      [](const std::string& m) { ExpectSameStoreLoad(m); });
}

// ---------------------------------------------------------------------------
// Marks: byte identity and the differential loader.
// ---------------------------------------------------------------------------

TEST_F(MarksXml, WriterIsByteIdenticalToDomWriter) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    MarkManager manager;
    FillRandomMarks(seed, 25, &manager);
    EXPECT_EQ(manager.ToXml(), DomMarksToXml(manager)) << seed;
  }
  MarkManager empty;
  EXPECT_EQ(empty.ToXml(), DomMarksToXml(empty));
}

TEST_F(MarksXml, LoaderMatchesDomOnRandomMarkSets) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    MarkManager manager;
    FillRandomMarks(seed, 25, &manager);
    ExpectSameMarksLoad(manager.ToXml());
  }
}

TEST_F(MarksXml, LoaderMatchesDomOnHandWrittenVariants) {
  const std::string xml_fields =
      "<field name=\"fileName\" value=\"lab.xml\"/>"
      "<field name=\"xmlPath\" value=\"/r[1]\"/>";
  auto mark = [](std::string_view attrs, std::string_view body) {
    return "<mark " + std::string(attrs) + ">" + std::string(body) + "</mark>";
  };
  for (const std::string& file : std::vector<std::string>{
           "<marks/>",
           "<marks>" + mark("id=\"a\" type=\"xml\"", xml_fields) + "</marks>",
           "<marks>" +
               mark("id=\"a\" type=\"xml\"",
                    xml_fields + "<excerpt>K <b>4</b><![CDATA[.2]]></excerpt>"
                                 "<excerpt>second</excerpt>") +
               "</marks>",
           "<marks>" +
               mark("id=\"a\" type=\"xml\"",
                    "<excerpt><field name=\"x\"/></excerpt>" + xml_fields) +
               "</marks>",
           "<marks>" + mark("id=\"a\" type=\"xml\" x=\"1\"",
                            "<other>" + xml_fields + "</other>") +
               "</marks>",
           "<marks>" + mark("id=\"a\" type=\"xml\"", xml_fields) +
               mark("id=\"a\" type=\"xml\"", xml_fields) + "</marks>",
           "<marks>" + mark("id=\"held\" type=\"xml\"", xml_fields) +
               "</marks>",
           "<marks>" + mark("id=\"\" type=\"xml\"", xml_fields) + "</marks>",
           "<marks>" + mark("id=\"a\" type=\"nope\"", xml_fields) + "</marks>",
           "<marks>" + mark("id=\"a\"", xml_fields) + "</marks>",
           "<marks>" + mark("id=\"a\" type=\"xml\"", "<field name=\"n\"/>") +
               "</marks>",
           "<marks>" +
               mark("id=\"a\" type=\"excel\"",
                    "<field name=\"fileName\" value=\"m.book\"/>"
                    "<field name=\"sheetName\" value=\"Meds\"/>"
                    "<field name=\"range\" value=\"not a range\"/>") +
               "</marks>",
           "<marks>" + mark("id=\"a\" type=\"nope\"", "") +
               mark("id=\"b\"", "") + "</marks>",
           "<marks>" + mark("id=\"b\"", "") + "<a></b></marks>",
           "<wrong/>",
       }) {
    ExpectSameMarksLoad(file);
  }
}

TEST_F(MarksXml, LoaderMatchesDomOnPrefixesAndByteMutations) {
  MarkManager manager;
  FillRandomMarks(7, 2, &manager);
  std::string text = manager.ToXml();
  for (size_t n = 0; n <= text.size(); ++n) {
    ExpectSameMarksLoad(text.substr(0, n));
  }
  ForEachByteMutation(text,
                      [&](const std::string& m) { ExpectSameMarksLoad(m); });
}

// ---------------------------------------------------------------------------
// All-or-nothing loads.
// ---------------------------------------------------------------------------

std::string StoreFile(const std::vector<std::string>& statements) {
  std::string out = "<trim:store>";
  for (const std::string& s : statements) out += s;
  return out + "</trim:store>";
}

std::string Statement(std::string_view subject, std::string_view literal) {
  return "<trim:statement subject=\"" + std::string(subject) +
         "\" property=\"p\"><trim:literal>" + std::string(literal) +
         "</trim:literal></trim:statement>";
}

TEST(StoreLoadAllOrNothing, BadThirdStatementLeavesStoreUnchanged) {
  TripleStore store;
  ASSERT_TRUE(store.AddLiteral("old", "p", "1").ok());
  ASSERT_TRUE(store.AddResource("old", "q", "x").ok());
  const std::string before = trim::StoreToXml(store);
  Status st = trim::StoreFromXml(
      StoreFile({Statement("a", "1"), Statement("b", "2"),
                 "<trim:statement subject=\"c\"><trim:literal>3"
                 "</trim:literal></trim:statement>"}),
      &store);
  EXPECT_TRUE(st.IsParseError()) << st;
  EXPECT_EQ(trim::StoreToXml(store), before);
}

TEST(StoreLoadAllOrNothing, RepeatedStatementLeavesStoreUnchanged) {
  TripleStore store;
  ASSERT_TRUE(store.AddLiteral("old", "p", "1").ok());
  const std::string before = trim::StoreToXml(store);
  Status st = trim::StoreFromXml(
      StoreFile(
          {Statement("a", "1"), Statement("b", "2"), Statement("a", "1")}),
      &store);
  EXPECT_TRUE(st.IsAlreadyExists()) << st;
  EXPECT_EQ(trim::StoreToXml(store), before);
}

TEST(StoreLoadAllOrNothing, GoodFileReplacesEveryTriple) {
  TripleStore store;
  ASSERT_TRUE(store.AddLiteral("old", "p", "1").ok());
  ASSERT_TRUE(store.AddLiteral("a", "p", "1").ok());  // also in the file
  ASSERT_TRUE(trim::StoreFromXml(
                  StoreFile({Statement("a", "1"), Statement("b", "2")}), &store)
                  .ok());
  EXPECT_EQ(store.size(), 2u);
  EXPECT_FALSE(store.Contains(Triple{"old", "p", Object::Literal("1")}));
  EXPECT_TRUE(store.Contains(Triple{"a", "p", Object::Literal("1")}));
  EXPECT_TRUE(store.Contains(Triple{"b", "p", Object::Literal("2")}));
}

TEST_F(MarksXml, UnknownTypeInSecondMarkAdoptsNoMark) {
  auto manager = NewManager();
  Status st = manager->FromXml(
      "<marks><mark id=\"a\" type=\"xml\"><field name=\"fileName\" "
      "value=\"lab.xml\"/><field name=\"xmlPath\" value=\"/r[1]\"/></mark>"
      "<mark id=\"b\" type=\"unregistered\"/></marks>");
  EXPECT_TRUE(st.IsNotFound()) << st;
  EXPECT_EQ(manager->MarkIds(), std::vector<std::string>{"held"});
}

// ---------------------------------------------------------------------------
// Bounded nesting.
// ---------------------------------------------------------------------------

std::string Nested(std::string_view root, size_t depth) {
  std::string out = "<" + std::string(root) + ">";
  for (size_t i = 0; i < depth; ++i) out += "<a>";
  for (size_t i = 0; i < depth; ++i) out += "</a>";
  return out + "</" + std::string(root) + ">";
}

TEST(XmlDepthBound, DeepNestingIsAParseErrorEverywhere) {
  // Well-formed but for its depth: 200,000 elements inside the root.
  Status parsed = xml::ParseXml(Nested("trim:store", 200000)).status();
  EXPECT_TRUE(parsed.IsParseError()) << parsed;
  TripleStore store;
  Status loaded = trim::StoreFromXml(Nested("trim:store", 200000), &store);
  EXPECT_TRUE(loaded.IsParseError()) << loaded;
  MarkManager marks;
  Status marked = marks.FromXml(Nested("marks", 200000));
  EXPECT_TRUE(marked.IsParseError()) << marked;
}

TEST(XmlDepthBound, LimitIsExact) {
  // The root plus kMaxXmlDepth - 1 nested elements is the deepest accepted.
  EXPECT_TRUE(xml::ParseXml(Nested("r", xml::kMaxXmlDepth - 1)).ok());
  EXPECT_TRUE(
      xml::ParseXml(Nested("r", xml::kMaxXmlDepth)).status().IsParseError());
}

// ---------------------------------------------------------------------------
// Crash-safe saves.
// ---------------------------------------------------------------------------

bool Exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

TEST(CrashSafeSave, BlockedTempFileKeepsTheOldPad) {
  const std::string path = ::testing::TempDir() + "/crash_safe_pad.xml";
  TripleStore store;
  ASSERT_TRUE(store.AddLiteral("b1", "name", "first").ok());
  ASSERT_TRUE(trim::SaveStore(store, path).ok());
  EXPECT_FALSE(Exists(path + ".tmp"));
  const std::string before = *ReadFile(path);

  ASSERT_TRUE(store.AddLiteral("b2", "name", "second").ok());
  ASSERT_EQ(::mkdir((path + ".tmp").c_str(), 0700), 0);
  Status st = trim::SaveStore(store, path);
  EXPECT_TRUE(st.IsIoError()) << st;
  EXPECT_EQ(*ReadFile(path), before);
  ::rmdir((path + ".tmp").c_str());

  ASSERT_TRUE(trim::SaveStore(store, path).ok());
  TripleStore loaded;
  ASSERT_TRUE(trim::LoadStore(path, &loaded).ok());
  EXPECT_EQ(loaded.size(), 2u);
  std::remove(path.c_str());
}

TEST(CrashSafeSave, BlockedTempFileKeepsTheOldMarks) {
  const std::string path = ::testing::TempDir() + "/crash_safe.marks";
  MarkManager marks;
  ASSERT_TRUE(marks.AdoptMark(std::make_unique<mark::XmlMark>(
                                  "m1", "lab.xml", "/r[1]"))
                  .ok());
  ASSERT_TRUE(marks.SaveToFile(path).ok());
  EXPECT_FALSE(Exists(path + ".tmp"));
  const std::string before = *ReadFile(path);

  ASSERT_TRUE(marks.AdoptMark(std::make_unique<mark::XmlMark>(
                                  "m2", "lab.xml", "/r[2]"))
                  .ok());
  ASSERT_EQ(::mkdir((path + ".tmp").c_str(), 0700), 0);
  Status st = marks.SaveToFile(path);
  EXPECT_TRUE(st.IsIoError()) << st;
  EXPECT_EQ(*ReadFile(path), before);
  ::rmdir((path + ".tmp").c_str());
  std::remove(path.c_str());
}

// CommitAll writes and fsyncs every temp file before it renames any: when
// one cannot be written no target changes and no temp file is left.
TEST(FileReplacerTest, CommitAllReplacesEveryFileOrNone) {
  const std::string a = ::testing::TempDir() + "/commit_all_a.txt";
  const std::string b = ::testing::TempDir() + "/commit_all_b.txt";
  { std::ofstream(a, std::ios::binary | std::ios::trunc) << "old a"; }
  { std::ofstream(b, std::ios::binary | std::ios::trunc) << "old b"; }
  ASSERT_EQ(::mkdir((b + ".tmp").c_str(), 0700), 0);
  {
    FileReplacer file_a(a);
    *file_a.buffer() = "new a";
    FileReplacer file_b(b);
    *file_b.buffer() = "new b";
    Status st = FileReplacer::CommitAll({&file_a, &file_b});
    EXPECT_TRUE(st.IsIoError()) << st;
  }
  EXPECT_EQ(*ReadFile(a), "old a");
  EXPECT_EQ(*ReadFile(b), "old b");
  EXPECT_NE(::access((a + ".tmp").c_str(), F_OK), 0);
  ASSERT_EQ(::rmdir((b + ".tmp").c_str()), 0);
  {
    FileReplacer file_a(a);
    *file_a.buffer() = "new a";
    FileReplacer file_b(b);
    *file_b.buffer() = "new b";
    ASSERT_TRUE(FileReplacer::CommitAll({&file_a, &file_b}).ok());
  }
  EXPECT_EQ(*ReadFile(a), "new a");
  EXPECT_EQ(*ReadFile(b), "new b");
  std::remove(a.c_str());
  std::remove(b.c_str());
}

// ---------------------------------------------------------------------------
// ReadFile.
// ---------------------------------------------------------------------------

TEST(ReadFileTest, RegularEmptyMissingAndDirectory) {
  const std::string path = ::testing::TempDir() + "/read_file_test.bin";
  std::string data(100000, 'x');
  data[5] = '\0';
  data.back() = 'z';
  { std::ofstream(path, std::ios::binary) << data; }
  Result<std::string> read = ReadFile(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, data);

  { std::ofstream(path, std::ios::binary | std::ios::trunc); }
  ASSERT_TRUE(ReadFile(path).ok());
  EXPECT_EQ(*ReadFile(path), "");
  std::remove(path.c_str());

  Status missing = ReadFile(path).status();
  EXPECT_TRUE(missing.IsIoError());
  EXPECT_NE(missing.message().find("cannot open '" + path + "'"),
            std::string::npos);
  EXPECT_TRUE(ReadFile(::testing::TempDir()).status().IsIoError());
}

TEST(ReadFileTest, UnsizedFileIsReadToTheEnd) {
  // A FIFO reports no size, so ReadFile grows its buffer as data arrives.
  const std::string path = ::testing::TempDir() + "/read_file_test.fifo";
  std::remove(path.c_str());
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  std::string data;
  for (int i = 0; i < 30000; ++i) data += std::to_string(i) + ",";
  std::thread writer([&] { std::ofstream(path, std::ios::binary) << data; });
  Result<std::string> read = ReadFile(path);
  writer.join();
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, data);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace slim
