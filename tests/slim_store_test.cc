#include <gtest/gtest.h>

#include "slim/conformance.h"
#include "slim/instance.h"
#include "slim/mapping.h"
#include "slim/model.h"
#include "slim/schema.h"
#include "slim/vocabulary.h"

namespace slim::store {
namespace {

// ---------------------------------------------------------------------------
// ModelDef
// ---------------------------------------------------------------------------

TEST(ModelDefTest, BundleScrapModelShape) {
  ModelDef model = BuildBundleScrapModel();
  EXPECT_EQ(model.name(), "bundle-scrap");
  EXPECT_EQ(*model.FindConstruct("Bundle"), ConstructKind::kConstruct);
  EXPECT_EQ(*model.FindConstruct("String"),
            ConstructKind::kLiteralConstruct);
  EXPECT_EQ(*model.FindConstruct("MarkHandle"),
            ConstructKind::kMarkConstruct);
  EXPECT_FALSE(model.FindConstruct("Nope").has_value());
  const ConnectorDef* c = model.FindConnector("bundleContent");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->domain, "Bundle");
  EXPECT_EQ(c->range, "Scrap");
  EXPECT_EQ(c->max_card, kMany);
  EXPECT_GE(model.ConnectorsFor("Scrap").size(), 3u);
}

TEST(ModelDefTest, Validations) {
  ModelDef model("m");
  ASSERT_TRUE(model.AddConstruct("A", ConstructKind::kConstruct).ok());
  EXPECT_TRUE(model.AddConstruct("A", ConstructKind::kConstruct)
                  .IsAlreadyExists());
  EXPECT_TRUE(model.AddConstruct("", ConstructKind::kConstruct)
                  .IsInvalidArgument());
  EXPECT_TRUE(model.AddConnector({"c", "A", "Missing", 0, 1}).IsNotFound());
  EXPECT_TRUE(model.AddConnector({"c", "Missing", "A", 0, 1}).IsNotFound());
  EXPECT_TRUE(
      model.AddConnector({"c", "A", "A", 2, 1}).IsInvalidArgument());
  EXPECT_TRUE(model.AddConnector({"c", "A", "A", -1, 1}).IsInvalidArgument());
  ASSERT_TRUE(model.AddConnector({"c", "A", "A", 0, kMany}).ok());
  EXPECT_TRUE(model.AddConnector({"c", "A", "A", 0, 1}).IsAlreadyExists());
}

TEST(ModelDefTest, GeneralizationAndIsA) {
  ModelDef model("m");
  ASSERT_TRUE(model.AddConstruct("Mark", ConstructKind::kMarkConstruct).ok());
  ASSERT_TRUE(
      model.AddConstruct("ExcelMark", ConstructKind::kMarkConstruct).ok());
  ASSERT_TRUE(
      model.AddConstruct("XmlMark", ConstructKind::kMarkConstruct).ok());
  ASSERT_TRUE(model.AddConstruct("Str", ConstructKind::kLiteralConstruct).ok());
  ASSERT_TRUE(model.AddGeneralization("ExcelMark", "Mark").ok());
  ASSERT_TRUE(model.AddGeneralization("XmlMark", "Mark").ok());
  EXPECT_TRUE(model.IsA("ExcelMark", "Mark"));
  EXPECT_TRUE(model.IsA("Mark", "Mark"));
  EXPECT_FALSE(model.IsA("Mark", "ExcelMark"));
  EXPECT_FALSE(model.IsA("ExcelMark", "XmlMark"));
  // Cycles rejected.
  EXPECT_TRUE(model.AddGeneralization("Mark", "ExcelMark")
                  .IsInvalidArgument());
  // Literals can't specialize.
  EXPECT_TRUE(model.AddGeneralization("Str", "Mark").IsInvalidArgument());
  EXPECT_TRUE(model.AddGeneralization("Zzz", "Mark").IsNotFound());
  // Connectors declared on the ancestor apply to descendants.
  ASSERT_TRUE(model.AddConnector({"markNote", "Mark", "Str", 0, 1}).ok());
  EXPECT_EQ(model.ConnectorsFor("ExcelMark").size(), 1u);
}

TEST(ModelDefTest, TriplesRoundTrip) {
  ModelDef model = BuildBundleScrapModel();
  trim::TripleStore store;
  ASSERT_TRUE(model.ToTriples(&store).ok());
  auto back = ModelDef::FromTriples(store, "bundle-scrap");
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->constructs(), model.constructs());
  EXPECT_EQ(back->connectors().size(), model.connectors().size());
  for (const ConnectorDef& c : model.connectors()) {
    const ConnectorDef* loaded = back->FindConnector(c.name);
    ASSERT_NE(loaded, nullptr) << c.name;
    EXPECT_EQ(loaded->domain, c.domain);
    EXPECT_EQ(loaded->range, c.range);
    EXPECT_EQ(loaded->min_card, c.min_card);
    EXPECT_EQ(loaded->max_card, c.max_card);
  }
}

TEST(ModelDefTest, GeneralizationSurvivesTriples) {
  ModelDef model("marks");
  ASSERT_TRUE(model.AddConstruct("Mark", ConstructKind::kMarkConstruct).ok());
  ASSERT_TRUE(
      model.AddConstruct("ExcelMark", ConstructKind::kMarkConstruct).ok());
  ASSERT_TRUE(model.AddGeneralization("ExcelMark", "Mark").ok());
  trim::TripleStore store;
  ASSERT_TRUE(model.ToTriples(&store).ok());
  auto back = ModelDef::FromTriples(store, "marks");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->IsA("ExcelMark", "Mark"));
}

TEST(ModelDefTest, FromTriplesMissingModel) {
  trim::TripleStore store;
  EXPECT_TRUE(ModelDef::FromTriples(store, "ghost").status().IsNotFound());
}

// ---------------------------------------------------------------------------
// SchemaDef
// ---------------------------------------------------------------------------

TEST(SchemaDefTest, IdentitySchemaCoversModel) {
  ModelDef model = BuildBundleScrapModel();
  auto schema = IdentitySchema(model, "slimpad");
  ASSERT_TRUE(schema.ok()) << schema.status();
  // One element per non-literal construct.
  EXPECT_EQ(schema->elements().size(), 4u);
  EXPECT_EQ(schema->connectors().size(), model.connectors().size());
  EXPECT_EQ(*schema->ConstructOf("Bundle"), "Bundle");
  EXPECT_TRUE(schema->ConstructOf("String").status().IsNotFound());
}

TEST(SchemaDefTest, ElementValidations) {
  ModelDef model = BuildBundleScrapModel();
  SchemaDef schema("s", "bundle-scrap");
  ASSERT_TRUE(schema.AddElement("PatientBundle", "Bundle", model).ok());
  EXPECT_TRUE(schema.AddElement("PatientBundle", "Bundle", model)
                  .IsAlreadyExists());
  EXPECT_TRUE(schema.AddElement("X", "Nope", model).IsNotFound());
  EXPECT_TRUE(schema.AddElement("Y", "String", model).IsInvalidArgument());
  ModelDef other("other");
  EXPECT_TRUE(schema.AddElement("Z", "Bundle", other).IsInvalidArgument());
}

TEST(SchemaDefTest, ConnectorValidations) {
  ModelDef model = BuildBundleScrapModel();
  SchemaDef schema("s", "bundle-scrap");
  ASSERT_TRUE(schema.AddElement("PatientBundle", "Bundle", model).ok());
  ASSERT_TRUE(schema.AddElement("MedScrap", "Scrap", model).ok());

  // A valid refinement of bundleContent.
  ASSERT_TRUE(schema
                  .AddConnector({"meds", "bundleContent", "PatientBundle",
                                 "MedScrap", 0, 20},
                                model)
                  .ok());
  // Unknown model connector.
  EXPECT_TRUE(schema
                  .AddConnector({"x", "noSuch", "PatientBundle", "MedScrap",
                                 0, 1},
                                model)
                  .IsNotFound());
  // Domain element's construct must match the model connector's domain.
  EXPECT_TRUE(schema
                  .AddConnector({"bad", "bundleContent", "MedScrap",
                                 "MedScrap", 0, 1},
                                model)
                  .IsConformance());
  // Range mismatch: scrapName expects String.
  EXPECT_TRUE(schema
                  .AddConnector({"bad2", "scrapName", "MedScrap",
                                 "PatientBundle", 0, 1},
                                model)
                  .IsConformance());
  // Cardinality must narrow: padName is 1..1 in the model.
  ASSERT_TRUE(schema.AddElement("Pad", "SlimPad", model).ok());
  EXPECT_TRUE(schema
                  .AddConnector({"name", "padName", "Pad", "String", 0, 1},
                                model)
                  .IsConformance());
  // Same connector name on two domains is fine.
  ASSERT_TRUE(
      schema.AddConnector({"label", "scrapName", "MedScrap", "String", 1, 1},
                          model)
          .ok());
  ASSERT_TRUE(schema
                  .AddConnector({"label", "bundleName", "PatientBundle",
                                 "String", 1, 1},
                                model)
                  .ok());
}

TEST(SchemaDefTest, TriplesRoundTrip) {
  ModelDef model = BuildBundleScrapModel();
  trim::TripleStore store;
  ASSERT_TRUE(model.ToTriples(&store).ok());
  SchemaDef schema = *IdentitySchema(model, "slimpad");
  ASSERT_TRUE(schema.ToTriples(&store).ok());

  auto back = SchemaDef::FromTriples(store, "slimpad");
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->elements(), schema.elements());
  EXPECT_EQ(back->connectors().size(), schema.connectors().size());
  for (const SchemaConnectorDef& c : schema.connectors()) {
    bool found = false;
    for (const SchemaConnectorDef& l : back->connectors()) {
      if (l.name == c.name && l.domain == c.domain) {
        found = true;
        EXPECT_EQ(l.range, c.range);
        EXPECT_EQ(l.model_connector, c.model_connector);
        EXPECT_EQ(l.min_card, c.min_card);
        EXPECT_EQ(l.max_card, c.max_card);
      }
    }
    EXPECT_TRUE(found) << c.domain << "." << c.name;
  }
}

// ---------------------------------------------------------------------------
// InstanceGraph
// ---------------------------------------------------------------------------

TEST(InstanceGraphTest, CreateSetGet) {
  trim::TripleStore store;
  InstanceGraph graph(&store);
  std::string id = *graph.Create("schema:s/Bundle");
  EXPECT_TRUE(graph.Exists(id));
  EXPECT_EQ(*graph.TypeOf(id), "schema:s/Bundle");
  ASSERT_TRUE(graph.SetValue(id, "bundleName", "John").ok());
  EXPECT_EQ(*graph.GetValue(id, "bundleName"), "John");
  ASSERT_TRUE(graph.SetValue(id, "bundleName", "Jane").ok());
  EXPECT_EQ(*graph.GetValue(id, "bundleName"), "Jane");
  EXPECT_TRUE(graph.GetValue(id, "missing").status().IsNotFound());
  EXPECT_TRUE(graph.SetValue("inst:999", "x", "y").IsNotFound());
}

TEST(InstanceGraphTest, ConnectAndQuery) {
  trim::TripleStore store;
  InstanceGraph graph(&store);
  std::string b = *graph.Create("schema:s/Bundle");
  std::string s1 = *graph.Create("schema:s/Scrap");
  std::string s2 = *graph.Create("schema:s/Scrap");
  ASSERT_TRUE(graph.Connect(b, "bundleContent", s1).ok());
  ASSERT_TRUE(graph.Connect(b, "bundleContent", s2).ok());
  EXPECT_EQ(graph.GetConnected(b, "bundleContent"),
            (std::vector<std::string>{s1, s2}));
  EXPECT_TRUE(graph.Connect(b, "bundleContent", "inst:404").IsNotFound());
  ASSERT_TRUE(graph.Disconnect(b, "bundleContent", s1).ok());
  EXPECT_EQ(graph.GetConnected(b, "bundleContent").size(), 1u);
  EXPECT_EQ(graph.InstancesOf("schema:s/Scrap").size(), 2u);
  EXPECT_EQ(graph.AllInstances().size(), 3u);
}

TEST(InstanceGraphTest, DeleteRemovesIncidentTriples) {
  trim::TripleStore store;
  InstanceGraph graph(&store);
  std::string a = *graph.Create("T");
  std::string b = *graph.Create("T");
  ASSERT_TRUE(graph.SetValue(b, "name", "x").ok());
  ASSERT_TRUE(graph.Connect(a, "link", b).ok());
  EXPECT_GT(graph.Delete(b), 0u);
  EXPECT_FALSE(graph.Exists(b));
  // The inbound link from a is gone too.
  EXPECT_TRUE(graph.GetConnected(a, "link").empty());
}

TEST(InstanceGraphTest, CreateWithId) {
  trim::TripleStore store;
  InstanceGraph graph(&store);
  ASSERT_TRUE(graph.CreateWithId("inst:77", "T").ok());
  EXPECT_TRUE(graph.CreateWithId("inst:77", "T").IsAlreadyExists());
  // Generator skips past observed ids.
  std::string next = *graph.Create("T");
  EXPECT_EQ(next, "inst:78");
}

// ---------------------------------------------------------------------------
// Conformance
// ---------------------------------------------------------------------------

class ConformanceTest : public ::testing::Test {
 protected:
  ConformanceTest()
      : model_(BuildBundleScrapModel()),
        schema_(*IdentitySchema(model_, "slimpad")),
        graph_(&store_) {}

  // A minimal conforming bundle+scrap pair.
  std::pair<std::string, std::string> MakeConformingPair() {
    std::string b = *graph_.Create("schema:slimpad/Bundle");
    (void)graph_.SetValue(b, "bundleName", "B");
    (void)graph_.SetValue(b, "bundlePos", "0,0");
    (void)graph_.SetValue(b, "bundleWidth", "10");
    (void)graph_.SetValue(b, "bundleHeight", "10");
    std::string s = *graph_.Create("schema:slimpad/Scrap");
    (void)graph_.SetValue(s, "scrapName", "S");
    (void)graph_.SetValue(s, "scrapPos", "1,1");
    (void)graph_.Connect(b, "bundleContent", s);
    return {b, s};
  }

  ModelDef model_;
  SchemaDef schema_;
  trim::TripleStore store_;
  InstanceGraph graph_;
};

TEST_F(ConformanceTest, ConformingDataPasses) {
  MakeConformingPair();
  ConformanceReport report = CheckConformance(store_, schema_, model_);
  EXPECT_TRUE(report.conforms()) << report.ToString();
  EXPECT_EQ(report.instances_checked, 2u);
}

TEST_F(ConformanceTest, UnknownTypeFlagged) {
  (void)graph_.Create("schema:slimpad/Widget").ValueOrDie();
  ConformanceReport report = CheckConformance(store_, schema_, model_);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].kind, ViolationKind::kUnknownType);
}

TEST_F(ConformanceTest, UndeclaredPropertyFlagged) {
  auto [b, s] = MakeConformingPair();
  (void)graph_.SetValue(s, "color", "red");
  ConformanceReport report = CheckConformance(store_, schema_, model_);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].kind, ViolationKind::kUndeclaredProperty);
  EXPECT_EQ(report.violations[0].property, "color");
}

TEST_F(ConformanceTest, WrongObjectKindFlagged) {
  auto [b, s] = MakeConformingPair();
  // bundleName must be a literal; point it at a resource instead.
  (void)store_.SetOne(b, "bundleName", trim::Object::Resource(s));
  ConformanceReport report = CheckConformance(store_, schema_, model_);
  bool seen = false;
  for (const auto& v : report.violations) {
    if (v.kind == ViolationKind::kWrongObjectKind) seen = true;
  }
  EXPECT_TRUE(seen) << report.ToString();
}

TEST_F(ConformanceTest, LiteralWhereLinkExpectedFlagged) {
  auto [b, s] = MakeConformingPair();
  (void)store_.Add(
      trim::Triple{b, "nestedBundle", trim::Object::Literal("not a link")});
  ConformanceReport report = CheckConformance(store_, schema_, model_);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].kind, ViolationKind::kWrongObjectKind);
}

TEST_F(ConformanceTest, DanglingLinkFlagged) {
  auto [b, s] = MakeConformingPair();
  (void)store_.Add(
      trim::Triple{b, "nestedBundle", trim::Object::Resource("inst:404")});
  ConformanceReport report = CheckConformance(store_, schema_, model_);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].kind, ViolationKind::kDanglingLink);
}

TEST_F(ConformanceTest, WrongTargetTypeFlagged) {
  auto [b, s] = MakeConformingPair();
  // nestedBundle must target a Bundle, not a Scrap.
  (void)store_.Add(
      trim::Triple{b, "nestedBundle", trim::Object::Resource(s)});
  ConformanceReport report = CheckConformance(store_, schema_, model_);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].kind, ViolationKind::kWrongTargetType);
}

TEST_F(ConformanceTest, CardinalityViolationsFlagged) {
  std::string b = *graph_.Create("schema:slimpad/Bundle");
  // Missing all four required attributes -> 4 low-cardinality violations.
  ConformanceReport report = CheckConformance(store_, schema_, model_);
  size_t low = 0;
  for (const auto& v : report.violations) {
    if (v.kind == ViolationKind::kCardinalityLow) ++low;
  }
  EXPECT_EQ(low, 4u) << report.ToString();

  // Two names -> high violation on the 1..1 connector.
  (void)graph_.AddValue(b, "bundleName", "one");
  (void)graph_.AddValue(b, "bundleName", "two");
  (void)graph_.SetValue(b, "bundlePos", "0,0");
  (void)graph_.SetValue(b, "bundleWidth", "1");
  (void)graph_.SetValue(b, "bundleHeight", "1");
  report = CheckConformance(store_, schema_, model_);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].kind, ViolationKind::kCardinalityHigh);
}

// ---------------------------------------------------------------------------
// Schema-later: induce then check.
// ---------------------------------------------------------------------------

TEST(SchemaLaterTest, InduceFromInstances) {
  trim::TripleStore store;
  InstanceGraph graph(&store);
  // Information-first entry: free type names, no schema yet.
  std::string p1 = *graph.Create("Patient");
  std::string p2 = *graph.Create("Patient");
  std::string m1 = *graph.Create("Med");
  (void)graph.SetValue(p1, "name", "John");
  (void)graph.SetValue(p2, "name", "Mary");
  (void)graph.AddValue(p2, "allergy", "penicillin");
  (void)graph.AddValue(p2, "allergy", "latex");
  (void)graph.Connect(p1, "takes", m1);
  (void)graph.SetValue(m1, "drug", "heparin");

  auto schema = InduceSchema(store, "induced");
  ASSERT_TRUE(schema.ok()) << schema.status();
  EXPECT_EQ(schema->elements().size(), 2u);
  EXPECT_TRUE(schema->elements().count("Patient"));
  EXPECT_TRUE(schema->elements().count("Med"));

  // name: on every patient exactly once -> [1,1] attribute.
  const SchemaConnectorDef* name = nullptr;
  const SchemaConnectorDef* allergy = nullptr;
  const SchemaConnectorDef* takes = nullptr;
  for (const auto& c : schema->connectors()) {
    if (c.name == "name" && c.domain == "Patient") name = &c;
    if (c.name == "allergy") allergy = &c;
    if (c.name == "takes") takes = &c;
  }
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->min_card, 1);
  EXPECT_EQ(name->max_card, 1);
  EXPECT_EQ(name->range, "String");
  ASSERT_NE(allergy, nullptr);
  EXPECT_EQ(allergy->min_card, 0);  // p1 has none
  EXPECT_EQ(allergy->max_card, 2);
  ASSERT_NE(takes, nullptr);
  EXPECT_EQ(takes->range, "Med");
  EXPECT_EQ(takes->model_connector, "link");

  // The instances conform to the schema induced from them.
  ModelDef generic = BuildGenericModel();
  ConformanceReport report = CheckConformance(store, *schema, generic);
  EXPECT_TRUE(report.conforms()) << report.ToString();

  // New nonconforming data is caught by the induced schema.
  std::string p3 = *graph.Create("Patient");
  (void)graph.SetValue(p3, "name", "Bo");
  (void)graph.SetValue(p3, "surprise", "field");
  report = CheckConformance(store, *schema, generic);
  EXPECT_FALSE(report.conforms());
}

// ---------------------------------------------------------------------------
// Mapping
// ---------------------------------------------------------------------------

TEST(MappingTest, RenamesTypesAndProperties) {
  trim::TripleStore source;
  InstanceGraph graph(&source);
  std::string b = *graph.Create("schema:slimpad/Bundle");
  (void)graph.SetValue(b, "bundleName", "John");
  std::string s = *graph.Create("schema:slimpad/Scrap");
  (void)graph.SetValue(s, "scrapName", "Na 140");
  (void)graph.Connect(b, "bundleContent", s);

  Mapping mapping("pad-to-topicmap");
  ASSERT_TRUE(mapping.AddRule({"schema:slimpad/Bundle", "schema:tm/Topic",
                               {{"bundleName", "topicName"},
                                {"bundleContent", "occurrence"}},
                               false})
                  .ok());
  ASSERT_TRUE(mapping.AddRule({"schema:slimpad/Scrap", "schema:tm/Occurrence",
                               {{"scrapName", "label"}},
                               false})
                  .ok());

  trim::TripleStore target;
  auto stats = mapping.Apply(source, &target);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->instances_mapped, 2u);
  EXPECT_EQ(stats->instances_dropped, 0u);

  InstanceGraph out(&target);
  EXPECT_EQ(*out.TypeOf(b), "schema:tm/Topic");
  EXPECT_EQ(*out.GetValue(b, "topicName"), "John");
  EXPECT_EQ(out.GetConnected(b, "occurrence"),
            (std::vector<std::string>{s}));
  EXPECT_EQ(*out.GetValue(s, "label"), "Na 140");
  // Old property names are gone.
  EXPECT_TRUE(out.GetValue(b, "bundleName").status().IsNotFound());
}

TEST(MappingTest, UnmappedTypesCopiedOrDropped) {
  trim::TripleStore source;
  InstanceGraph graph(&source);
  std::string known = *graph.Create("A");
  std::string stranger = *graph.Create("B");
  (void)graph.SetValue(stranger, "x", "1");

  Mapping copy_mapping("m1");
  ASSERT_TRUE(copy_mapping.AddRule({"A", "A2", {}, false}).ok());
  trim::TripleStore target1;
  auto stats1 = copy_mapping.Apply(source, &target1);
  ASSERT_TRUE(stats1.ok());
  EXPECT_EQ(stats1->instances_mapped, 1u);
  EXPECT_EQ(stats1->instances_copied, 1u);
  InstanceGraph out1(&target1);
  EXPECT_EQ(*out1.TypeOf(stranger), "B");

  Mapping drop_mapping("m2");
  ASSERT_TRUE(drop_mapping.AddRule({"A", "A2", {}, false}).ok());
  drop_mapping.set_drop_unmapped_types(true);
  trim::TripleStore target2;
  auto stats2 = drop_mapping.Apply(source, &target2);
  ASSERT_TRUE(stats2.ok());
  EXPECT_EQ(stats2->instances_dropped, 1u);
  InstanceGraph out2(&target2);
  EXPECT_FALSE(out2.Exists(stranger));
}

TEST(MappingTest, DropUnmappedProperties) {
  trim::TripleStore source;
  InstanceGraph graph(&source);
  std::string a = *graph.Create("A");
  (void)graph.SetValue(a, "keep", "1");
  (void)graph.SetValue(a, "drop", "2");

  Mapping mapping("m");
  ASSERT_TRUE(mapping.AddRule({"A", "A", {{"keep", "kept"}}, true}).ok());
  trim::TripleStore target;
  auto stats = mapping.Apply(source, &target);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->properties_dropped, 1u);
  InstanceGraph out(&target);
  EXPECT_EQ(*out.GetValue(a, "kept"), "1");
  EXPECT_TRUE(out.GetValue(a, "drop").status().IsNotFound());
}

// The target is a set: a statement it already holds is skipped, not
// written twice or counted, so mappings accumulate without failing.
TEST(MappingTest, StatementsTheTargetHoldsAreSkippedAndNotCounted) {
  trim::TripleStore source;
  InstanceGraph graph(&source);
  std::string a = *graph.Create("A");
  (void)graph.SetValue(a, "first", "1");
  (void)graph.SetValue(a, "second", "1");

  Mapping mapping("m");
  ASSERT_TRUE(
      mapping.AddRule({"A", "A", {{"first", "v"}, {"second", "v"}}, false})
          .ok());
  trim::TripleStore target;
  auto stats = mapping.Apply(source, &target);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->triples_written, 2u);  // the type and one (a, v, "1")
  EXPECT_EQ(target.size(), 2u);
  auto again = mapping.Apply(source, &target);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->triples_written, 0u);
  EXPECT_EQ(target.size(), 2u);
}

TEST(MappingTest, RuleValidations) {
  Mapping mapping("m");
  ASSERT_TRUE(mapping.AddRule({"A", "B", {}, false}).ok());
  EXPECT_TRUE(mapping.AddRule({"A", "C", {}, false}).IsAlreadyExists());
  EXPECT_TRUE(mapping.AddRule({"", "C", {}, false}).IsInvalidArgument());
  trim::TripleStore source;
  EXPECT_TRUE(mapping.Apply(source, nullptr).status().IsInvalidArgument());
}

TEST(MappingTest, ModelToModelMappingOverConstructLayer) {
  // The same machinery maps *model-level* resources: rename every instance
  // typed by one model's construct into another model's construct space.
  trim::TripleStore source;
  InstanceGraph graph(&source);
  std::string e = *graph.Create("model:er/EntityType");
  (void)graph.SetValue(e, "name", "Patient");

  Mapping mapping("er-to-oo");
  ASSERT_TRUE(
      mapping.AddRule({"model:er/EntityType", "model:oo/Class", {}, false})
          .ok());
  trim::TripleStore target;
  ASSERT_TRUE(mapping.Apply(source, &target).ok());
  InstanceGraph out(&target);
  EXPECT_EQ(*out.TypeOf(e), "model:oo/Class");
  EXPECT_EQ(*out.GetValue(e, "name"), "Patient");
}

}  // namespace
}  // namespace slim::store
