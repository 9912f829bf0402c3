#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "slim/conformance.h"
#include "trim/persistence.h"
#include "util/file.h"
#include "util/strings.h"
#include "workload/corpus.h"
#include "workload/session.h"

namespace slim::workload {
namespace {

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    IcuOptions options;
    options.patients = 3;
    options.seed = 2026;
    ASSERT_TRUE(session_.LoadIcuWorkload(GenerateIcuWorkload(options)).ok());
  }
  Session session_;
};

TEST_F(SessionTest, WorkloadRegistersAllDocuments) {
  EXPECT_TRUE(session_.excel().IsOpen("meds.book"));
  EXPECT_EQ(session_.xml().OpenDocuments().size(), 3u);
  EXPECT_EQ(session_.text().OpenDocuments().size(), 3u);
  EXPECT_TRUE(session_.pdf().IsOpen("guidelines/sepsis.pdf"));
  EXPECT_TRUE(session_.html().IsOpen("http://hospital/protocols/icu"));
}

TEST_F(SessionTest, BuildRoundsPadMirrorsFig4) {
  ASSERT_TRUE(session_.BuildRoundsPad().ok());
  pad::SlimPadApp& app = session_.app();
  ASSERT_NE(app.pad(), nullptr);
  EXPECT_EQ(app.pad()->pad_name(), "Rounds");

  // One patient bundle per patient, nested under the root.
  ASSERT_EQ(session_.patient_bundles().size(), 3u);
  std::string root = *app.RootBundle();
  const pad::Bundle* root_bundle = *app.dmi().GetBundle(root);
  EXPECT_EQ(root_bundle->nested_bundles().size(), 3u);

  // Each patient bundle: med scraps + an 'Electrolyte' nested bundle with
  // the gridlet and seven analyte scraps.
  for (size_t p = 0; p < 3; ++p) {
    const pad::Bundle* patient =
        *app.dmi().GetBundle(session_.patient_bundles()[p]);
    EXPECT_EQ(patient->name(), session_.icu().patients[p].name);
    EXPECT_EQ(static_cast<int>(patient->scraps().size()),
              session_.icu().patients[p].med_count);
    ASSERT_EQ(patient->nested_bundles().size(), 1u);
    const pad::Bundle* lytes =
        *app.dmi().GetBundle(patient->nested_bundles()[0]);
    EXPECT_EQ(lytes->name(), "Electrolyte");
    // Gridlet + 7 analytes.
    EXPECT_EQ(lytes->scraps().size(), 1u + ElectrolyteAnalytes().size());
  }

  // Pad data conforms to the Bundle-Scrap schema.
  store::ConformanceReport report = store::CheckConformance(
      app.store(), app.dmi().schema(), app.dmi().model());
  EXPECT_TRUE(report.conforms()) << report.ToString();
}

TEST_F(SessionTest, ClickScrapOpensMedicationListHighlighted) {
  ASSERT_TRUE(session_.BuildRoundsPad(1).ok());
  pad::SlimPadApp& app = session_.app();
  const pad::Bundle* patient =
      *app.dmi().GetBundle(session_.patient_bundles()[0]);
  ASSERT_FALSE(patient->scraps().empty());

  // "By clicking on the scrap, the mark is de-referenced and the original
  // information source, the medication list, is displayed with the
  // appropriate medication highlighted" (paper §3).
  session_.excel().ClearNavigation();
  auto result = app.OpenScrap(patient->scraps()[0]);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->base_app_navigated);
  ASSERT_TRUE(session_.excel().last_navigation().has_value());
  const auto& nav = *session_.excel().last_navigation();
  EXPECT_EQ(nav.file_name, "meds.book");
  // The highlighted row is the patient's first medication row.
  int row = session_.icu().patients[0].med_row_begin;
  EXPECT_EQ(nav.address,
            "Medications!B" + std::to_string(row + 1) + ":E" +
                std::to_string(row + 1));
  EXPECT_FALSE(nav.highlighted_content.empty());
}

TEST_F(SessionTest, DoubleClickElectrolyteOpensLabReport) {
  ASSERT_TRUE(session_.BuildRoundsPad(1).ok());
  pad::SlimPadApp& app = session_.app();
  const pad::Bundle* patient =
      *app.dmi().GetBundle(session_.patient_bundles()[0]);
  const pad::Bundle* lytes =
      *app.dmi().GetBundle(patient->nested_bundles()[0]);

  // First scrap is the gridlet (graphic, no mark).
  auto graphic = app.OpenScrap(lytes->scraps()[0]);
  EXPECT_TRUE(graphic.status().IsFailedPrecondition());

  // An analyte scrap resolves into the XML lab report.
  auto result = app.OpenScrap(lytes->scraps()[1]);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(session_.xml().last_navigation().has_value());
  EXPECT_EQ(session_.xml().last_navigation()->file_name,
            session_.icu().lab_file(0));
  EXPECT_NE(session_.xml().last_navigation()->address.find("/labReport"),
            std::string::npos);
}

TEST_F(SessionTest, ViewingStylesBehaveDifferently) {
  ASSERT_TRUE(session_.BuildRoundsPad(1).ok());
  pad::SlimPadApp& app = session_.app();
  const pad::Bundle* patient =
      *app.dmi().GetBundle(session_.patient_bundles()[0]);
  const std::string scrap = patient->scraps()[0];

  app.set_viewing_style(pad::ViewingStyle::kSimultaneous);
  auto sim = *app.OpenScrap(scrap);
  EXPECT_TRUE(sim.base_app_navigated);
  EXPECT_TRUE(sim.in_place_content.empty());

  app.set_viewing_style(pad::ViewingStyle::kEnhanced);
  auto enh = *app.OpenScrap(scrap);
  EXPECT_TRUE(enh.base_app_navigated);
  EXPECT_FALSE(enh.in_place_content.empty());

  app.set_viewing_style(pad::ViewingStyle::kIndependent);
  session_.excel().ClearNavigation();
  auto ind = *app.OpenScrap(scrap);
  EXPECT_FALSE(ind.base_app_navigated);
  EXPECT_FALSE(ind.in_place_content.empty());
  // Independent viewing really did not touch the base window.
  EXPECT_FALSE(session_.excel().last_navigation().has_value());
}

TEST_F(SessionTest, OpenAllScrapsResolvesEverything) {
  ASSERT_TRUE(session_.BuildRoundsPad().ok());
  auto opened = session_.OpenAllScraps();
  ASSERT_TRUE(opened.ok()) << opened.status();
  size_t expected = 0;
  for (const Patient& p : session_.icu().patients) {
    expected += static_cast<size_t>(p.med_count) +
                ElectrolyteAnalytes().size();
  }
  EXPECT_EQ(*opened, expected);
}

TEST_F(SessionTest, HandoffSaveLoadPreservesAwareness) {
  // §6: "supporting the transfer of 'current situation' awareness ... when
  // one doctor is taking over rounds for another."
  ASSERT_TRUE(session_.BuildRoundsPad().ok());
  std::string path = ::testing::TempDir() + "/handoff_pad.xml";
  ASSERT_TRUE(session_.app().SavePad(path).ok());

  // The second doctor's session: same base layer, fresh pad + marks.
  Session doctor2;
  IcuOptions options;
  options.patients = 3;
  options.seed = 2026;  // same documents
  ASSERT_TRUE(doctor2.LoadIcuWorkload(GenerateIcuWorkload(options)).ok());
  ASSERT_TRUE(doctor2.app().LoadPad(path).ok());

  EXPECT_EQ(doctor2.app().pad()->pad_name(), "Rounds");
  // Every scrap still opens against the live base layer.
  auto opened = doctor2.OpenAllScraps();
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_GT(*opened, 0u);
  std::remove(path.c_str());
  std::remove((path + ".marks").c_str());
}

// LoadPad reads and checks the pad file before it adopts the marks file,
// so a good marks file beside a truncated pad file changes nothing.
TEST_F(SessionTest, LoadPadWithTruncatedPadFileChangesNothing) {
  ASSERT_TRUE(session_.BuildRoundsPad().ok());
  std::string path = ::testing::TempDir() + "/truncated_pad.xml";
  ASSERT_TRUE(session_.app().SavePad(path).ok());
  Result<std::string> saved = ReadFile(path);
  ASSERT_TRUE(saved.ok());
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << saved->substr(0, saved->size() / 2);
  }

  Session doctor2;
  IcuOptions options;
  options.patients = 3;
  options.seed = 2026;
  ASSERT_TRUE(doctor2.LoadIcuWorkload(GenerateIcuWorkload(options)).ok());
  // A pad of its own and no marks, so the saved marks would all adopt.
  ASSERT_TRUE(doctor2.app().NewPad("Night shift").ok());
  const size_t marks_before = doctor2.marks().size();
  const std::string triples_before = trim::StoreToXml(doctor2.app().store());
  ASSERT_NE(marks_before, session_.marks().size());

  Status st = doctor2.app().LoadPad(path);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(doctor2.marks().size(), marks_before);
  EXPECT_EQ(trim::StoreToXml(doctor2.app().store()), triples_before);
  std::remove(path.c_str());
  std::remove((path + ".marks").c_str());
}

// A pad file with any one byte changed fails its checks before the marks
// are adopted: the marks and the triples stay as they were.
TEST_F(SessionTest, LoadPadWithCorruptedPadFileChangesNothing) {
  ASSERT_TRUE(session_.BuildRoundsPad().ok());
  std::string path = ::testing::TempDir() + "/corrupted.pad";
  ASSERT_TRUE(session_.app().SavePad(path).ok());
  Result<std::string> saved = ReadFile(path);
  ASSERT_TRUE(saved.ok());

  Session doctor2;
  IcuOptions options;
  options.patients = 3;
  options.seed = 2026;
  ASSERT_TRUE(doctor2.LoadIcuWorkload(GenerateIcuWorkload(options)).ok());
  ASSERT_TRUE(doctor2.app().NewPad("Night shift").ok());
  const size_t marks_before = doctor2.marks().size();
  const std::string triples_before = trim::StoreToXml(doctor2.app().store());
  ASSERT_NE(marks_before, session_.marks().size());

  // Positions in the magic, the version, the checksum, the string table
  // and the records.
  for (size_t pos : {size_t{0}, size_t{9}, size_t{15}, size_t{24},
                     saved->size() / 2, saved->size() - 1}) {
    std::string corrupted = *saved;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x20);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << corrupted;
    }
    EXPECT_FALSE(doctor2.app().LoadPad(path).ok()) << pos;
    EXPECT_EQ(doctor2.marks().size(), marks_before) << pos;
    EXPECT_EQ(trim::StoreToXml(doctor2.app().store()), triples_before) << pos;
  }
  std::remove(path.c_str());
  std::remove((path + ".marks").c_str());
}

// Pad files saved as XML, before pads were binary, still load.
TEST_F(SessionTest, LoadPadReadsXmlPadFiles) {
  ASSERT_TRUE(session_.BuildRoundsPad().ok());
  std::string path = ::testing::TempDir() + "/xml_pad.xml";
  ASSERT_TRUE(session_.app().SavePad(path).ok());
  const std::string xml = trim::StoreToXml(session_.app().store());
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << xml;
  }

  Session doctor2;
  IcuOptions options;
  options.patients = 3;
  options.seed = 2026;
  ASSERT_TRUE(doctor2.LoadIcuWorkload(GenerateIcuWorkload(options)).ok());
  ASSERT_TRUE(doctor2.app().LoadPad(path).ok());
  EXPECT_EQ(trim::StoreToXml(doctor2.app().store()), xml);
  EXPECT_EQ(doctor2.app().pad()->pad_name(), "Rounds");
  auto opened = doctor2.OpenAllScraps();
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_GT(*opened, 0u);
  std::remove(path.c_str());
  std::remove((path + ".marks").c_str());
}

// Every native object of `dmi`, field by field, in id order.
std::string DescribeObjects(const pad::SlimPadDmi& dmi) {
  std::string out;
  auto list = [&out](const std::vector<std::string>& ids) {
    out += " [";
    for (const std::string& id : ids) out += id + " ";
    out += "]";
  };
  for (const pad::SlimPad* p : dmi.Pads()) {
    out += p->id() + " pad '" + p->pad_name() + "' root " + p->root_bundle();
    out += "\n";
  }
  for (const pad::Bundle* b : dmi.Bundles()) {
    out += b->id() + " bundle '" + b->name() + "' " + b->pos().ToString() +
           " " + FormatNumber(b->width()) + "x" + FormatNumber(b->height()) +
           " in " + b->parent();
    list(b->scraps());
    list(b->nested_bundles());
    out += "\n";
  }
  for (const pad::Scrap* s : dmi.Scraps()) {
    out += s->id() + " scrap '" + s->name() + "' " + s->pos().ToString();
    for (const std::string& h : s->mark_handles()) {
      out += " " + h + "=" + (*dmi.GetMarkHandle(h))->mark_id();
    }
    list(s->annotations());
    list(s->linked_scraps());
    out += "\n";
  }
  return out + std::to_string(dmi.mark_handle_count()) + " handles\n";
}

// A second doctor's session over the same base layer.
void StartDoctor2(Session* doctor2) {
  IcuOptions options;
  options.patients = 3;
  options.seed = 2026;
  ASSERT_TRUE(doctor2->LoadIcuWorkload(GenerateIcuWorkload(options)).ok());
}

// Instance ids minted after LoadPad continue past the loaded pad's: a new
// scrap never takes the id (and so the type) of a loaded instance.
TEST_F(SessionTest, GraphicScrapAfterLoadPadGetsAFreshId) {
  ASSERT_TRUE(session_.BuildRoundsPad(2).ok());
  std::string path = ::testing::TempDir() + "/fresh_ids.pad";
  ASSERT_TRUE(session_.app().SavePad(path).ok());
  Session doctor2;
  StartDoctor2(&doctor2);
  ASSERT_TRUE(doctor2.app().LoadPad(path).ok());
  auto id = doctor2.app().AddGraphicScrap(*doctor2.app().RootBundle(),
                                          "Night notes", {1, 1});
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_TRUE(session_.app()
                  .store()
                  .Select(trim::TriplePattern::BySubject(*id))
                  .empty())
      << *id;
  const trim::TriplePattern type =
      trim::TriplePattern::BySubjectProperty(*id, "slim:type");
  EXPECT_EQ(doctor2.app().store().Select(type).size(), 1u);
  std::remove(path.c_str());
  std::remove((path + ".marks").c_str());
}

// Annotating a scrap twice keeps one annotation, so the saved pad (a set of
// statements) loads back.
TEST_F(SessionTest, AnnotatingTwiceStillSavesAPadThatLoads) {
  ASSERT_TRUE(session_.BuildRoundsPad().ok());
  pad::SlimPadDmi& dmi = session_.app().dmi();
  const std::string scrap =
      (*dmi.GetBundle(session_.patient_bundles()[0]))->scraps().front();
  ASSERT_TRUE(dmi.AddScrapAnnotation(scrap, "recheck K").ok());
  EXPECT_TRUE(dmi.AddScrapAnnotation(scrap, "recheck K").IsAlreadyExists());
  EXPECT_EQ((*dmi.GetScrap(scrap))->annotations(),
            (std::vector<std::string>{"recheck K"}));
  std::string path = ::testing::TempDir() + "/annotated.pad";
  ASSERT_TRUE(session_.app().SavePad(path).ok());
  Session doctor2;
  StartDoctor2(&doctor2);
  Status st = doctor2.app().LoadPad(path);
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_EQ(DescribeObjects(doctor2.app().dmi()), DescribeObjects(dmi));
  std::remove(path.c_str());
  std::remove((path + ".marks").c_str());
}

// SavePad replaces both files or neither: when the marks file cannot be
// written, the pad file on disk stays byte for byte the old one.
TEST_F(SessionTest, SavePadThatCannotWriteItsMarksKeepsThePadFile) {
  ASSERT_TRUE(session_.BuildRoundsPad().ok());
  std::string path = ::testing::TempDir() + "/marks_blocked.pad";
  ASSERT_TRUE(session_.app().SavePad(path).ok());
  const std::string pad_before = *ReadFile(path);
  const std::string marks_before = *ReadFile(path + ".marks");
  ASSERT_TRUE(session_.app()
                  .AddGraphicScrap(*session_.app().RootBundle(), "later",
                                   {1, 1})
                  .ok());
  const std::string blocker = path + ".marks.tmp";
  ASSERT_EQ(::mkdir(blocker.c_str(), 0755), 0);
  EXPECT_FALSE(session_.app().SavePad(path).ok());
  EXPECT_EQ(*ReadFile(path), pad_before);
  EXPECT_EQ(*ReadFile(path + ".marks"), marks_before);
  EXPECT_NE(::access((path + ".tmp").c_str(), F_OK), 0);  // no temp left
  ASSERT_EQ(::rmdir(blocker.c_str()), 0);
  ASSERT_TRUE(session_.app().SavePad(path).ok());
  EXPECT_NE(*ReadFile(path), pad_before);
  std::remove(path.c_str());
  std::remove((path + ".marks").c_str());
}

// A pad file whose triples pass TRIM's checks but cannot be built into
// SLIMPad objects fails with BuildObjects' error and changes nothing: not
// the triples, the marks, the objects, the open pad or a query's answers.
TEST_F(SessionTest, LoadPadWithUnbuildableObjectsChangesNothing) {
  ASSERT_TRUE(session_.BuildRoundsPad().ok());
  std::string path = ::testing::TempDir() + "/unbuildable.pad";
  ASSERT_TRUE(session_.app().SavePad(path).ok());
  const std::string good = trim::StoreToXml(session_.app().store());
  pad::SlimPadDmi& dmi = session_.app().dmi();
  const std::string bundle = session_.patient_bundles()[0];
  const std::string scrap = (*dmi.GetBundle(bundle))->scraps().front();
  const std::string handle = (*dmi.GetScrap(scrap))->mark_handles().front();

  Session doctor2;
  StartDoctor2(&doctor2);
  pad::SlimPadApp& app2 = doctor2.app();
  ASSERT_TRUE(app2.NewPad("Night shift").ok());
  ASSERT_TRUE(app2.AddGraphicScrap(*app2.RootBundle(), "Handoff", {5, 5}).ok());
  const std::string triples_before = trim::StoreToXml(app2.store());
  const std::vector<std::string> marks_before = doctor2.marks().MarkIds();
  const std::string objects_before = DescribeObjects(app2.dmi());
  const pad::SlimPad* pad_before = app2.pad();
  const std::string root_before = *app2.RootBundle();
  const std::vector<store::Binding> answers_before =
      *app2.QueryPad("?s scrapName ?n");
  ASSERT_NE(marks_before.size(), session_.marks().size());

  auto no_literal = [](const std::string& id, const std::string& property) {
    return "instance '" + id + "' has no literal value for '" + property + "'";
  };
  struct Case {
    std::string subject;
    std::string property;
    std::optional<trim::Object> replacement;  // none: the value is removed
    bool parse_error;
    std::string message;
  };
  const std::vector<Case> cases = {
      {bundle, "bundleName", {}, false, no_literal(bundle, "bundleName")},
      {bundle, "bundlePos", {}, false, no_literal(bundle, "bundlePos")},
      {bundle, "bundleWidth", {}, false, no_literal(bundle, "bundleWidth")},
      {bundle, "bundleHeight", {}, false, no_literal(bundle, "bundleHeight")},
      {scrap, "scrapName", {}, false, no_literal(scrap, "scrapName")},
      {scrap, "scrapPos", {}, false, no_literal(scrap, "scrapPos")},
      {handle, "markId", {}, false, no_literal(handle, "markId")},
      {scrap, "scrapName", trim::Object::Resource(bundle), false,
       no_literal(scrap, "scrapName")},
      {handle, "markId", trim::Object::Resource("mark1"), false,
       no_literal(handle, "markId")},
      {bundle, "bundlePos", trim::Object::Literal("12;34"), true,
       "malformed coordinate '12;34'"},
      {scrap, "scrapPos", trim::Object::Literal("1,2,3"), true,
       "malformed coordinate '1,2,3'"},
      {bundle, "bundleHeight", trim::Object::Literal("tall"), true,
       "bundle '" + bundle + "': bad geometry"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.subject + " " + c.property);
    trim::TripleStore edited;
    ASSERT_TRUE(trim::StoreFromXml(good, &edited).ok());
    ASSERT_EQ(edited.RemoveMatching(trim::TriplePattern::BySubjectProperty(
                  c.subject, c.property)),
              1u);
    if (c.replacement) {
      ASSERT_TRUE(
          edited.Add(trim::Triple{c.subject, c.property, *c.replacement}).ok());
    }
    ASSERT_TRUE(trim::SaveStore(edited, path).ok());

    Status st = app2.LoadPad(path);
    EXPECT_EQ(st.IsParseError(), c.parse_error) << st;
    EXPECT_EQ(st.IsNotFound(), !c.parse_error) << st;
    EXPECT_EQ(st.message(), c.message);
    EXPECT_EQ(trim::StoreToXml(app2.store()), triples_before);
    EXPECT_EQ(doctor2.marks().MarkIds(), marks_before);
    EXPECT_EQ(DescribeObjects(app2.dmi()), objects_before);
    EXPECT_EQ(app2.pad(), pad_before);
    EXPECT_EQ(*app2.RootBundle(), root_before);
    EXPECT_EQ(*app2.QueryPad("?s scrapName ?n"), answers_before);
  }

  // The same files with the pad file intact load.
  ASSERT_TRUE(session_.app().SavePad(path).ok());
  ASSERT_TRUE(app2.LoadPad(path).ok());
  EXPECT_EQ(DescribeObjects(app2.dmi()), DescribeObjects(dmi));
  EXPECT_EQ(doctor2.marks().size(), session_.marks().size());
  std::remove(path.c_str());
  std::remove((path + ".marks").c_str());
}

TEST_F(SessionTest, TemplateStampsWorksheetRow) {
  ASSERT_TRUE(session_.app().NewPad("Rounds").ok());
  std::string root = *session_.app().RootBundle();
  auto bundle_id = session_.app().InstantiateTemplate(
      root, pad::ResidentWorksheetTemplate(), {10, 10});
  ASSERT_TRUE(bundle_id.ok());
  const pad::Bundle* b = *session_.app().dmi().GetBundle(*bundle_id);
  EXPECT_EQ(b->scraps().size(), 4u);  // Patient / Problems / Labs / To do
  EXPECT_EQ(b->name(), "Resident worksheet row");
}

TEST(CorpusTest, DeterministicAndZipfish) {
  CorpusOptions options;
  options.seed = 3;
  Corpus a = GenerateCorpus(options);
  Corpus b = GenerateCorpus(options);
  ASSERT_EQ(a.documents.size(), b.documents.size());
  for (size_t i = 0; i < a.documents.size(); ++i) {
    EXPECT_EQ(a.documents[i]->Serialize(), b.documents[i]->Serialize());
  }
  // The most frequent word appears far more often than a tail word.
  const std::string& head = a.vocabulary[0];
  const std::string& tail = a.vocabulary.back();
  size_t head_count = 0, tail_count = 0;
  for (const auto& d : a.documents) {
    head_count += d->FindAll(head).size();
    tail_count += d->FindAll(tail).size();
  }
  EXPECT_GT(head_count, tail_count);
}

// Every patient's MRN is distinct, so no two share a lab-report file. Seed
// 14 draws one MRN twice at 256 patients; the repeat steps to the next
// unused number and every other MRN is the one drawn.
TEST(IcuWorkloadTest, MrnsAreDistinct) {
  IcuOptions options;
  options.patients = 256;
  options.seed = 14;
  IcuWorkload census = GenerateIcuWorkload(options);
  std::set<std::string> mrns;
  for (const Patient& p : census.patients) mrns.insert(p.mrn);
  EXPECT_EQ(mrns.size(), 256u);
  EXPECT_EQ(census.patients[0].mrn, "MRN586666");
  EXPECT_EQ(census.patients[254].mrn, "MRN272093");

  // A census without a repeat is unchanged by the check.
  options.seed = 1;
  census = GenerateIcuWorkload(options);
  EXPECT_EQ(census.patients[0].mrn, "MRN890590");
  EXPECT_EQ(census.patients[1].mrn, "MRN636950");
  EXPECT_EQ(census.patients[2].mrn, "MRN863816");
  EXPECT_EQ(census.patients[255].mrn, "MRN295093");
}

TEST(IcuWorkloadTest, DeterministicAndConsistent) {
  IcuOptions options;
  options.patients = 5;
  options.seed = 11;
  IcuWorkload a = GenerateIcuWorkload(options);
  IcuWorkload b = GenerateIcuWorkload(options);
  ASSERT_EQ(a.patients.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(a.patients[i].name, b.patients[i].name);
    EXPECT_EQ(a.patients[i].med_count, b.patients[i].med_count);
  }
  EXPECT_EQ(a.medication_workbook->Serialize(),
            b.medication_workbook->Serialize());

  // Medication rows really belong to their patients.
  doc::Worksheet* meds = *a.medication_workbook->GetSheet("Medications");
  for (const Patient& p : a.patients) {
    for (int m = 0; m < p.med_count; ++m) {
      const doc::Cell* cell =
          meds->GetCell({p.med_row_begin + m, 0});
      ASSERT_NE(cell, nullptr);
      EXPECT_EQ(std::get<std::string>(cell->value), p.name);
    }
  }
  // The TOTAL ORDERS formula counts every med row.
  int total_rows = 0;
  for (const Patient& p : a.patients) total_rows += p.med_count;
  doc::CellValue total = a.medication_workbook->Evaluate(
      "Medications", {1 + total_rows, 1});
  EXPECT_EQ(total, doc::CellValue(static_cast<double>(total_rows)));

  // Lab reports have the advertised panels.
  ASSERT_EQ(a.lab_reports.size(), 5u);
  for (const auto& report : a.lab_reports) {
    EXPECT_EQ(report->root()->ChildElements("panel").size(), 3u);
  }
}

}  // namespace
}  // namespace slim::workload
