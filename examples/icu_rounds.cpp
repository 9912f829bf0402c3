// ICU rounds: a full re-enactment of the paper's Figures 2 and 4.
//
// A synthetic intensive-care census is generated (medication list as a
// spreadsheet, lab reports as XML, progress notes as text, a guideline PDF
// and a protocol web page). A resident then builds the 'Rounds' pad — one
// bundle per patient holding medication scraps (Excel marks) and an
// 'Electrolyte' bundle (XML marks + the gridlet) — annotates a worrying
// value, links related scraps, and finally hands the pad off to the
// covering physician, who reloads it and re-establishes context by
// resolving scraps (§6's "transfer of current-situation awareness").

#include <cstdio>
#include <iostream>

#include "workload/session.h"

using namespace slim;
using workload::ElectrolyteAnalytes;

#define CHECK_OK(expr)                                \
  do {                                                \
    ::slim::Status _st = (expr);                      \
    if (!_st.ok()) {                                  \
      std::cerr << "FATAL: " << _st << std::endl;     \
      return 1;                                       \
    }                                                 \
  } while (false)

int main() {
  workload::IcuOptions options;
  options.patients = 4;
  options.seed = 20010402;  // ICDE 2001, April 2-6
  workload::Session session;
  CHECK_OK(session.LoadIcuWorkload(workload::GenerateIcuWorkload(options)));

  std::cout << "=== ICU census ===" << std::endl;
  for (const auto& p : session.icu().patients) {
    std::cout << "  " << p.name << " (" << p.mrn << "): " << p.med_count
              << " meds, problems:";
    for (const auto& prob : p.problems) std::cout << " [" << prob << "]";
    std::cout << std::endl;
  }

  CHECK_OK(session.BuildRoundsPad());
  pad::SlimPadApp& app = session.app();
  std::cout << "\n=== Pad '" << app.pad()->pad_name() << "' ===" << std::endl;
  std::cout << "bundles: " << app.dmi().Bundles().size()
            << ", scraps: " << app.dmi().Scraps().size()
            << ", marks: " << session.marks().size() << std::endl;

  // --- The Fig. 4 interaction -------------------------------------------
  const pad::Bundle* first_patient =
      app.dmi().GetBundle(session.patient_bundles()[0]).ValueOrDie();
  std::cout << "\nClicking med scraps for " << first_patient->name() << ":"
            << std::endl;
  for (const std::string& scrap_id : first_patient->scraps()) {
    const pad::Scrap* scrap = app.dmi().GetScrap(scrap_id).ValueOrDie();
    CHECK_OK(app.OpenScrap(scrap_id).status());
    const auto& nav = *session.excel().last_navigation();
    std::cout << "  '" << scrap->name() << "' -> " << nav.file_name << " ["
              << nav.address << "]" << std::endl;
  }

  const pad::Bundle* lytes =
      app.dmi().GetBundle(first_patient->nested_bundles()[0]).ValueOrDie();
  std::cout << "\nDouble-clicking scraps in the '" << lytes->name()
            << "' bundle:" << std::endl;
  for (const std::string& scrap_id : lytes->scraps()) {
    const pad::Scrap* scrap = app.dmi().GetScrap(scrap_id).ValueOrDie();
    if (scrap->mark_handles().empty()) {
      std::cout << "  '" << scrap->name() << "' (graphic gridlet, no mark)"
                << std::endl;
      continue;
    }
    CHECK_OK(app.OpenScrap(scrap_id).status());
    const auto& nav = *session.xml().last_navigation();
    std::cout << "  '" << scrap->name() << "' -> " << nav.file_name << " ["
              << nav.address << "] \"" << nav.highlighted_content << "\""
              << std::endl;
  }

  // --- §6 extensions in action -------------------------------------------
  // Annotate the potassium scrap and link it to the first med scrap.
  std::string k_scrap;
  for (const std::string& scrap_id : lytes->scraps()) {
    const pad::Scrap* scrap = app.dmi().GetScrap(scrap_id).ValueOrDie();
    if (scrap->name().rfind("K ", 0) == 0) k_scrap = scrap_id;
  }
  if (!k_scrap.empty() && !first_patient->scraps().empty()) {
    CHECK_OK(app.dmi().AddScrapAnnotation(k_scrap, "recheck after KCl"));
    CHECK_OK(app.dmi().LinkScraps(k_scrap, first_patient->scraps()[0]));
    const pad::Scrap* k = app.dmi().GetScrap(k_scrap).ValueOrDie();
    std::cout << "\nAnnotated '" << k->name() << "': " << k->annotations()[0]
              << " (linked to 1 med scrap)" << std::endl;
  }

  // --- Auditing marks against the living base layer -----------------------
  // Overnight, a dose is corrected in the medication list; the audit pass
  // (§3's staleness concern) flags the drifted scrap.
  doc::Workbook* meds_book =
      session.excel().GetWorkbook("meds.book").ValueOrDie();
  doc::Worksheet* meds_sheet =
      meds_book->GetSheet("Medications").ValueOrDie();
  int drift_row = session.icu().patients[0].med_row_begin;
  meds_sheet->SetValue({drift_row, 2}, std::string("HELD"));
  mark::ValidationReport audit = session.app().AuditMarks();
  std::cout << "\nMark audit after an overnight dose change: "
            << audit.valid << " valid, " << audit.changed << " changed, "
            << audit.dangling << " dangling." << std::endl;
  for (const mark::MarkAudit& a : audit.audits) {
    if (a.health != mark::MarkHealth::kValid) {
      std::cout << "  drifted " << a.mark_id << ": " << a.detail << std::endl;
    }
  }

  // --- Querying the pad -----------------------------------------------------
  auto gridlets = session.app().QueryPad(
      "?b bundleContent ?s . ?s scrapName \"gridlet\" . ?b bundleName ?n");
  CHECK_OK(gridlets.status());
  std::cout << "\nDeclarative query: " << gridlets->size()
            << " electrolyte gridlets found on the pad." << std::endl;

  // --- Handoff -------------------------------------------------------------
  const std::string path = "/tmp/icu_rounds.pad";
  CHECK_OK(app.SavePad(path));
  std::cout << "\nSaved pad for handoff; covering physician reloading..."
            << std::endl;

  workload::Session covering;
  CHECK_OK(covering.LoadIcuWorkload(workload::GenerateIcuWorkload(options)));
  CHECK_OK(covering.app().LoadPad(path));
  auto reopened = covering.OpenAllScraps();
  CHECK_OK(reopened.status());
  std::cout << "Covering physician re-established context on " << *reopened
            << " scraps across " << covering.app().dmi().Bundles().size()
            << " bundles." << std::endl;

  std::remove(path.c_str());
  std::remove((path + ".marks").c_str());
  std::cout << "\nicu_rounds complete." << std::endl;
  return 0;
}
