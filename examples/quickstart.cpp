// Quickstart: the smallest complete superimposed application.
//
// 1. Stand up two base applications (a spreadsheet and an XML viewer) and
//    hand them documents.
// 2. Wire mark modules into a MarkManager.
// 3. Build a SLIMPad, select information in the base apps, and drop scraps
//    onto the pad (each scrap gets a mark — the "digital sticky-note with a
//    digital wire" of the paper).
// 4. Double-click a scrap: the mark resolves and the base application
//    navigates to the original element, highlighted.
// 5. Save the pad and reload it into a fresh session.

#include <cstdio>
#include <iostream>

#include "baseapp/spreadsheet_app.h"
#include "baseapp/xml_app.h"
#include "doc/xml/parser.h"
#include "mark/mark_manager.h"
#include "mark/modules.h"
#include "slimpad/slimpad_app.h"

using namespace slim;

#define CHECK_OK(expr)                                        \
  do {                                                        \
    ::slim::Status _st = (expr);                              \
    if (!_st.ok()) {                                          \
      std::cerr << "FATAL: " << _st << std::endl;             \
      return 1;                                               \
    }                                                         \
  } while (false)

int main() {
  // --- Base layer ------------------------------------------------------
  baseapp::SpreadsheetApp excel;
  auto workbook = std::make_unique<doc::Workbook>("meds.book");
  doc::Worksheet* sheet = workbook->AddSheet("Meds").ValueOrDie();
  sheet->SetValue({0, 0}, std::string("Drug"));
  sheet->SetValue({0, 1}, std::string("Dose"));
  sheet->SetValue({1, 0}, std::string("dopamine"));
  sheet->SetValue({1, 1}, std::string("5 mcg/kg/min"));
  sheet->SetValue({2, 0}, std::string("heparin"));
  sheet->SetValue({2, 1}, std::string("1200 u/hr"));
  CHECK_OK(excel.RegisterWorkbook(std::move(workbook)));

  baseapp::XmlApp xml;
  auto lab = doc::xml::ParseXml(
                 "<labReport patient=\"John Smith\">"
                 "<panel name=\"electrolytes\">"
                 "<result name=\"Na\" value=\"141\">Na 141</result>"
                 "<result name=\"K\" value=\"4.2\">K 4.2</result>"
                 "</panel></labReport>")
                 .ValueOrDie();
  CHECK_OK(xml.RegisterDocument("lab.xml", std::move(lab)));

  // --- Mark management --------------------------------------------------
  mark::MarkManager marks;
  mark::ExcelMarkModule excel_module(&excel);
  mark::XmlMarkModule xml_module(&xml);
  CHECK_OK(marks.RegisterModule(&excel_module));
  CHECK_OK(marks.RegisterModule(&xml_module));

  // --- The superimposed application -------------------------------------
  pad::SlimPadApp app(&marks);
  CHECK_OK(app.NewPad("Quickstart"));
  std::string root = app.RootBundle().ValueOrDie();

  // Select the dopamine row in the spreadsheet and drop it onto the pad.
  CHECK_OK(excel.Select("meds.book", "Meds", doc::RangeRef{{1, 0}, {1, 1}}));
  std::string med_scrap =
      app.AddScrapFromSelection(root, "excel", "dopamine", {10, 10})
          .ValueOrDie();

  // Select the sodium result in the lab report and drop it too.
  CHECK_OK(xml.SelectPath("lab.xml", "/labReport/panel/result[1]"));
  std::string lab_scrap =
      app.AddScrapFromSelection(root, "xml", "Na 141", {10, 40}).ValueOrDie();

  std::cout << "Pad '" << app.pad()->pad_name() << "' holds "
            << app.dmi().Scraps().size() << " scraps and "
            << marks.size() << " marks." << std::endl;

  // --- Resolve: double-click the med scrap ------------------------------
  auto open = app.OpenScrap(med_scrap);
  CHECK_OK(open.status());
  const auto& nav = *excel.last_navigation();
  std::cout << "Resolved med scrap -> " << nav.file_name << " [" << nav.address
            << "] highlighting \"" << nav.highlighted_content << "\""
            << std::endl;

  // Independent viewing: content comes to the pad instead.
  app.set_viewing_style(pad::ViewingStyle::kIndependent);
  auto in_place = app.OpenScrap(lab_scrap);
  CHECK_OK(in_place.status());
  std::cout << "In-place view of lab scrap: \"" << in_place->in_place_content
            << "\"" << std::endl;

  // --- Persistence -------------------------------------------------------
  const std::string path = "/tmp/quickstart.pad";
  CHECK_OK(app.SavePad(path));

  mark::MarkManager marks2;
  CHECK_OK(marks2.RegisterModule(&excel_module));
  CHECK_OK(marks2.RegisterModule(&xml_module));
  pad::SlimPadApp app2(&marks2);
  CHECK_OK(app2.LoadPad(path));
  std::cout << "Reloaded pad '" << app2.pad()->pad_name() << "' with "
            << app2.dmi().Scraps().size() << " scraps; re-resolving..."
            << std::endl;
  for (const pad::Scrap* scrap : app2.dmi().Scraps()) {
    auto result = app2.OpenScrap(scrap->id());
    CHECK_OK(result.status());
    std::cout << "  scrap '" << scrap->name() << "' -> mark "
              << result->mark_id << " OK" << std::endl;
  }
  std::remove(path.c_str());
  std::remove((path + ".marks").c_str());
  std::cout << "Quickstart complete." << std::endl;
  return 0;
}
