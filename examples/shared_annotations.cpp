// Shared annotations: the enhanced-base-layer viewing style (paper §4.1
// and the Third Voice / ComMentor related work of §5).
//
// Several clinicians annotate the same hospital protocol web pages. Each
// annotation is a scrap whose mark addresses the HTML element it comments
// on. Because marks live in the superimposed layer, the pages themselves
// are untouched; anyone loading the shared pad sees everyone's annotations
// and can ask, ComMentor-style, for "all annotations on this page" by
// walking the superimposed layer.

#include <cstdio>
#include <iostream>

#include "baseapp/html_app.h"
#include "mark/mark_manager.h"
#include "mark/modules.h"
#include "slimpad/slimpad_app.h"

using namespace slim;

#define CHECK_OK(expr)                                \
  do {                                                \
    ::slim::Status _st = (expr);                      \
    if (!_st.ok()) {                                  \
      std::cerr << "FATAL: " << _st << std::endl;     \
      return 1;                                       \
    }                                                 \
  } while (false)

namespace {

const char* kSepsisPage = R"(
<html><body>
<h1 id="title">Sepsis bundle</h1>
<p id="abx">Administer broad-spectrum antibiotics within one hour.</p>
<p id="fluids">Give 30 mL/kg crystalloid for hypotension.</p>
<p id="pressors">Apply vasopressors if MAP &lt; 65 after fluids.</p>
</body></html>)";

const char* kLinePage = R"(
<html><body>
<h1 id="title">Central line checklist</h1>
<ul>
<li id="hands">Hand hygiene</li>
<li id="barrier">Full barrier precautions</li>
<li id="chg">Chlorhexidine skin prep</li>
</ul>
</body></html>)";

struct Annotation {
  const char* author;
  const char* url;
  const char* element_id;
  const char* note;
};

const Annotation kAnnotations[] = {
    {"dr.gorman", "http://hospital/sepsis", "abx",
     "our pharmacy turnaround is 40 min - order early"},
    {"dr.ash", "http://hospital/sepsis", "fluids",
     "careful in CHF patients"},
    {"rn.lavelle", "http://hospital/sepsis", "pressors",
     "norepi is first line on our unit"},
    {"dr.gorman", "http://hospital/lines", "chg",
     "kits restocked on Tuesdays"},
    {"rn.lavelle", "http://hospital/lines", "barrier",
     "gowns in cart drawer 2"},
};

}  // namespace

int main() {
  baseapp::HtmlApp browser;
  CHECK_OK(browser.RegisterPage("http://hospital/sepsis", kSepsisPage));
  CHECK_OK(browser.RegisterPage("http://hospital/lines", kLinePage));

  mark::MarkManager marks;
  mark::HtmlMarkModule html_module(&browser);
  CHECK_OK(marks.RegisterModule(&html_module));

  pad::SlimPadApp app(&marks);
  app.set_viewing_style(pad::ViewingStyle::kEnhanced);
  CHECK_OK(app.NewPad("Shared annotations"));
  std::string root = app.RootBundle().ValueOrDie();

  // One bundle per author (the shared pad groups by who said it).
  std::map<std::string, std::string> author_bundles;
  double y = 10;
  double x = 10;
  for (const Annotation& a : kAnnotations) {
    if (!author_bundles.count(a.author)) {
      author_bundles[a.author] =
          app.CreateBundle(root, a.author, {10, y}, 700, 60).ValueOrDie();
      y += 70;
    }
    // The author selects the paragraph in the (enhanced) browser...
    doc::xml::Element* elem =
        doc::html::FindById(browser.GetPage(a.url).ValueOrDie(),
                            a.element_id);
    CHECK_OK(browser.SelectElement(a.url, elem));
    // ...and attaches a note: a scrap marked to the element, with the note
    // text as a §6 scrap annotation.
    std::string scrap = app.AddScrapFromSelection(author_bundles[a.author],
                                                  "html", a.element_id,
                                                  {x, 20})
                            .ValueOrDie();
    CHECK_OK(app.dmi().AddScrapAnnotation(scrap, a.note));
    x += 20;
  }

  std::cout << "Shared pad holds " << app.dmi().Scraps().size()
            << " annotations from " << author_bundles.size() << " authors."
            << std::endl;

  // ComMentor-style query: all annotations on the sepsis page, regardless
  // of author — walk the superimposed layer and filter by the mark's URL.
  std::cout << "\nAnnotations on http://hospital/sepsis:" << std::endl;
  for (const pad::Scrap* scrap : app.dmi().Scraps()) {
    if (scrap->mark_handles().empty()) continue;
    const pad::MarkHandle* handle =
        app.dmi().GetMarkHandle(scrap->mark_handles()[0]).ValueOrDie();
    const mark::Mark* m = marks.GetMark(handle->mark_id()).ValueOrDie();
    if (m->file_name() != "http://hospital/sepsis") continue;
    std::cout << "  [" << m->address() << "] \"" << scrap->annotations()[0]
              << "\" (on: \"" << m->excerpt().substr(0, 40) << "...\")"
              << std::endl;
  }

  // Enhanced viewing: opening an annotation navigates the browser AND
  // surfaces the element content beside the note.
  const pad::Scrap* first = app.dmi().Scraps().front();
  auto open = app.OpenScrap(first->id());
  CHECK_OK(open.status());
  std::cout << "\nOpened annotation on '" << first->name() << "': browser at ["
            << browser.last_navigation()->address << "], in-pane content \""
            << open->in_place_content << "\"" << std::endl;

  // Share it: save, then a colleague loads the same pad.
  const std::string path = "/tmp/shared_annotations.pad";
  CHECK_OK(app.SavePad(path));
  mark::MarkManager marks2;
  CHECK_OK(marks2.RegisterModule(&html_module));
  pad::SlimPadApp colleague(&marks2);
  CHECK_OK(colleague.LoadPad(path));
  size_t reopened = 0;
  for (const pad::Scrap* scrap : colleague.dmi().Scraps()) {
    if (scrap->mark_handles().empty()) continue;
    CHECK_OK(colleague.OpenScrap(scrap->id()).status());
    ++reopened;
  }
  std::cout << "\nColleague reloaded the shared pad and resolved " << reopened
            << " annotations." << std::endl;
  std::remove(path.c_str());
  std::remove((path + ".marks").c_str());
  std::cout << "shared_annotations complete." << std::endl;
  return 0;
}
