#ifndef PERFBENCH_ENV_H_
#define PERFBENCH_ENV_H_

/// \file env.h
/// \brief The clinical deployment the benchmark drives: a seeded census,
/// the six base applications holding its documents, and pads built on them
/// through live selections. Every call into a SLIM layer goes through
/// perfbench::Call, so a traced run records it as a span; a gesture of
/// SlimPadApp is issued, when traced, as the public calls it is made of.

#include <array>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baseapp/html_app.h"
#include "baseapp/pdf_app.h"
#include "baseapp/slide_app.h"
#include "baseapp/spreadsheet_app.h"
#include "baseapp/text_app.h"
#include "baseapp/xml_app.h"
#include "doc/slides/slide_deck.h"
#include "mark/mark_manager.h"
#include "mark/modules.h"
#include "mark/validator.h"
#include "slimpad/slimpad_app.h"
#include "tracer.h"
#include "util/rng.h"
#include "workload/icu.h"

namespace perfbench {

using slim::Result;
using slim::Status;
namespace pad = slim::pad;

/// Reports a failed op or answer check on standard error (the first 20).
inline void NoteFailure(const std::string& what) {
  static std::atomic<int> printed{0};
  if (printed.fetch_add(1) < 20) std::fprintf(stderr, "failure: %s\n", what.c_str());
}

/// Censuses whose generated medical record numbers collided, and were made
/// unique before registration (see MakeCensus).
inline std::atomic<uint64_t> g_mrn_repairs{0};

/// \brief A generated ICU census plus a teaching slide deck (the sixth
/// base-app type, which the ICU generator does not produce).
struct Census {
  slim::workload::IcuWorkload icu;
  std::unique_ptr<slim::doc::slides::SlideDeck> deck;
  static constexpr const char* kDeckFile = "teaching/rounds.deck";
};

inline Census MakeCensus(int patients, uint64_t seed) {
  Census c;
  slim::workload::IcuOptions options;
  options.patients = patients;
  options.seed = seed;
  c.icu = slim::workload::GenerateIcuWorkload(options);
  // GenerateIcuWorkload draws MRNs with replacement, so two patients can
  // share one; their lab reports and notes would then register under the
  // same file name and fail. The repeat gets a suffix, and is counted.
  bool repaired = false;
  for (size_t p = 0; p < c.icu.patients.size(); ++p) {
    for (size_t q = 0; q < p; ++q) {
      if (c.icu.patients[q].mrn == c.icu.patients[p].mrn) {
        c.icu.patients[p].mrn += "-" + std::to_string(p);
        repaired = true;
        break;
      }
    }
  }
  if (repaired) g_mrn_repairs.fetch_add(1);
  c.deck = std::make_unique<slim::doc::slides::SlideDeck>(Census::kDeckFile);
  slim::Rng rng(seed ^ 0x5EEDDECCULL);
  static const char* const kTopics[] = {"Hypokalemia", "Sepsis bundle",
                                        "Fluid balance", "Renal dosing"};
  for (const char* topic : kTopics) {
    int32_t idx = c.deck->AddSlide(topic);
    slim::doc::slides::Slide* slide = c.deck->GetSlide(idx).ValueOrDie();
    slim::doc::slides::Shape shape;
    shape.id = "shape1";
    shape.width = 400;
    shape.height = 80;
    shape.text = std::string(topic) + ": review " +
                 std::to_string(rng.Range(2, 9)) + " points with the team";
    (void)slide->AddShape(shape);
  }
  return c;
}

/// \brief The base layer: six applications holding one census's documents,
/// plus their mark modules (context and in-place resolvers).
class BaseLayer {
 public:
  BaseLayer()
      : excel_m_(&excel), xml_m_(&xml), text_m_(&text), slide_m_(&slides),
        pdf_m_(&pdf), html_m_(&html) {
    xml.set_robust_addressing(true);
    for (slim::mark::MarkModule* m : Modules()) {
      inplace_.push_back(std::make_unique<slim::mark::InPlaceModule>(m));
    }
  }
  BaseLayer(const BaseLayer&) = delete;
  BaseLayer& operator=(const BaseLayer&) = delete;

  /// Registers the census's documents with the applications.
  Status Open(Census census) {
    census_ = std::move(census);
    slim::workload::IcuWorkload& icu = census_.icu;
    SLIM_RETURN_NOT_OK(
        excel.RegisterWorkbook(std::move(icu.medication_workbook)));
    for (size_t p = 0; p < icu.patients.size(); ++p) {
      SLIM_RETURN_NOT_OK(
          xml.RegisterDocument(icu.lab_file(p), std::move(icu.lab_reports[p])));
      SLIM_RETURN_NOT_OK(text.RegisterDocument(
          icu.note_file(p), std::move(icu.progress_notes[p])));
    }
    icu.lab_reports.clear();
    icu.progress_notes.clear();
    SLIM_RETURN_NOT_OK(pdf.RegisterDocument(std::move(icu.guideline_pdf)));
    SLIM_RETURN_NOT_OK(html.RegisterPage(icu.protocol_url(), icu.protocol_html));
    return slides.RegisterDeck(std::move(census_.deck));
  }

  /// Registers every module with `marks`.
  Status Register(slim::mark::MarkManager* marks) {
    for (slim::mark::MarkModule* m : Modules()) {
      SLIM_RETURN_NOT_OK(marks->RegisterModule(m));
    }
    for (auto& m : inplace_) SLIM_RETURN_NOT_OK(marks->RegisterModule(m.get()));
    return Status::OK();
  }

  slim::baseapp::BaseApplication* App(std::string_view type) {
    if (type == "excel") return &excel;
    if (type == "xml") return &xml;
    if (type == "text") return &text;
    if (type == "slides") return &slides;
    if (type == "pdf") return &pdf;
    if (type == "html") return &html;
    return nullptr;
  }

  const slim::workload::IcuWorkload& icu() const { return census_.icu; }

  slim::baseapp::SpreadsheetApp excel;
  slim::baseapp::XmlApp xml;
  slim::baseapp::TextApp text;
  slim::baseapp::SlideApp slides;
  slim::baseapp::PdfApp pdf;
  slim::baseapp::HtmlApp html;

 private:
  std::array<slim::mark::MarkModule*, 6> Modules() {
    return {&excel_m_, &xml_m_, &text_m_, &slide_m_, &pdf_m_, &html_m_};
  }

  slim::mark::ExcelMarkModule excel_m_;
  slim::mark::XmlMarkModule xml_m_;
  slim::mark::TextMarkModule text_m_;
  slim::mark::SlideMarkModule slide_m_;
  slim::mark::PdfMarkModule pdf_m_;
  slim::mark::HtmlMarkModule html_m_;
  std::vector<std::unique_ptr<slim::mark::InPlaceModule>> inplace_;
  Census census_;
};

/// \brief A scrap with a mark, and what opening it must show.
struct MarkedScrap {
  std::string scrap;
  std::string mark;
  std::string type;
  std::string excerpt;
};

/// \brief One SLIMPad session: a Mark Manager and a pad app over a base
/// layer, plus the ids the workloads address.
struct PadState {
  explicit PadState(BaseLayer* base_layer) : base(base_layer) {
    (void)base->Register(&marks);
    app = std::make_unique<pad::SlimPadApp>(&marks);
  }

  BaseLayer* base;
  slim::mark::MarkManager marks;
  std::unique_ptr<pad::SlimPadApp> app;
  std::string root;
  std::vector<std::string> patient_bundles;  ///< Census order.
  std::vector<std::string> med_scraps;       ///< Excel scraps (renamed by shift).
  std::vector<std::string> lyte_labels;      ///< "K 4.2"-style analyte labels.
  std::vector<MarkedScrap> marked;           ///< Filled by CollectMarked.
};

/// Fills pad->marked from the DMI (after a build or a load).
inline Status CollectMarked(PadState* pad) {
  pad->marked.clear();
  pad::SlimPadDmi& dmi = pad->app->dmi();
  for (const pad::Scrap* s : dmi.Scraps()) {
    if (s->mark_handles().empty()) continue;
    SLIM_ASSIGN_OR_RETURN(const pad::MarkHandle* h,
                          dmi.GetMarkHandle(s->mark_handles().front()));
    SLIM_ASSIGN_OR_RETURN(const slim::mark::Mark* m,
                          pad->marks.GetMark(h->mark_id()));
    pad->marked.push_back(
        {s->id(), m->mark_id(), std::string(m->type()), m->excerpt()});
  }
  return Status::OK();
}

/// \brief Issues pad gestures. Untraced, each gesture is the SlimPadApp
/// call; traced, it is the public calls the gesture is made of, each in
/// its own span under one `slimpad.app.*` span.
struct Gestures {
  PadState* pad;
  Tracer* tr = nullptr;
  /// Untraced: selection + AddScrapFromSelection wall time, in µs.
  Samples* add_us = nullptr;
  /// Traced: TripleStore::size() growth of each add-scrap gesture.
  std::vector<double>* triples_per_add = nullptr;

  pad::SlimPadApp& app() { return *pad->app; }
  pad::SlimPadDmi& dmi() { return pad->app->dmi(); }

  Status NewPad(const std::string& name) {
    SLIM_RETURN_NOT_OK(Call(tr, PB_SPAN(kApp, "slimpad.app.new_pad"),
                            [&] { return app().NewPad(name); }));
    SLIM_ASSIGN_OR_RETURN(pad->root, app().RootBundle());
    return Status::OK();
  }

  Result<std::string> CreateBundle(const std::string& parent,
                                   const std::string& name, pad::Coordinate pos,
                                   double w, double h) {
    if (tr == nullptr) return app().CreateBundle(parent, name, pos, w, h);
    return Call(tr, PB_SPAN(kApp, "slimpad.app.create_bundle"),
                [&]() -> Result<std::string> {
                  SLIM_ASSIGN_OR_RETURN(
                      const pad::Bundle* b,
                      Call(tr, PB_SPAN(kDmi, "slimpad.dmi.create_bundle"),
                           [&] { return dmi().Create_Bundle(name, pos, w, h); }));
                  SLIM_RETURN_NOT_OK(
                      Call(tr, PB_SPAN(kDmi, "slimpad.dmi.add_nested_bundle"),
                           [&] { return dmi().AddNestedBundle(parent, b->id()); }));
                  return b->id();
                });
  }

  /// `select` makes the base application's selection; the gesture then
  /// drops it onto `bundle`.
  template <typename Select>
  Result<std::string> AddScrap(const std::string& bundle,
                               const std::string& type,
                               const std::string& label, pad::Coordinate pos,
                               Select&& select) {
    if (tr == nullptr) {
      int64_t t0 = NowNs();
      SLIM_RETURN_NOT_OK(select());
      Result<std::string> out =
          app().AddScrapFromSelection(bundle, type, label, pos);
      if (add_us != nullptr) add_us->Add((NowNs() - t0) / 1e3);
      return out;
    }
    SLIM_RETURN_NOT_OK(
        Call(tr, PB_SPAN(kBaseapp, "baseapp.select"), [&] { return select(); }));
    size_t before = app().store().size();
    Result<std::string> out = Call(
        tr, PB_SPAN(kApp, "slimpad.app.add_scrap_from_selection"),
        [&]() -> Result<std::string> {
          SLIM_ASSIGN_OR_RETURN(
              std::string mark_id,
              Call(tr, PB_SPAN(kMark, "mark.create"),
                   [&] { return pad->marks.CreateMarkFromSelection(type); }));
          return AddScrapForMark(bundle, mark_id, label, pos);
        });
    if (triples_per_add != nullptr) {
      triples_per_add->push_back(
          static_cast<double>(app().store().size() - before));
    }
    return out;
  }

  /// SlimPadApp::AddScrapForMark as its public calls.
  Result<std::string> AddScrapForMark(const std::string& bundle,
                                      const std::string& mark_id,
                                      const std::string& scrap_label,
                                      pad::Coordinate pos) {
    SLIM_ASSIGN_OR_RETURN(const slim::mark::Mark* m,
                          Call(tr, PB_SPAN(kMark, "mark.get"),
                               [&] { return pad->marks.GetMark(mark_id); }));
    std::string label = scrap_label;
    if (label.empty()) {
      label = m->excerpt().empty() ? m->Describe() : m->excerpt();
    }
    SLIM_ASSIGN_OR_RETURN(
        const pad::Scrap* scrap,
        Call(tr, PB_SPAN(kDmi, "slimpad.dmi.create_scrap"),
             [&] { return dmi().Create_Scrap(label, pos); }));
    SLIM_ASSIGN_OR_RETURN(
        const pad::MarkHandle* handle,
        Call(tr, PB_SPAN(kDmi, "slimpad.dmi.create_mark_handle"),
             [&] { return dmi().Create_MarkHandle(mark_id); }));
    SLIM_RETURN_NOT_OK(
        Call(tr, PB_SPAN(kDmi, "slimpad.dmi.set_scrap_mark"),
             [&] { return dmi().SetScrapMark(scrap->id(), handle->id()); }));
    SLIM_RETURN_NOT_OK(
        Call(tr, PB_SPAN(kDmi, "slimpad.dmi.add_scrap_to_bundle"),
             [&] { return dmi().AddScrapToBundle(bundle, scrap->id()); }));
    return scrap->id();
  }

  Result<std::string> AddGraphic(const std::string& bundle,
                                 const std::string& label,
                                 pad::Coordinate pos) {
    if (tr == nullptr) return app().AddGraphicScrap(bundle, label, pos);
    return Call(tr, PB_SPAN(kApp, "slimpad.app.add_graphic_scrap"),
                [&]() -> Result<std::string> {
                  SLIM_ASSIGN_OR_RETURN(
                      const pad::Scrap* scrap,
                      Call(tr, PB_SPAN(kDmi, "slimpad.dmi.create_scrap"),
                           [&] { return dmi().Create_Scrap(label, pos); }));
                  SLIM_RETURN_NOT_OK(
                      Call(tr, PB_SPAN(kDmi, "slimpad.dmi.add_scrap_to_bundle"),
                           [&] { return dmi().AddScrapToBundle(bundle, scrap->id()); }));
                  return scrap->id();
                });
  }

  /// Selects medication row `row` and drops it onto `bundle`.
  Result<std::string> AddMedScrap(const std::string& bundle, int row,
                                  const std::string& label,
                                  pad::Coordinate pos) {
    BaseLayer* base = pad->base;
    return AddScrap(bundle, "excel", label, pos, [&] {
      return base->excel.Select(base->icu().medication_file(), "Medications",
                                slim::doc::RangeRef{{row, 1}, {row, 4}});
    });
  }

  /// The full Fig. 2/4 worksheet for the first `patients` patients, built
  /// through live selections in all six base-app types.
  Status BuildFullPad(int patients) {
    BaseLayer* base = pad->base;
    const slim::workload::IcuWorkload& icu = base->icu();
    SLIM_RETURN_NOT_OK(NewPad("Rounds"));
    size_t count = std::min<size_t>(icu.patients.size(),
                                    static_cast<size_t>(patients));
    for (size_t p = 0; p < count; ++p) {
      const slim::workload::Patient& patient = icu.patients[p];
      SLIM_ASSIGN_OR_RETURN(
          std::string bundle,
          CreateBundle(pad->root, patient.name,
                       pad::Coordinate{20, 20 + 180 * double(p)}, 640, 160));
      pad->patient_bundles.push_back(bundle);
      for (int m = 0; m < patient.med_count; ++m) {
        SLIM_ASSIGN_OR_RETURN(
            std::string scrap,
            AddMedScrap(bundle, patient.med_row_begin + m, "",
                        pad::Coordinate{10, 10 + 22 * double(m)}));
        pad->med_scraps.push_back(scrap);
      }
      SLIM_ASSIGN_OR_RETURN(
          std::string lyte,
          CreateBundle(bundle, "Electrolyte", pad::Coordinate{320, 10}, 280,
                       140));
      SLIM_RETURN_NOT_OK(
          AddGraphic(lyte, "gridlet", pad::Coordinate{10, 10}).status());
      SLIM_ASSIGN_OR_RETURN(
          slim::doc::xml::Document * lab,
          Call(tr, PB_SPAN(kBaseapp, "baseapp.get_document"),
               [&] { return base->xml.GetDocument(icu.lab_file(p)); }));
      slim::doc::xml::Element* panel = nullptr;
      for (slim::doc::xml::Element* e : lab->root()->ChildElements("panel")) {
        const std::string* name = e->FindAttribute("name");
        if (name != nullptr && *name == "electrolytes") panel = e;
      }
      if (panel == nullptr) return Status::NotFound("no electrolytes panel");
      double x = 20;
      for (slim::doc::xml::Element* result : panel->ChildElements("result")) {
        const std::string* analyte = result->FindAttribute("name");
        const std::string* value = result->FindAttribute("value");
        std::string label = (analyte != nullptr ? *analyte : "?") + " " +
                            (value != nullptr ? *value : "?");
        SLIM_RETURN_NOT_OK(
            AddScrap(lyte, "xml", label, pad::Coordinate{x, 40}, [&] {
              return base->xml.SelectElement(icu.lab_file(p), result);
            }).status());
        pad->lyte_labels.push_back(label);
        x += 36;
      }
    }
    // Progress-note scrap per patient (the Problems column of Fig. 2).
    for (size_t p = 0; p < count; ++p) {
      SLIM_ASSIGN_OR_RETURN(
          slim::doc::text::TextDocument * note,
          Call(tr, PB_SPAN(kBaseapp, "baseapp.get_document"),
               [&] { return base->text.GetDocument(icu.note_file(p)); }));
      if (note->paragraph_count() < 2) continue;
      SLIM_ASSIGN_OR_RETURN(const slim::doc::text::Paragraph* para,
                            note->GetParagraph(1));
      slim::doc::text::TextSpan span{
          1, 0, static_cast<int32_t>(std::min<size_t>(para->text.size(), 60))};
      SLIM_RETURN_NOT_OK(
          AddScrap(pad->patient_bundles[p], "text", "Problems",
                   pad::Coordinate{170, 10},
                   [&] { return base->text.Select(icu.note_file(p), span); })
              .status());
    }
    // Shared references: guideline PDF, protocol page, teaching slide.
    SLIM_ASSIGN_OR_RETURN(
        std::string refs, CreateBundle(pad->root, "References",
                                       pad::Coordinate{700, 20}, 200, 120));
    SLIM_ASSIGN_OR_RETURN(
        slim::doc::pdf::PdfDocument * guide,
        Call(tr, PB_SPAN(kBaseapp, "baseapp.get_document"),
             [&] { return base->pdf.GetDocument(icu.guideline_file()); }));
    if (!guide->pages().empty() && !guide->pages()[0].objects.empty()) {
      slim::doc::pdf::Rect box = guide->pages()[0].objects[0].box;
      SLIM_RETURN_NOT_OK(
          AddScrap(refs, "pdf", "Sepsis guideline", pad::Coordinate{10, 10},
                   [&] {
                     return base->pdf.SelectRegion(icu.guideline_file(), 0,
                                                   box);
                   })
              .status());
    }
    SLIM_RETURN_NOT_OK(
        AddScrap(refs, "html", "ICU protocols", pad::Coordinate{10, 40}, [&] {
          return base->html.NavigateTo(icu.protocol_url(), "id:top");
        }).status());
    return AddScrap(refs, "slides", "Teaching slide", pad::Coordinate{10, 70},
                    [&] {
                      return base->slides.Select(Census::kDeckFile, 0,
                                                 "shape1");
                    })
        .status();
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_ENV_H_
