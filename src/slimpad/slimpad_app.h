#ifndef SLIM_SLIMPAD_SLIMPAD_APP_H_
#define SLIM_SLIMPAD_SLIMPAD_APP_H_

/// \file slimpad_app.h
/// \brief The SLIMPad application (paper §3): a headless controller that
/// wires the DMI, the Mark Manager and the viewing styles together.
///
/// User-level gestures map to methods: dropping a selection onto the pad is
/// AddScrapFromSelection (creates a mark, a MarkHandle and a Scrap — the
/// "digital sticky-note with a digital wire"); double-clicking a scrap is
/// OpenScrap (de-references the mark and drives the base application, or —
/// under independent viewing — displays the content in place, Fig. 6).

#include <memory>
#include <string>
#include <vector>

#include "mark/mark_manager.h"
#include "mark/validator.h"
#include "obs/obs.h"
#include "slim/query.h"
#include "slimpad/slimpad_dmi.h"
#include "util/result.h"

namespace slim::pad {

/// \brief The three viewing styles of paper Fig. 6.
enum class ViewingStyle {
  kSimultaneous,  ///< Pad window + base application window side by side.
  kEnhanced,      ///< Superimposed functionality inside the base app.
  kIndependent,   ///< Base app hidden; content shown in the pad.
};

/// Lower-case style name ("simultaneous"...), used in metric names and
/// span tags.
std::string_view ViewingStyleName(ViewingStyle style);

/// \brief What an OpenScrap gesture produced (for display and for tests).
struct OpenResult {
  ViewingStyle style;
  std::string mark_id;
  /// Content shown in the pad itself (independent viewing), empty
  /// otherwise.
  std::string in_place_content;
  /// True when a base-application window was driven to the element.
  bool base_app_navigated = false;
};

/// \brief A bundle template (§6: "templates for bundles"): a named shape of
/// empty scraps that can be stamped onto a pad — e.g. the resident's
/// worksheet columns.
struct BundleTemplate {
  std::string name;
  double width = 300;
  double height = 200;
  /// (scrap label, position) pairs to pre-create.
  std::vector<std::pair<std::string, Coordinate>> scraps;
};

/// \brief The SLIMPad application controller.
class SlimPadApp {
 public:
  /// `marks` must outlive the app. A fresh triple store + DMI are created
  /// per app instance (the pad's own superimposed storage).
  explicit SlimPadApp(mark::MarkManager* marks);

  SlimPadDmi& dmi() { return *dmi_; }
  mark::MarkManager& marks() { return *marks_; }
  trim::TripleStore& store() { return store_; }

  /// The current pad (created by NewPad or load).
  const SlimPad* pad() const { return pad_; }

  ViewingStyle viewing_style() const { return style_; }
  void set_viewing_style(ViewingStyle style) { style_ = style; }

  /// Creates a fresh pad with an empty root bundle.
  Status NewPad(const std::string& pad_name);

  /// Root bundle id of the current pad.
  Result<std::string> RootBundle() const;

  /// Creates an empty bundle nested in `parent_bundle_id`.
  Result<std::string> CreateBundle(const std::string& parent_bundle_id,
                                   const std::string& name, Coordinate pos,
                                   double width = 200, double height = 150);

  /// The central gesture: takes the *current selection* of the base
  /// application serving `app_type`, creates a mark for it, and places a
  /// scrap (with handle) into `bundle_id`. Returns the scrap id.
  Result<std::string> AddScrapFromSelection(const std::string& bundle_id,
                                            const std::string& app_type,
                                            const std::string& scrap_label,
                                            Coordinate pos);

  /// Adds a mark that already exists in the Mark Manager as a scrap.
  Result<std::string> AddScrapForMark(const std::string& bundle_id,
                                      const std::string& mark_id,
                                      const std::string& scrap_label,
                                      Coordinate pos);

  /// Adds a purely graphic scrap (no mark) — the 'gridlet' of Fig. 4.
  Result<std::string> AddGraphicScrap(const std::string& bundle_id,
                                      const std::string& label,
                                      Coordinate pos);

  /// Double-click: de-reference the scrap's (first) mark per the current
  /// viewing style.
  Result<OpenResult> OpenScrap(const std::string& scrap_id);

  /// §6 extension: stamps a template as a new bundle under `parent`.
  Result<std::string> InstantiateTemplate(const std::string& parent_bundle_id,
                                          const BundleTemplate& tmpl,
                                          Coordinate pos);

  /// §6 extension: declarative queries over the pad's triples, in
  /// addition to navigational access. Example:
  ///   FindScrapsNamed("K 4.9") — all scrap ids with that label.
  /// For arbitrary patterns use QueryPad with the query language of
  /// slim/query.h.
  Result<std::vector<std::string>> FindScrapsNamed(const std::string& name);
  Result<std::vector<store::Binding>> QueryPad(const std::string& query_text);

  /// §3's staleness concern: audits every mark on the pad against the live
  /// base layer (valid / content-changed / dangling).
  mark::ValidationReport AuditMarks() { return mark::ValidateAllMarks(marks_); }

  /// Saves pad data (triples) and marks side by side:
  /// `<path>` and `<path>.marks`. Both are written and fsynced before
  /// either replaces its old copy, so a failed write leaves both old files.
  Status SavePad(const std::string& path) const;
  /// Loads both files and re-binds the current pad. All or nothing: the pad
  /// file is decoded and its objects built, the marks file is decoded and
  /// checked, and the image is installed before the objects, the marks and
  /// the open pad change; on any error the triples, the objects, the marks
  /// and the open pad are left as they were.
  Status LoadPad(const std::string& path);

  /// Per-app gesture metrics (`slimpad.*`). The same events also land in
  /// obs::DefaultRegistry() under identical names, so a process-wide dump
  /// sees every app while each app can still be inspected alone.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

 private:
  /// Bumps `name` in both the per-app and the default registry.
  void CountGesture(const std::string& name);

  mark::MarkManager* marks_;
  trim::TripleStore store_;
  std::unique_ptr<SlimPadDmi> dmi_;
  const SlimPad* pad_ = nullptr;
  ViewingStyle style_ = ViewingStyle::kSimultaneous;
  obs::MetricsRegistry metrics_;
};

/// The resident's-worksheet template from paper Fig. 2 (patient id,
/// problems, labs/vitals, to-do columns).
BundleTemplate ResidentWorksheetTemplate();

}  // namespace slim::pad

#endif  // SLIM_SLIMPAD_SLIMPAD_APP_H_
