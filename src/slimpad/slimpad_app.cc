#include "slimpad/slimpad_app.h"

#include "trim/persistence.h"
#include "util/file.h"

namespace slim::pad {

std::string_view ViewingStyleName(ViewingStyle style) {
  switch (style) {
    case ViewingStyle::kSimultaneous: return "simultaneous";
    case ViewingStyle::kEnhanced: return "enhanced";
    case ViewingStyle::kIndependent: return "independent";
  }
  return "unknown";
}

SlimPadApp::SlimPadApp(mark::MarkManager* marks)
    : marks_(marks), dmi_(std::make_unique<SlimPadDmi>(&store_)) {}

void SlimPadApp::CountGesture(const std::string& name) {
#if SLIM_OBS_ENABLED
  if (obs::Disabled()) return;
  metrics_.GetCounter(name)->Increment();
  obs::DefaultRegistry().GetCounter(name)->Increment();
#else
  (void)name;
#endif
}

Status SlimPadApp::NewPad(const std::string& pad_name) {
  SLIM_ASSIGN_OR_RETURN(const SlimPad* pad, dmi_->Create_SlimPad(pad_name));
  SLIM_ASSIGN_OR_RETURN(
      const Bundle* root,
      dmi_->Create_Bundle(pad_name, Coordinate{0, 0}, 800, 600));
  SLIM_RETURN_NOT_OK(dmi_->Update_rootBundle(pad->id(), root->id()));
  pad_ = pad;
  return Status::OK();
}

Result<std::string> SlimPadApp::RootBundle() const {
  if (pad_ == nullptr) return Status::FailedPrecondition("no pad open");
  if (pad_->root_bundle().empty()) {
    return Status::FailedPrecondition("pad has no root bundle");
  }
  return pad_->root_bundle();
}

Result<std::string> SlimPadApp::CreateBundle(
    const std::string& parent_bundle_id, const std::string& name,
    Coordinate pos, double width, double height) {
  SLIM_ASSIGN_OR_RETURN(const Bundle* bundle,
                        dmi_->Create_Bundle(name, pos, width, height));
  SLIM_RETURN_NOT_OK(dmi_->AddNestedBundle(parent_bundle_id, bundle->id()));
  return bundle->id();
}

Result<std::string> SlimPadApp::AddScrapFromSelection(
    const std::string& bundle_id, const std::string& app_type,
    const std::string& scrap_label, Coordinate pos) {
  SLIM_OBS_TIMER(timer, "slimpad.add_scrap.latency_us");
  SLIM_OBS_SPAN(span, "slimpad.add_scrap_from_selection");
  span.AddTag("app_type", app_type);
  Result<std::string> out = [&]() -> Result<std::string> {
    SLIM_ASSIGN_OR_RETURN(std::string mark_id,
                          marks_->CreateMarkFromSelection(app_type));
    return AddScrapForMark(bundle_id, mark_id, scrap_label, pos);
  }();
  CountGesture(out.ok() ? "slimpad.add_scrap.ok" : "slimpad.add_scrap.error");
  return out;
}

Result<std::string> SlimPadApp::AddScrapForMark(const std::string& bundle_id,
                                                const std::string& mark_id,
                                                const std::string& scrap_label,
                                                Coordinate pos) {
  // Verify the mark exists before wiring anything.
  SLIM_RETURN_NOT_OK(marks_->GetMark(mark_id).status());
  std::string label = scrap_label;
  if (label.empty()) {
    // Default the label to the mark's excerpt (note §3: "a scrap's label
    // and its mark's content may differ" — the user can rename later).
    SLIM_ASSIGN_OR_RETURN(const mark::Mark* m, marks_->GetMark(mark_id));
    label = m->excerpt().empty() ? m->Describe() : m->excerpt();
  }
  SLIM_ASSIGN_OR_RETURN(const Scrap* scrap, dmi_->Create_Scrap(label, pos));
  SLIM_ASSIGN_OR_RETURN(const MarkHandle* handle,
                        dmi_->Create_MarkHandle(mark_id));
  SLIM_RETURN_NOT_OK(dmi_->SetScrapMark(scrap->id(), handle->id()));
  SLIM_RETURN_NOT_OK(dmi_->AddScrapToBundle(bundle_id, scrap->id()));
  return scrap->id();
}

Result<std::string> SlimPadApp::AddGraphicScrap(const std::string& bundle_id,
                                                const std::string& label,
                                                Coordinate pos) {
  SLIM_ASSIGN_OR_RETURN(const Scrap* scrap, dmi_->Create_Scrap(label, pos));
  SLIM_RETURN_NOT_OK(dmi_->AddScrapToBundle(bundle_id, scrap->id()));
  return scrap->id();
}

Result<OpenResult> SlimPadApp::OpenScrap(const std::string& scrap_id) {
  SLIM_OBS_TIMER(timer, "slimpad.open_scrap.latency_us");
  SLIM_OBS_SPAN(span, "slimpad.open_scrap");
  span.AddTag("scrap", scrap_id);
  span.AddTag("style", std::string(ViewingStyleName(style_)));
  Result<OpenResult> result = [&]() -> Result<OpenResult> {
    SLIM_ASSIGN_OR_RETURN(const Scrap* scrap, dmi_->GetScrap(scrap_id));
    if (scrap->mark_handles().empty()) {
      return Status::FailedPrecondition("scrap '" + scrap_id +
                                        "' has no mark (graphic scrap)");
    }
    SLIM_ASSIGN_OR_RETURN(const MarkHandle* handle,
                          dmi_->GetMarkHandle(scrap->mark_handles().front()));
    OpenResult out;
    out.style = style_;
    out.mark_id = handle->mark_id();
    switch (style_) {
      case ViewingStyle::kSimultaneous: {
        // De-reference the mark: the base application window navigates to
        // and highlights the element.
        SLIM_RETURN_NOT_OK(marks_->ResolveMark(handle->mark_id(), "context"));
        out.base_app_navigated = true;
        break;
      }
      case ViewingStyle::kEnhanced: {
        // The base application hosts the superimposed layer: navigate AND
        // surface the content to the (enhanced) base window.
        SLIM_RETURN_NOT_OK(marks_->ResolveMark(handle->mark_id(), "context"));
        SLIM_ASSIGN_OR_RETURN(out.in_place_content,
                              marks_->ExtractContent(handle->mark_id()));
        out.base_app_navigated = true;
        break;
      }
      case ViewingStyle::kIndependent: {
        // The base application stays hidden; content is displayed in place.
        SLIM_ASSIGN_OR_RETURN(out.in_place_content,
                              marks_->ExtractContent(handle->mark_id()));
        out.base_app_navigated = false;
        break;
      }
    }
    return out;
  }();
  if (result.ok()) {
    CountGesture("slimpad.open_scrap." +
                 std::string(ViewingStyleName(style_)));
    CountGesture("slimpad.open_scrap.ok");
  } else {
    CountGesture("slimpad.open_scrap.error");
    SLIM_OBS_LOG(kWarn, "slimpad", "open scrap gesture failed",
                 {{"scrap", scrap_id},
                  {"style", std::string(ViewingStyleName(style_))},
                  {"status", result.status().ToString()}});
  }
  return result;
}

Result<std::string> SlimPadApp::InstantiateTemplate(
    const std::string& parent_bundle_id, const BundleTemplate& tmpl,
    Coordinate pos) {
  SLIM_ASSIGN_OR_RETURN(std::string bundle_id,
                        CreateBundle(parent_bundle_id, tmpl.name, pos,
                                     tmpl.width, tmpl.height));
  for (const auto& [label, scrap_pos] : tmpl.scraps) {
    SLIM_RETURN_NOT_OK(
        AddGraphicScrap(bundle_id, label, scrap_pos).status());
  }
  return bundle_id;
}

Result<std::vector<std::string>> SlimPadApp::FindScrapsNamed(
    const std::string& name) {
  store::Query query;
  query.Where(store::QueryTerm::Var("s"), store::QueryTerm::Res("scrapName"),
              store::QueryTerm::Lit(name));
  SLIM_ASSIGN_OR_RETURN(std::vector<store::Binding> rows,
                        store::Execute(store_, query));
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const store::Binding& row : rows) out.push_back(row.at("s").text);
  return out;
}

Result<std::vector<store::Binding>> SlimPadApp::QueryPad(
    const std::string& query_text) {
  return store::ExecuteText(store_, query_text);
}

Status SlimPadApp::SavePad(const std::string& path) const {
  // Both temp files are written and fsynced before either is renamed, so a
  // failure up to then leaves the old pad and its marks as they were. The
  // marks file is renamed first: old marks beside a new pad would lack the
  // pad's newest marks.
  FileReplacer pad_file(path);
  *pad_file.buffer() = trim::StoreToBinary(store_);
  FileReplacer marks_file(path + ".marks");
  marks_->WriteTo(&marks_file);
  return FileReplacer::CommitAll({&marks_file, &pad_file});
}

Status SlimPadApp::LoadPad(const std::string& path) {
  // Every step that can fail runs before anything changes: decoding the
  // pad file, building its objects, decoding and checking the marks file,
  // and installing the image. Then the objects are swapped in, the marks
  // adopted and the open pad set.
  trim::TripleStore::Image image;
  SLIM_RETURN_NOT_OK(trim::ReadStoreFile(path, &image));
  SLIM_ASSIGN_OR_RETURN(
      SlimPadDmi::Objects objects,
      dmi_->BuildObjects(image.strings(), image.statements()));
  if (objects.pads.empty()) {
    return Status::ParseError("loaded file contains no pad");
  }
  SLIM_ASSIGN_OR_RETURN(mark::MarkManager::DecodedMarks marks,
                        marks_->DecodeFile(path + ".marks"));
  SLIM_RETURN_NOT_OK(dmi_->Install(image, std::move(objects)));
  marks_->Adopt(std::move(marks));
  pad_ = dmi_->Pads().front();
  return Status::OK();
}

BundleTemplate ResidentWorksheetTemplate() {
  BundleTemplate tmpl;
  tmpl.name = "Resident worksheet row";
  tmpl.width = 640;
  tmpl.height = 120;
  tmpl.scraps = {
      {"Patient", Coordinate{10, 10}},
      {"Problems", Coordinate{170, 10}},
      {"Labs / vitals", Coordinate{330, 10}},
      {"To do", Coordinate{490, 10}},
  };
  return tmpl;
}

}  // namespace slim::pad
