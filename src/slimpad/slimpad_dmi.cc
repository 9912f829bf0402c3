#include "slimpad/slimpad_dmi.h"

#include <algorithm>

#include "slim/vocabulary.h"
#include "trim/persistence.h"
#include "util/strings.h"

namespace slim::pad {

using store::Vocab;

namespace {
// Connector / property names of the Bundle-Scrap model (paper Fig. 3).
constexpr const char* kPadName = "padName";
constexpr const char* kRootBundle = "rootBundle";
constexpr const char* kBundleName = "bundleName";
constexpr const char* kBundlePos = "bundlePos";
constexpr const char* kBundleHeight = "bundleHeight";
constexpr const char* kBundleWidth = "bundleWidth";
constexpr const char* kBundleContent = "bundleContent";
constexpr const char* kNestedBundle = "nestedBundle";
constexpr const char* kScrapName = "scrapName";
constexpr const char* kScrapPos = "scrapPos";
constexpr const char* kScrapMark = "scrapMark";
constexpr const char* kMarkId = "markId";
constexpr const char* kScrapAnnotation = "scrapAnnotation";
constexpr const char* kScrapLink = "scrapLink";

// One instance's statements in store order, read with one SelectEach over
// its subject. The rows point into store records, so the caller holds a
// TripleStore::Snapshot while an InstanceRows lives.
class InstanceRows {
 public:
  InstanceRows(const trim::TripleStore& store, const std::string& id)
      : id_(id) {
    store.SelectEach(trim::TriplePattern::BySubject(id),
                     [this](const trim::Triple& t) {
                       rows_.push_back(&t);
                       return true;
                     });
  }

  /// store::InstanceGraph::GetValue over the rows: the first statement
  /// with `property` must be a literal.
  Result<std::string> Value(std::string_view property) const {
    for (const trim::Triple* t : rows_) {
      if (t->property != property) continue;
      if (t->object.is_resource()) break;
      return t->object.text;
    }
    return Status::NotFound("instance '" + id_ +
                            "' has no literal value for '" +
                            std::string(property) + "'");
  }

  /// The `kind` objects of `property`, in store order.
  std::vector<std::string> Objects(std::string_view property,
                                   trim::ObjectKind kind) const {
    std::vector<std::string> out;
    for (const trim::Triple* t : rows_) {
      if (t->property == property && t->object.kind == kind) {
        out.push_back(t->object.text);
      }
    }
    return out;
  }
  std::vector<std::string> Connected(std::string_view property) const {
    return Objects(property, trim::ObjectKind::kResource);
  }

 private:
  const std::string& id_;
  std::vector<const trim::Triple*> rows_;
};
}  // namespace

std::string Coordinate::ToString() const {
  return FormatNumber(x) + "," + FormatNumber(y);
}

Result<Coordinate> Coordinate::Parse(std::string_view text) {
  std::vector<std::string> parts = Split(text, ',');
  Coordinate c;
  if (parts.size() != 2 || !ParseDouble(parts[0], &c.x) ||
      !ParseDouble(parts[1], &c.y)) {
    return Status::ParseError("malformed coordinate '" + std::string(text) +
                              "'");
  }
  return c;
}

SlimPadDmi::SlimPadDmi(trim::TripleStore* store)
    : store_(store),
      model_(store::BuildBundleScrapModel()),
      schema_(store::IdentitySchema(model_, "slimpad").ValueOrDie()),
      instances_(store) {
  // Register model + schema triples so the store is self-describing. If
  // they are already present (e.g. two DMIs sharing a store), that is fine.
  (void)model_.ToTriples(store_);
  (void)schema_.ToTriples(store_);
}

// ---------------------------------------------------------------------------
// Create_*
// ---------------------------------------------------------------------------

Result<const SlimPad*> SlimPadDmi::Create_SlimPad(const std::string& pad_name) {
  SLIM_ASSIGN_OR_RETURN(std::string id,
                        instances_.Create(TypeResource("SlimPad")));
  SLIM_RETURN_NOT_OK(instances_.SetValue(id, kPadName, pad_name));
  auto pad = std::make_unique<SlimPad>();
  pad->id_ = id;
  pad->pad_name_ = pad_name;
  const SlimPad* raw = pad.get();
  pads_[id] = std::move(pad);
  return raw;
}

Result<const Bundle*> SlimPadDmi::Create_Bundle(const std::string& bundle_name,
                                                Coordinate pos, double width,
                                                double height) {
  SLIM_ASSIGN_OR_RETURN(std::string id,
                        instances_.Create(TypeResource("Bundle")));
  SLIM_RETURN_NOT_OK(instances_.SetValue(id, kBundleName, bundle_name));
  SLIM_RETURN_NOT_OK(instances_.SetValue(id, kBundlePos, pos.ToString()));
  SLIM_RETURN_NOT_OK(
      instances_.SetValue(id, kBundleWidth, FormatNumber(width)));
  SLIM_RETURN_NOT_OK(
      instances_.SetValue(id, kBundleHeight, FormatNumber(height)));
  auto bundle = std::make_unique<Bundle>();
  bundle->id_ = id;
  bundle->name_ = bundle_name;
  bundle->pos_ = pos;
  bundle->width_ = width;
  bundle->height_ = height;
  const Bundle* raw = bundle.get();
  bundles_[id] = std::move(bundle);
  return raw;
}

Result<const Scrap*> SlimPadDmi::Create_Scrap(const std::string& scrap_name,
                                              Coordinate pos) {
  SLIM_ASSIGN_OR_RETURN(std::string id,
                        instances_.Create(TypeResource("Scrap")));
  SLIM_RETURN_NOT_OK(instances_.SetValue(id, kScrapName, scrap_name));
  SLIM_RETURN_NOT_OK(instances_.SetValue(id, kScrapPos, pos.ToString()));
  auto scrap = std::make_unique<Scrap>();
  scrap->id_ = id;
  scrap->name_ = scrap_name;
  scrap->pos_ = pos;
  const Scrap* raw = scrap.get();
  scraps_[id] = std::move(scrap);
  return raw;
}

Result<const MarkHandle*> SlimPadDmi::Create_MarkHandle(
    const std::string& mark_id) {
  if (mark_id.empty()) return Status::InvalidArgument("empty mark id");
  SLIM_ASSIGN_OR_RETURN(std::string id,
                        instances_.Create(TypeResource("MarkHandle")));
  SLIM_RETURN_NOT_OK(instances_.SetValue(id, kMarkId, mark_id));
  auto handle = std::make_unique<MarkHandle>();
  handle->id_ = id;
  handle->mark_id_ = mark_id;
  const MarkHandle* raw = handle.get();
  handles_[id] = std::move(handle);
  return raw;
}

// ---------------------------------------------------------------------------
// Update_*
// ---------------------------------------------------------------------------

Status SlimPadDmi::Update_padName(const std::string& pad_id,
                                  const std::string& new_name) {
  auto it = pads_.find(pad_id);
  if (it == pads_.end()) return Status::NotFound("no pad '" + pad_id + "'");
  SLIM_RETURN_NOT_OK(instances_.SetValue(pad_id, kPadName, new_name));
  it->second->pad_name_ = new_name;
  return Status::OK();
}

Status SlimPadDmi::Update_rootBundle(const std::string& pad_id,
                                     const std::string& bundle_id) {
  auto it = pads_.find(pad_id);
  if (it == pads_.end()) return Status::NotFound("no pad '" + pad_id + "'");
  if (!bundles_.count(bundle_id)) {
    return Status::NotFound("no bundle '" + bundle_id + "'");
  }
  store_->RemoveMatching(
      trim::TriplePattern::BySubjectProperty(pad_id, kRootBundle));
  SLIM_RETURN_NOT_OK(instances_.Connect(pad_id, kRootBundle, bundle_id));
  it->second->root_bundle_ = bundle_id;
  return Status::OK();
}

Status SlimPadDmi::Update_bundleName(const std::string& bundle_id,
                                     const std::string& new_name) {
  auto it = bundles_.find(bundle_id);
  if (it == bundles_.end()) {
    return Status::NotFound("no bundle '" + bundle_id + "'");
  }
  SLIM_RETURN_NOT_OK(instances_.SetValue(bundle_id, kBundleName, new_name));
  it->second->name_ = new_name;
  return Status::OK();
}

Status SlimPadDmi::Update_bundlePos(const std::string& bundle_id,
                                    Coordinate pos) {
  auto it = bundles_.find(bundle_id);
  if (it == bundles_.end()) {
    return Status::NotFound("no bundle '" + bundle_id + "'");
  }
  SLIM_RETURN_NOT_OK(
      instances_.SetValue(bundle_id, kBundlePos, pos.ToString()));
  it->second->pos_ = pos;
  return Status::OK();
}

Status SlimPadDmi::Update_bundleSize(const std::string& bundle_id,
                                     double width, double height) {
  auto it = bundles_.find(bundle_id);
  if (it == bundles_.end()) {
    return Status::NotFound("no bundle '" + bundle_id + "'");
  }
  SLIM_RETURN_NOT_OK(
      instances_.SetValue(bundle_id, kBundleWidth, FormatNumber(width)));
  SLIM_RETURN_NOT_OK(
      instances_.SetValue(bundle_id, kBundleHeight, FormatNumber(height)));
  it->second->width_ = width;
  it->second->height_ = height;
  return Status::OK();
}

Status SlimPadDmi::Update_scrapName(const std::string& scrap_id,
                                    const std::string& new_name) {
  auto it = scraps_.find(scrap_id);
  if (it == scraps_.end()) {
    return Status::NotFound("no scrap '" + scrap_id + "'");
  }
  SLIM_RETURN_NOT_OK(instances_.SetValue(scrap_id, kScrapName, new_name));
  it->second->name_ = new_name;
  return Status::OK();
}

Status SlimPadDmi::Update_scrapPos(const std::string& scrap_id,
                                   Coordinate pos) {
  auto it = scraps_.find(scrap_id);
  if (it == scraps_.end()) {
    return Status::NotFound("no scrap '" + scrap_id + "'");
  }
  SLIM_RETURN_NOT_OK(instances_.SetValue(scrap_id, kScrapPos, pos.ToString()));
  it->second->pos_ = pos;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Structure edits
// ---------------------------------------------------------------------------

bool SlimPadDmi::IsNestedUnder(const std::string& maybe_descendant,
                               const std::string& ancestor) const {
  std::string cur = maybe_descendant;
  while (!cur.empty()) {
    if (cur == ancestor) return true;
    auto it = bundles_.find(cur);
    if (it == bundles_.end()) return false;
    cur = it->second->parent_;
  }
  return false;
}

Status SlimPadDmi::AddNestedBundle(const std::string& parent_id,
                                   const std::string& child_id) {
  auto pit = bundles_.find(parent_id);
  auto cit = bundles_.find(child_id);
  if (pit == bundles_.end() || cit == bundles_.end()) {
    return Status::NotFound("no such bundle ('" + parent_id + "' / '" +
                            child_id + "')");
  }
  if (!cit->second->parent_.empty()) {
    return Status::FailedPrecondition("bundle '" + child_id +
                                      "' is already nested in '" +
                                      cit->second->parent_ + "'");
  }
  if (IsNestedUnder(parent_id, child_id)) {
    return Status::InvalidArgument("nesting '" + child_id + "' under '" +
                                   parent_id + "' would create a cycle");
  }
  SLIM_RETURN_NOT_OK(instances_.Connect(parent_id, kNestedBundle, child_id));
  pit->second->nested_bundles_.push_back(child_id);
  cit->second->parent_ = parent_id;
  return Status::OK();
}

Status SlimPadDmi::RemoveNestedBundle(const std::string& parent_id,
                                      const std::string& child_id) {
  auto pit = bundles_.find(parent_id);
  auto cit = bundles_.find(child_id);
  if (pit == bundles_.end() || cit == bundles_.end()) {
    return Status::NotFound("no such bundle ('" + parent_id + "' / '" +
                            child_id + "')");
  }
  if (cit->second->parent_ != parent_id) {
    return Status::FailedPrecondition("bundle '" + child_id +
                                      "' is not nested in '" + parent_id +
                                      "'");
  }
  SLIM_RETURN_NOT_OK(instances_.Disconnect(parent_id, kNestedBundle, child_id));
  auto& vec = pit->second->nested_bundles_;
  vec.erase(std::remove(vec.begin(), vec.end(), child_id), vec.end());
  cit->second->parent_.clear();
  return Status::OK();
}

Status SlimPadDmi::AddScrapToBundle(const std::string& bundle_id,
                                    const std::string& scrap_id) {
  auto bit = bundles_.find(bundle_id);
  if (bit == bundles_.end()) {
    return Status::NotFound("no bundle '" + bundle_id + "'");
  }
  if (!scraps_.count(scrap_id)) {
    return Status::NotFound("no scrap '" + scrap_id + "'");
  }
  // A scrap lives in at most one bundle.
  if (!store_
           ->Select(trim::TriplePattern{std::nullopt, kBundleContent,
                                        trim::Object::Resource(scrap_id)})
           .empty()) {
    return Status::FailedPrecondition("scrap '" + scrap_id +
                                      "' is already placed in a bundle");
  }
  SLIM_RETURN_NOT_OK(instances_.Connect(bundle_id, kBundleContent, scrap_id));
  bit->second->scraps_.push_back(scrap_id);
  return Status::OK();
}

Status SlimPadDmi::RemoveScrapFromBundle(const std::string& bundle_id,
                                         const std::string& scrap_id) {
  auto bit = bundles_.find(bundle_id);
  if (bit == bundles_.end()) {
    return Status::NotFound("no bundle '" + bundle_id + "'");
  }
  auto& vec = bit->second->scraps_;
  auto pos = std::find(vec.begin(), vec.end(), scrap_id);
  if (pos == vec.end()) {
    return Status::NotFound("scrap '" + scrap_id + "' is not in bundle '" +
                            bundle_id + "'");
  }
  SLIM_RETURN_NOT_OK(
      instances_.Disconnect(bundle_id, kBundleContent, scrap_id));
  vec.erase(pos);
  return Status::OK();
}

Status SlimPadDmi::SetScrapMark(const std::string& scrap_id,
                                const std::string& handle_id) {
  auto sit = scraps_.find(scrap_id);
  if (sit == scraps_.end()) {
    return Status::NotFound("no scrap '" + scrap_id + "'");
  }
  if (!handles_.count(handle_id)) {
    return Status::NotFound("no mark handle '" + handle_id + "'");
  }
  SLIM_RETURN_NOT_OK(instances_.Connect(scrap_id, kScrapMark, handle_id));
  sit->second->mark_handles_.push_back(handle_id);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// §6 extensions
// ---------------------------------------------------------------------------

Status SlimPadDmi::AddScrapAnnotation(const std::string& scrap_id,
                                      const std::string& text) {
  auto it = scraps_.find(scrap_id);
  if (it == scraps_.end()) {
    return Status::NotFound("no scrap '" + scrap_id + "'");
  }
  SLIM_RETURN_NOT_OK(instances_.AddValue(scrap_id, kScrapAnnotation, text));
  it->second->annotations_.push_back(text);
  return Status::OK();
}

Status SlimPadDmi::LinkScraps(const std::string& from_scrap_id,
                              const std::string& to_scrap_id) {
  auto fit = scraps_.find(from_scrap_id);
  if (fit == scraps_.end() || !scraps_.count(to_scrap_id)) {
    return Status::NotFound("no such scrap ('" + from_scrap_id + "' / '" +
                            to_scrap_id + "')");
  }
  SLIM_RETURN_NOT_OK(
      instances_.Connect(from_scrap_id, kScrapLink, to_scrap_id));
  fit->second->linked_scraps_.push_back(to_scrap_id);
  return Status::OK();
}

Status SlimPadDmi::UnlinkScraps(const std::string& from_scrap_id,
                                const std::string& to_scrap_id) {
  auto fit = scraps_.find(from_scrap_id);
  if (fit == scraps_.end()) {
    return Status::NotFound("no scrap '" + from_scrap_id + "'");
  }
  SLIM_RETURN_NOT_OK(
      instances_.Disconnect(from_scrap_id, kScrapLink, to_scrap_id));
  auto& vec = fit->second->linked_scraps_;
  vec.erase(std::remove(vec.begin(), vec.end(), to_scrap_id), vec.end());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Delete_*
// ---------------------------------------------------------------------------

Status SlimPadDmi::Delete_MarkHandle(const std::string& handle_id) {
  auto it = handles_.find(handle_id);
  if (it == handles_.end()) {
    return Status::NotFound("no mark handle '" + handle_id + "'");
  }
  instances_.Delete(handle_id);
  // Drop the handle from any scrap referencing it.
  for (auto& [_, scrap] : scraps_) {
    auto& vec = scrap->mark_handles_;
    vec.erase(std::remove(vec.begin(), vec.end(), handle_id), vec.end());
  }
  handles_.erase(it);
  return Status::OK();
}

Status SlimPadDmi::Delete_Scrap(const std::string& scrap_id) {
  auto it = scraps_.find(scrap_id);
  if (it == scraps_.end()) {
    return Status::NotFound("no scrap '" + scrap_id + "'");
  }
  // Handles belong to their scrap; remove them with it.
  std::vector<std::string> handles = it->second->mark_handles_;
  for (const std::string& h : handles) (void)Delete_MarkHandle(h);
  instances_.Delete(scrap_id);
  for (auto& [_, bundle] : bundles_) {
    auto& vec = bundle->scraps_;
    vec.erase(std::remove(vec.begin(), vec.end(), scrap_id), vec.end());
  }
  for (auto& [_, scrap] : scraps_) {
    auto& vec = scrap->linked_scraps_;
    vec.erase(std::remove(vec.begin(), vec.end(), scrap_id), vec.end());
  }
  scraps_.erase(it);
  return Status::OK();
}

Status SlimPadDmi::Delete_Bundle(const std::string& bundle_id) {
  auto it = bundles_.find(bundle_id);
  if (it == bundles_.end()) {
    return Status::NotFound("no bundle '" + bundle_id + "'");
  }
  // Recursively delete contents (copies: Delete_* mutates the vectors).
  std::vector<std::string> scraps = it->second->scraps_;
  for (const std::string& s : scraps) (void)Delete_Scrap(s);
  std::vector<std::string> nested = it->second->nested_bundles_;
  for (const std::string& b : nested) (void)Delete_Bundle(b);

  instances_.Delete(bundle_id);
  for (auto& [_, bundle] : bundles_) {
    auto& vec = bundle->nested_bundles_;
    vec.erase(std::remove(vec.begin(), vec.end(), bundle_id), vec.end());
  }
  for (auto& [_, padp] : pads_) {
    if (padp->root_bundle_ == bundle_id) padp->root_bundle_.clear();
  }
  bundles_.erase(bundle_id);
  return Status::OK();
}

Status SlimPadDmi::Delete_SlimPad(const std::string& pad_id) {
  auto it = pads_.find(pad_id);
  if (it == pads_.end()) return Status::NotFound("no pad '" + pad_id + "'");
  std::string root = it->second->root_bundle_;
  if (!root.empty()) (void)Delete_Bundle(root);
  instances_.Delete(pad_id);
  pads_.erase(it);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Lookup
// ---------------------------------------------------------------------------

Result<const SlimPad*> SlimPadDmi::GetPad(const std::string& pad_id) const {
  auto it = pads_.find(pad_id);
  if (it == pads_.end()) return Status::NotFound("no pad '" + pad_id + "'");
  return static_cast<const SlimPad*>(it->second.get());
}

Result<const Bundle*> SlimPadDmi::GetBundle(
    const std::string& bundle_id) const {
  auto it = bundles_.find(bundle_id);
  if (it == bundles_.end()) {
    return Status::NotFound("no bundle '" + bundle_id + "'");
  }
  return static_cast<const Bundle*>(it->second.get());
}

Result<const Scrap*> SlimPadDmi::GetScrap(const std::string& scrap_id) const {
  auto it = scraps_.find(scrap_id);
  if (it == scraps_.end()) {
    return Status::NotFound("no scrap '" + scrap_id + "'");
  }
  return static_cast<const Scrap*>(it->second.get());
}

Result<const MarkHandle*> SlimPadDmi::GetMarkHandle(
    const std::string& handle_id) const {
  auto it = handles_.find(handle_id);
  if (it == handles_.end()) {
    return Status::NotFound("no mark handle '" + handle_id + "'");
  }
  return static_cast<const MarkHandle*>(it->second.get());
}

std::vector<const SlimPad*> SlimPadDmi::Pads() const {
  std::vector<const SlimPad*> out;
  for (const auto& [_, p] : pads_) out.push_back(p.get());
  return out;
}

std::vector<const Bundle*> SlimPadDmi::Bundles() const {
  std::vector<const Bundle*> out;
  for (const auto& [_, b] : bundles_) out.push_back(b.get());
  return out;
}

std::vector<const Scrap*> SlimPadDmi::Scraps() const {
  std::vector<const Scrap*> out;
  for (const auto& [_, s] : scraps_) out.push_back(s.get());
  return out;
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

Status SlimPadDmi::save(const std::string& file_name) const {
  return trim::SaveStore(*store_, file_name);
}

Status SlimPadDmi::load(const std::string& file_name) {
  SLIM_RETURN_NOT_OK(trim::LoadStore(file_name, store_));
  return RebuildFromTriples();
}

Status SlimPadDmi::RebuildFromTriples() {
  pads_.clear();
  bundles_.clear();
  scraps_.clear();
  handles_.clear();

  // Make sure model/schema triples exist after a load of a bare data file.
  if (!store_->GetOne(model_.ModelResource(), Vocab::kName)) {
    SLIM_RETURN_NOT_OK(model_.ToTriples(store_));
  }
  if (!store_->GetOne(schema_.SchemaResource(), Vocab::kName)) {
    SLIM_RETURN_NOT_OK(schema_.ToTriples(store_));
  }

  // One pass per instance over its own statements, by type, then the
  // parent links once every bundle exists.
  trim::TripleStore::Snapshot snapshot(*store_);
  for (const std::string& id : instances_.InstancesOf(TypeResource("SlimPad"))) {
    InstanceRows rows(*store_, id);
    auto pad = std::make_unique<SlimPad>();
    pad->id_ = id;
    SLIM_ASSIGN_OR_RETURN(pad->pad_name_, rows.Value(kPadName));
    std::vector<std::string> roots = rows.Connected(kRootBundle);
    if (!roots.empty()) pad->root_bundle_ = std::move(roots.front());
    pads_[id] = std::move(pad);
  }
  for (const std::string& id : instances_.InstancesOf(TypeResource("Bundle"))) {
    InstanceRows rows(*store_, id);
    auto bundle = std::make_unique<Bundle>();
    bundle->id_ = id;
    SLIM_ASSIGN_OR_RETURN(bundle->name_, rows.Value(kBundleName));
    SLIM_ASSIGN_OR_RETURN(std::string pos_text, rows.Value(kBundlePos));
    SLIM_ASSIGN_OR_RETURN(bundle->pos_, Coordinate::Parse(pos_text));
    SLIM_ASSIGN_OR_RETURN(std::string w, rows.Value(kBundleWidth));
    SLIM_ASSIGN_OR_RETURN(std::string h, rows.Value(kBundleHeight));
    if (!ParseDouble(w, &bundle->width_) || !ParseDouble(h, &bundle->height_)) {
      return Status::ParseError("bundle '" + id + "': bad geometry");
    }
    bundle->scraps_ = rows.Connected(kBundleContent);
    bundle->nested_bundles_ = rows.Connected(kNestedBundle);
    bundles_[id] = std::move(bundle);
  }
  for (const std::string& id : instances_.InstancesOf(TypeResource("Scrap"))) {
    InstanceRows rows(*store_, id);
    auto scrap = std::make_unique<Scrap>();
    scrap->id_ = id;
    SLIM_ASSIGN_OR_RETURN(scrap->name_, rows.Value(kScrapName));
    SLIM_ASSIGN_OR_RETURN(std::string pos_text, rows.Value(kScrapPos));
    SLIM_ASSIGN_OR_RETURN(scrap->pos_, Coordinate::Parse(pos_text));
    scrap->mark_handles_ = rows.Connected(kScrapMark);
    scrap->linked_scraps_ = rows.Connected(kScrapLink);
    scrap->annotations_ =
        rows.Objects(kScrapAnnotation, trim::ObjectKind::kLiteral);
    scraps_[id] = std::move(scrap);
  }
  for (const std::string& id :
       instances_.InstancesOf(TypeResource("MarkHandle"))) {
    InstanceRows rows(*store_, id);
    auto handle = std::make_unique<MarkHandle>();
    handle->id_ = id;
    SLIM_ASSIGN_OR_RETURN(handle->mark_id_, rows.Value(kMarkId));
    handles_[id] = std::move(handle);
  }
  for (auto& [id, bundle] : bundles_) {
    for (const std::string& child : bundle->nested_bundles_) {
      auto cit = bundles_.find(child);
      if (cit != bundles_.end()) cit->second->parent_ = id;
    }
  }
  return Status::OK();
}

size_t SlimPadDmi::NativeObjectCount() const {
  return pads_.size() + bundles_.size() + scraps_.size() + handles_.size();
}

size_t SlimPadDmi::ApproximateNativeBytes() const {
  size_t bytes = 0;
  for (const auto& [id, p] : pads_) {
    bytes += sizeof(SlimPad) + id.capacity() + p->pad_name_.capacity() +
             p->root_bundle_.capacity();
  }
  for (const auto& [id, b] : bundles_) {
    bytes += sizeof(Bundle) + id.capacity() + b->name_.capacity() +
             b->parent_.capacity();
    for (const auto& s : b->scraps_) bytes += s.capacity();
    for (const auto& s : b->nested_bundles_) bytes += s.capacity();
  }
  for (const auto& [id, s] : scraps_) {
    bytes += sizeof(Scrap) + id.capacity() + s->name_.capacity();
    for (const auto& h : s->mark_handles_) bytes += h.capacity();
    for (const auto& a : s->annotations_) bytes += a.capacity();
    for (const auto& l : s->linked_scraps_) bytes += l.capacity();
  }
  for (const auto& [id, h] : handles_) {
    bytes += sizeof(MarkHandle) + id.capacity() + h->mark_id_.capacity();
  }
  return bytes;
}

}  // namespace slim::pad
