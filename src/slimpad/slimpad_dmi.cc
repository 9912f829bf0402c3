#include "slimpad/slimpad_dmi.h"

#include <algorithm>
#include <iterator>
#include <optional>

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

// What BuildObjects reads a string as: a property of the Bundle-Scrap
// model, slim:type, or one of the four type resources.
enum class Key : uint8_t {
  kOther,
  kPadName,
  kRootBundle,
  kBundleName,
  kBundlePos,
  kBundleWidth,
  kBundleHeight,
  kBundleContent,
  kNestedBundle,
  kScrapName,
  kScrapPos,
  kScrapMark,
  kMarkId,
  kScrapAnnotation,
  kScrapLink,
  kType,
  kSlimPadType,  // the four types, in build order
  kBundleType,
  kScrapType,
  kMarkHandleType,
  kCount,
  kUnread = kCount,  // not yet compared with the names
};
constexpr size_t kKeyCount = static_cast<size_t>(Key::kCount);
constexpr size_t kFirstType = static_cast<size_t>(Key::kSlimPadType);
}  // namespace

std::string Coordinate::ToString() const {
  return FormatNumber(x) + "," + FormatNumber(y);
}

Result<Coordinate> Coordinate::Parse(std::string_view text) {
  const size_t comma = text.find(',');
  Coordinate c;
  if (comma == std::string_view::npos ||
      text.find(',', comma + 1) != std::string_view::npos ||
      !ParseDouble(text.substr(0, comma), &c.x) ||
      !ParseDouble(text.substr(comma + 1), &c.y)) {
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
  trim::TripleStore::Image image;
  SLIM_RETURN_NOT_OK(trim::ReadStoreFile(file_name, &image));
  SLIM_ASSIGN_OR_RETURN(Objects objects,
                        BuildObjects(image.strings(), image.statements()));
  return Install(image, std::move(objects));
}

Status SlimPadDmi::Install(const trim::TripleStore::Image& image,
                           Objects objects) {
  SLIM_RETURN_NOT_OK(store_->InstallImage(image));
  Adopt(std::move(objects));
  return Status::OK();
}

Status SlimPadDmi::RebuildFromTriples() {
  Status status;
  Objects objects;
  store_->ExportImage(
      [&](const std::vector<std::string_view>& strings,
          const std::vector<trim::TripleStore::ImageStatement>& statements) {
        Result<Objects> built = BuildObjects(strings, statements);
        status = built.status();
        if (built.ok()) objects = std::move(*built);
      });
  SLIM_RETURN_NOT_OK(status);
  Adopt(std::move(objects));
  return Status::OK();
}

void SlimPadDmi::Adopt(Objects objects) {
  pads_.swap(objects.pads);
  bundles_.swap(objects.bundles);
  scraps_.swap(objects.scraps);
  handles_.swap(objects.handles);
  instances_.ReserveIdsThrough(objects.last_instance);
  // A bare data file holds no model or schema triples; put them back as
  // construction does.
  if (!store_->GetOne(model_.ModelResource(), Vocab::kName)) {
    (void)model_.ToTriples(store_);
  }
  if (!store_->GetOne(schema_.SchemaResource(), Vocab::kName)) {
    (void)schema_.ToTriples(store_);
  }
}

Result<SlimPadDmi::Objects> SlimPadDmi::BuildObjects(
    const std::vector<std::string_view>& strings,
    const std::vector<trim::TripleStore::ImageStatement>& statements) const {
  using Statement = trim::TripleStore::ImageStatement;
  constexpr trim::ObjectKind kResource = trim::ObjectKind::kResource;
  const std::string types[4] = {TypeResource("SlimPad"),
                                TypeResource("Bundle"), TypeResource("Scrap"),
                                TypeResource("MarkHandle")};
  const std::string_view names[kKeyCount] = {
      "",
      kPadName, kRootBundle, kBundleName, kBundlePos, kBundleWidth,
      kBundleHeight, kBundleContent, kNestedBundle, kScrapName, kScrapPos,
      kScrapMark, kMarkId, kScrapAnnotation, kScrapLink,
      Vocab::kType,
      types[0], types[1], types[2], types[3]};
  // A string is compared with the names once, when it first shows up as a
  // property or a type.
  std::vector<Key> keys(strings.size(), Key::kUnread);
  auto key = [&](uint32_t id) {
    Key& k = keys[id];
    if (k == Key::kUnread) {
      k = Key::kOther;
      for (size_t i = 1; i < kKeyCount; ++i) {
        if (strings[id] == names[i]) {
          k = static_cast<Key>(i);
          break;
        }
      }
    }
    return k;
  };

  // One pass: count each subject's statements and find the typed ones.
  Objects out;
  std::vector<uint32_t> typed[4];
  std::vector<uint32_t> begin(strings.size() + 1, 0);
  for (const Statement& st : statements) {
    ++begin[st.subject + 1];
    if (key(st.property) == Key::kType) {
      const std::optional<uint64_t> n =
          instances_.IdNumber(strings[st.subject]);
      if (n) out.last_instance = std::max(out.last_instance, *n);
      const Key type = st.kind == kResource ? key(st.object) : Key::kOther;
      if (type >= Key::kSlimPadType && type <= Key::kMarkHandleType) {
        typed[static_cast<size_t>(type) - kFirstType].push_back(st.subject);
      }
    }
  }
  // A counting sort groups the statements by subject in image order:
  // subject s's are at[begin[s]] .. at[begin[s + 1] - 1].
  for (size_t s = 1; s < begin.size(); ++s) begin[s] += begin[s - 1];
  std::vector<uint32_t> at(statements.size());
  {
    std::vector<uint32_t> next(begin.begin(), begin.end() - 1);
    for (uint32_t i = 0; i < statements.size(); ++i) {
      at[next[statements[i].subject]++] = i;
    }
  }
  // Objects are made in id order, the order the maps keep.
  for (std::vector<uint32_t>& ids : typed) {
    std::sort(ids.begin(), ids.end(),
              [&](uint32_t a, uint32_t b) { return strings[a] < strings[b]; });
  }

  // Reads subject `s`'s statements: `first` gets each key's first one and
  // `each(key, statement)` sees them all, in order.
  const Statement* first[kKeyCount];
  auto read = [&](uint32_t s, auto&& each) {
    std::fill(std::begin(first), std::end(first), nullptr);
    for (uint32_t i = begin[s]; i < begin[s + 1]; ++i) {
      const Statement& st = statements[at[i]];
      const Key k = keys[st.property];
      const Statement*& f = first[static_cast<size_t>(k)];
      if (f == nullptr) f = &st;
      each(k, st);
    }
  };
  // The value of attribute `k` read by `read`: its first statement, which
  // must be a literal.
  auto literal = [&](std::string_view id, Key k,
                     std::string_view* value) -> Status {
    const Statement* st = first[static_cast<size_t>(k)];
    if (st == nullptr || st->kind == kResource) {
      return Status::NotFound("instance '" + std::string(id) +
                              "' has no literal value for '" +
                              std::string(names[static_cast<size_t>(k)]) +
                              "'");
    }
    *value = strings[st->object];
    return Status::OK();
  };
  auto text = [&](const Statement& st) {
    return std::string(strings[st.object]);
  };
  auto no_op = [](Key, const Statement&) {};

  for (uint32_t s : typed[0]) {
    auto pad = std::make_unique<SlimPad>();
    pad->id_ = strings[s];
    bool has_root = false;
    read(s, [&](Key k, const Statement& st) {
      if (k == Key::kRootBundle && st.kind == kResource && !has_root) {
        pad->root_bundle_ = text(st);
        has_root = true;
      }
    });
    std::string_view name;
    SLIM_RETURN_NOT_OK(literal(pad->id_, Key::kPadName, &name));
    pad->pad_name_ = name;
    out.pads.emplace_hint(out.pads.end(), strings[s], std::move(pad));
  }

  // Bundles by subject, and each (child, parent) nesting in build order.
  std::vector<Bundle*> bundle_at(strings.size(), nullptr);
  std::vector<std::pair<uint32_t, const Bundle*>> nestings;
  for (uint32_t s : typed[1]) {
    auto bundle = std::make_unique<Bundle>();
    bundle->id_ = strings[s];
    read(s, [&](Key k, const Statement& st) {
      if (st.kind != kResource) return;
      if (k == Key::kBundleContent) {
        bundle->scraps_.push_back(text(st));
      } else if (k == Key::kNestedBundle) {
        bundle->nested_bundles_.push_back(text(st));
        nestings.emplace_back(st.object, bundle.get());
      }
    });
    const std::string& id = bundle->id_;
    std::string_view name, pos, width, height;
    SLIM_RETURN_NOT_OK(literal(id, Key::kBundleName, &name));
    SLIM_RETURN_NOT_OK(literal(id, Key::kBundlePos, &pos));
    SLIM_ASSIGN_OR_RETURN(bundle->pos_, Coordinate::Parse(pos));
    SLIM_RETURN_NOT_OK(literal(id, Key::kBundleWidth, &width));
    SLIM_RETURN_NOT_OK(literal(id, Key::kBundleHeight, &height));
    if (!ParseDouble(width, &bundle->width_) ||
        !ParseDouble(height, &bundle->height_)) {
      return Status::ParseError("bundle '" + id + "': bad geometry");
    }
    bundle->name_ = name;
    bundle_at[s] = bundle.get();
    out.bundles.emplace_hint(out.bundles.end(), strings[s], std::move(bundle));
  }
  // A bundle nested under several takes the last parent in id order.
  for (const auto& [child, parent] : nestings) {
    if (Bundle* b = bundle_at[child]) b->parent_ = parent->id_;
  }

  for (uint32_t s : typed[2]) {
    auto scrap = std::make_unique<Scrap>();
    scrap->id_ = strings[s];
    read(s, [&](Key k, const Statement& st) {
      if (k == Key::kScrapAnnotation) {
        if (st.kind != kResource) scrap->annotations_.push_back(text(st));
      } else if (st.kind == kResource) {
        if (k == Key::kScrapMark) scrap->mark_handles_.push_back(text(st));
        if (k == Key::kScrapLink) scrap->linked_scraps_.push_back(text(st));
      }
    });
    std::string_view name, pos;
    SLIM_RETURN_NOT_OK(literal(scrap->id_, Key::kScrapName, &name));
    SLIM_RETURN_NOT_OK(literal(scrap->id_, Key::kScrapPos, &pos));
    SLIM_ASSIGN_OR_RETURN(scrap->pos_, Coordinate::Parse(pos));
    scrap->name_ = name;
    out.scraps.emplace_hint(out.scraps.end(), strings[s], std::move(scrap));
  }

  for (uint32_t s : typed[3]) {
    auto handle = std::make_unique<MarkHandle>();
    handle->id_ = strings[s];
    read(s, no_op);
    std::string_view mark_id;
    SLIM_RETURN_NOT_OK(literal(handle->id_, Key::kMarkId, &mark_id));
    handle->mark_id_ = mark_id;
    out.handles.emplace_hint(out.handles.end(), strings[s],
                             std::move(handle));
  }
  return out;
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
