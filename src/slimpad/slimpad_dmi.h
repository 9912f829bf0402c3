#ifndef SLIM_SLIMPAD_SLIMPAD_DMI_H_
#define SLIM_SLIMPAD_SLIMPAD_DMI_H_

/// \file slimpad_dmi.h
/// \brief SLIMPad's application-specific DMI (paper §4.4, Fig. 10).
///
/// "When SLIMPad needs to create a Bundle, it calls the Create_Bundle
/// operation in the DMI, which creates a Bundle object for SLIMPad plus the
/// triples to represent a new Bundle. By restricting manipulation of data
/// through the DMI, we store the triples without intervention from the
/// superimposed application."
///
/// Method names follow Fig. 10 (Create_Bundle, Update_padName, ...) rather
/// than house style, to make the correspondence with the paper exact. Every
/// mutator updates the native object graph *and* the triple store; `load`
/// builds the objects from the triples a pad file holds, so the two
/// representations are provably interconvertible (tests assert round
/// trips).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "slim/instance.h"
#include "slim/model.h"
#include "slim/schema.h"
#include "slimpad/bundle_scrap.h"
#include "trim/triple_store.h"
#include "util/result.h"

namespace slim::pad {

/// \brief The SLIMPad DMI over TRIM.
class SlimPadDmi {
 public:
  /// `store` must outlive the DMI. The Bundle-Scrap model and its identity
  /// schema ("slimpad") are registered into the store on construction.
  explicit SlimPadDmi(trim::TripleStore* store);

  SlimPadDmi(const SlimPadDmi&) = delete;
  SlimPadDmi& operator=(const SlimPadDmi&) = delete;

  trim::TripleStore* triple_store() { return store_; }
  const store::ModelDef& model() const { return model_; }
  const store::SchemaDef& schema() const { return schema_; }

  /// \name Create_* (paper Fig. 10).
  /// @{
  Result<const SlimPad*> Create_SlimPad(const std::string& pad_name);
  Result<const Bundle*> Create_Bundle(const std::string& bundle_name,
                                      Coordinate pos, double width,
                                      double height);
  Result<const Scrap*> Create_Scrap(const std::string& scrap_name,
                                    Coordinate pos);
  Result<const MarkHandle*> Create_MarkHandle(const std::string& mark_id);
  /// @}

  /// \name Update_* (paper Fig. 10).
  /// @{
  Status Update_padName(const std::string& pad_id,
                        const std::string& new_name);
  Status Update_rootBundle(const std::string& pad_id,
                           const std::string& bundle_id);
  Status Update_bundleName(const std::string& bundle_id,
                           const std::string& new_name);
  Status Update_bundlePos(const std::string& bundle_id, Coordinate pos);
  Status Update_bundleSize(const std::string& bundle_id, double width,
                           double height);
  Status Update_scrapName(const std::string& scrap_id,
                          const std::string& new_name);
  Status Update_scrapPos(const std::string& scrap_id, Coordinate pos);
  /// @}

  /// \name Structure edits.
  /// @{
  /// Nests `child` inside `parent`; rejects cycles and double-parenting.
  Status AddNestedBundle(const std::string& parent_id,
                         const std::string& child_id);
  /// Un-nests `child` from `parent`.
  Status RemoveNestedBundle(const std::string& parent_id,
                            const std::string& child_id);
  /// Places a scrap into a bundle (a scrap lives in at most one bundle).
  Status AddScrapToBundle(const std::string& bundle_id,
                          const std::string& scrap_id);
  Status RemoveScrapFromBundle(const std::string& bundle_id,
                               const std::string& scrap_id);
  /// Attaches a MarkHandle to a scrap.
  Status SetScrapMark(const std::string& scrap_id,
                      const std::string& handle_id);
  /// @}

  /// \name §6 extensions.
  /// @{
  Status AddScrapAnnotation(const std::string& scrap_id,
                            const std::string& text);
  Status LinkScraps(const std::string& from_scrap_id,
                    const std::string& to_scrap_id);
  Status UnlinkScraps(const std::string& from_scrap_id,
                      const std::string& to_scrap_id);
  /// @}

  /// \name Delete_* (paper Fig. 10). Deleting a bundle removes its scraps
  /// and nested bundles recursively; deleting a scrap removes its handles.
  /// @{
  Status Delete_SlimPad(const std::string& pad_id);
  Status Delete_Bundle(const std::string& bundle_id);
  Status Delete_Scrap(const std::string& scrap_id);
  Status Delete_MarkHandle(const std::string& handle_id);
  /// @}

  /// \name Lookup (read-only interfaces, per Fig. 10).
  /// @{
  Result<const SlimPad*> GetPad(const std::string& pad_id) const;
  Result<const Bundle*> GetBundle(const std::string& bundle_id) const;
  Result<const Scrap*> GetScrap(const std::string& scrap_id) const;
  Result<const MarkHandle*> GetMarkHandle(const std::string& handle_id) const;
  std::vector<const SlimPad*> Pads() const;
  std::vector<const Bundle*> Bundles() const;
  std::vector<const Scrap*> Scraps() const;
  size_t mark_handle_count() const { return handles_.size(); }
  /// @}

  /// \name Persistence (paper Fig. 10: save(fileName) / load(fileName)).
  /// The file holds the triple store in its binary pad form; load also
  /// reads XML store files (trim/persistence.h).
  /// @{
  Status save(const std::string& file_name) const;
  /// Replaces the store's contents and the native objects with the file's,
  /// all or nothing: the file is decoded into an image, the objects are
  /// built from it (BuildObjects), and only then is the image installed
  /// and the objects adopted (Install). On any error the store, the
  /// objects and the id generator are as they were.
  Status load(const std::string& file_name);
  /// @}

  /// \brief The native objects of a pad, by id, as the DMI holds them.
  struct Objects {
    std::map<std::string, std::unique_ptr<SlimPad>> pads;
    std::map<std::string, std::unique_ptr<Bundle>> bundles;
    std::map<std::string, std::unique_ptr<Scrap>> scraps;
    std::map<std::string, std::unique_ptr<MarkHandle>> handles;
    /// The largest n of an "inst:<n>" subject with a type; 0 for none.
    uint64_t last_instance = 0;
  };

  /// Makes every pad, bundle, scrap and mark handle that an image's
  /// `strings` and `statements` (trim::TripleStore::Image) hold, in one
  /// pass over them, touching neither the store nor this DMI's objects.
  /// An instance's first statement of an attribute gives its value, and it
  /// must be a literal: NotFound ("instance '<id>' has no literal value for
  /// '<property>'") otherwise; ParseError for a malformed coordinate or
  /// bundle size. The first error by type (pads, bundles, scraps, handles),
  /// then by id, is returned.
  Result<Objects> BuildObjects(
      const std::vector<std::string_view>& strings,
      const std::vector<trim::TripleStore::ImageStatement>& statements) const;

  /// Installs `image` into the store (trim::TripleStore::InstallImage) and
  /// then adopts `objects`, which BuildObjects made from it. On an install
  /// error nothing changes.
  Status Install(const trim::TripleStore::Image& image, Objects objects);

  /// Rebuilds the native objects from whatever triples are currently in the
  /// store (for tests and tools that write triples directly): the store's
  /// image (trim::TripleStore::ExportImage) through BuildObjects. On an
  /// error the objects stay as they were.
  Status RebuildFromTriples();

  /// Counts of native objects vs triples (space-experiment probes).
  size_t NativeObjectCount() const;
  size_t ApproximateNativeBytes() const;

 private:
  std::string TypeResource(const std::string& element) const {
    return schema_.ElementResource(element);
  }
  /// True iff `maybe_descendant` is (or is nested under) `ancestor`.
  bool IsNestedUnder(const std::string& maybe_descendant,
                     const std::string& ancestor) const;
  /// Replaces the native objects with `objects`, reserves instance ids past
  /// theirs, and writes the model and schema triples the store lacks.
  void Adopt(Objects objects);

  trim::TripleStore* store_;
  store::ModelDef model_;
  store::SchemaDef schema_;
  store::InstanceGraph instances_;

  std::map<std::string, std::unique_ptr<SlimPad>> pads_;
  std::map<std::string, std::unique_ptr<Bundle>> bundles_;
  std::map<std::string, std::unique_ptr<Scrap>> scraps_;
  std::map<std::string, std::unique_ptr<MarkHandle>> handles_;
};

}  // namespace slim::pad

#endif  // SLIM_SLIMPAD_SLIMPAD_DMI_H_
