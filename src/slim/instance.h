#ifndef SLIM_SLIM_INSTANCE_H_
#define SLIM_SLIM_INSTANCE_H_

/// \file instance.h
/// \brief Instance-layer helpers: creating and reading typed data in TRIM.
///
/// Instances are resources typed (slim:type) by a schema element and
/// carrying connector-named properties. Crucially, the layer supports the
/// paper's "schema-later" / "information-first" entry (§3): instances may
/// be created with *free* type names before any schema declares them; a
/// schema can be induced afterwards (InduceSchema) and conformance checked
/// then (conformance.h).

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "slim/schema.h"
#include "trim/triple_store.h"
#include "util/id_generator.h"
#include "util/result.h"

namespace slim::store {

/// \brief Writer/reader for instance data in a triple store.
class InstanceGraph {
 public:
  /// `store` must outlive the graph. Instance ids are "inst:<n>".
  explicit InstanceGraph(trim::TripleStore* store)
      : store_(store), ids_("inst:") {}

  trim::TripleStore* store() { return store_; }

  /// Creates an instance typed by `type_resource` (a schema element
  /// resource like "schema:rounds/PatientBundle", or a free name for
  /// schema-later entry). Returns the new instance id.
  Result<std::string> Create(const std::string& type_resource);

  /// Creates with a caller-chosen id (must be unused).
  Status CreateWithId(const std::string& id, const std::string& type_resource);

  /// Type resource of an instance.
  Result<std::string> TypeOf(const std::string& id) const;

  /// Deletes the instance: all its triples and all triples pointing at it.
  /// Returns how many triples were removed.
  size_t Delete(const std::string& id);

  /// \name Properties.
  /// @{
  /// Adds a literal-valued property (multi-valued allowed). AlreadyExists
  /// when the instance already holds this value for it.
  Status AddValue(const std::string& id, const std::string& property,
                  const std::string& literal);
  /// Replaces the literal value(s) of a property with one value.
  Status SetValue(const std::string& id, const std::string& property,
                  const std::string& literal);
  /// First literal value, if any.
  Result<std::string> GetValue(const std::string& id,
                               const std::string& property) const;
  /// Adds a resource-valued link to another instance.
  Status Connect(const std::string& id, const std::string& property,
                 const std::string& target_id);
  /// Removes one resource-valued link.
  Status Disconnect(const std::string& id, const std::string& property,
                    const std::string& target_id);
  /// All linked instance ids for a property, in insertion order.
  std::vector<std::string> GetConnected(const std::string& id,
                                        const std::string& property) const;
  /// @}

  /// All instances of a type, in id order.
  std::vector<std::string> InstancesOf(const std::string& type_resource) const;

  /// All instance ids (anything with a slim:type triple and an "inst:" id).
  std::vector<std::string> AllInstances() const;

  /// True iff the id has a type triple.
  bool Exists(const std::string& id) const;

  /// The n of an instance id "inst:<n>"; nullopt for any other id.
  std::optional<uint64_t> IdNumber(std::string_view id) const {
    return ids_.NumberOf(id);
  }
  /// Makes Create mint ids past "inst:<n>" (after a load brings them in).
  void ReserveIdsThrough(uint64_t n) { ids_.ReserveAtLeast(n); }

 private:
  trim::TripleStore* store_;
  IdGenerator ids_;
};

/// \brief The generic "anything goes" model used for schema-later entry:
/// construct `Entity`, literal construct `String`, connectors
/// `attribute` (Entity -> String, 0..*) and `link` (Entity -> Entity,
/// 0..*).
ModelDef BuildGenericModel();

/// \brief Induces a schema from instance data (the schema-later flow).
///
/// Each distinct instance type becomes a schema element conforming to
/// `Entity` of BuildGenericModel(); each observed property becomes a schema
/// connector instantiating `attribute` (literal-valued) or `link`
/// (resource-valued), with cardinalities set to the observed [min, max]
/// occurrence counts across instances of the type. Properties used with
/// both literal and resource objects are induced as links.
Result<SchemaDef> InduceSchema(const trim::TripleStore& store,
                               const std::string& schema_name);

}  // namespace slim::store

#endif  // SLIM_SLIM_INSTANCE_H_
