#ifndef SLIM_MARK_MARK_MANAGER_H_
#define SLIM_MARK_MARK_MANAGER_H_

/// \file mark_manager.h
/// \brief The Mark Manager (paper §4.2, Fig. 7).
///
/// "Mark management hides the details of the different kinds of base-layer
/// information and base-layer applications from the superimposed
/// application. From the superimposed application's viewpoint, a base
/// information element is addressed by a mark, regardless of its type."
///
/// The manager owns the marks, routes creation and resolution to the right
/// mark module, supports alternative resolvers per type (the Monikers
/// contrast of §5), and persists marks through XML.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mark/mark_module.h"
#include "util/id_generator.h"
#include "util/result.h"

namespace slim {
class FileReplacer;
}  // namespace slim

namespace slim::mark {

/// \brief Owns marks; routes module operations by mark type.
class MarkManager {
 public:
  MarkManager() : ids_("mark") {}
  MarkManager(const MarkManager&) = delete;
  MarkManager& operator=(const MarkManager&) = delete;

  /// Registers a module under (mark_type, resolver_name). The module with
  /// resolver "context" is the type's default (used for creation and
  /// loading). The manager does not take ownership.
  Status RegisterModule(MarkModule* module);

  /// Mark types with a registered default module.
  std::vector<std::string> SupportedTypes() const;

  /// Creates a mark from the current selection of `mark_type`'s base
  /// application and takes ownership. Returns the mark id — the value a
  /// MarkHandle stores.
  Result<std::string> CreateMarkFromSelection(const std::string& mark_type);

  /// Adopts an externally constructed mark (e.g. built programmatically by
  /// a workload generator). Its id must be unused.
  Status AdoptMark(std::unique_ptr<Mark> mark);

  /// Fresh unique mark id (for building marks to adopt).
  std::string NextMarkId() { return ids_.Next(); }

  /// Looks up a mark by id.
  Result<const Mark*> GetMark(const std::string& mark_id) const;

  /// Removes a mark.
  Status RemoveMark(const std::string& mark_id);

  /// Resolves the mark with the named resolver ("context" drives the base
  /// application to the element and highlights it).
  Status ResolveMark(const std::string& mark_id,
                     const std::string& resolver = "context");

  /// §6 extension behavior: content of the marked element, no navigation.
  Result<std::string> ExtractContent(const std::string& mark_id);

  /// Number of marks held.
  size_t size() const { return marks_.size(); }

  /// All mark ids, in id order.
  std::vector<std::string> MarkIds() const;

  /// \name Persistence (XML, like the rest of the superimposed layer).
  /// The format is `<marks>` holding one `<mark id= type=>` per mark, with
  /// `<field name= value=/>` children and an optional `<excerpt>`. Files are
  /// written and read as a stream through xml::Writer and xml::Reader; no
  /// DOM is built.
  /// @{
  std::string ToXml() const;
  /// Adds the marks of `xml_text`, all or nothing: every mark is read and
  /// checked first (syntax, structure, registered type, FromFields, ids
  /// repeated in the text or already held), and on any error no mark is
  /// adopted. A syntax error anywhere is reported before other errors;
  /// otherwise the first problem in document order is.
  Status FromXml(std::string_view xml_text);
  /// Writes ToXml() crash-safely: to `<path>.tmp`, fsynced, then renamed
  /// over `path`. On failure the old file is untouched.
  Status SaveToFile(const std::string& path) const;
  /// Appends ToXml() to `file` in chunks, leaving the commit to the caller
  /// (a save that replaces several files as one).
  void WriteTo(FileReplacer* file) const;
  /// Reads a file and adds its marks as FromXml does: DecodeFile, then
  /// Adopt.
  Status LoadFromFile(const std::string& path);

  /// Marks read and checked but held by no manager yet.
  using DecodedMarks = std::vector<std::unique_ptr<Mark>>;
  /// The first half of LoadFromFile: reads the file and checks every mark
  /// as FromXml does, adopting none. IoError for a file it cannot read.
  Result<DecodedMarks> DecodeFile(const std::string& path) const;
  /// The second half: holds `marks`, which DecodeFile returned. Call it
  /// before anything else changes the manager, so their ids are still
  /// free; then it cannot fail.
  void Adopt(DecodedMarks marks);
  /// @}

 private:
  /// AdoptMark's checks: a non-empty id that is not held yet.
  Status CheckAdoptable(const Mark& mark) const;
  /// FromXml's reading and checking, adopting none.
  Result<DecodedMarks> Decode(std::string_view xml_text) const;
  Result<MarkModule*> FindModule(std::string_view mark_type,
                                 std::string_view resolver) const;

  std::map<std::pair<std::string, std::string>, MarkModule*> modules_;
  std::map<std::string, std::unique_ptr<Mark>> marks_;
  IdGenerator ids_;
};

}  // namespace slim::mark

#endif  // SLIM_MARK_MARK_MANAGER_H_
