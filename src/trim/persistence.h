#ifndef SLIM_TRIM_PERSISTENCE_H_
#define SLIM_TRIM_PERSISTENCE_H_

/// \file persistence.h
/// \brief Store files for TRIM (paper §4.4: "persist (through XML
/// files)"): a binary pad file for saves and loads, and XML for
/// interchange and export.
///
/// SaveStore writes the binary form straight from the store's key table:
///
///   magic "\x89SLIMPAD" | version u32 | checksum u64 of what follows |
///   string count u32 | (length u32, bytes) per string |
///   record count u32 | (subject u32, property u32, object u32, kind u8)
///   per record, in ForEach order
///
/// Integers are little-endian; each distinct string is written once and
/// records name strings by position. The checksum hashes the body word by
/// word with steps that are bijections, so any single-byte change shows.
///
/// The XML form is an RDF-flavored statement list, written and read as a
/// stream through xml::Writer and xml::Reader:
///
///   <trim:store xmlns:trim="http://slim.ogi.edu/trim">
///     <trim:statement subject="bundle1" property="bundleName">
///       <trim:literal>John Smith</trim:literal>
///     </trim:statement>
///     <trim:statement subject="bundle1" property="bundleContent">
///       <trim:resource>scrap4</trim:resource>
///     </trim:statement>
///   </trim:store>
///
/// Every load decodes the whole file into one checked TripleStore::Image
/// and touches no store until it has; then TripleStore::InstallImage
/// replaces the contents as one epoch. Loads tell the forms apart by the
/// magic, so XML files still load. Saves are crash-safe and loads are all
/// or nothing.

#include <string>
#include <string_view>

#include "trim/triple_store.h"
#include "util/result.h"

namespace slim::trim {

/// Serializes every triple in the store to XML text.
std::string StoreToXml(const TripleStore& store);

/// Parses XML text produced by StoreToXml and replaces the contents of
/// `store` with its statements. All or nothing: the whole text is checked
/// first (syntax, structure, empty subjects/properties, statements repeated
/// in the file), and on any error the store is unchanged. A syntax error
/// anywhere is reported before a structural one; otherwise the first
/// problem in document order is. The replacement is one InstallImage (one
/// epoch), so a concurrent reader sees the old contents or the loaded ones,
/// never a mix.
Status StoreFromXml(std::string_view xml_text, TripleStore* store);

/// The store's live statements in the binary form SaveStore writes.
std::string StoreToBinary(const TripleStore& store);

/// Decodes and checks a whole store file, binary or XML as its first bytes
/// say, into `image`, which must be empty, touching no store. InvalidArgument
/// for a null or non-empty image; ParseError for a binary file that
/// is cut short, fails its checksum, names a string past its table, repeats
/// a string or holds an unknown object kind; the errors StoreFromXml gives
/// for XML; and for both, InvalidArgument for an empty subject or property
/// and AlreadyExists for a repeated statement.
Status DecodeStore(std::string bytes, TripleStore::Image* image);

/// Writes the store to a file in the binary form, crash-safely: the bytes
/// go to `<path>.tmp`, which is fsynced and then renamed over `path`. On
/// failure the temp file is removed, an IoError returned and any old file
/// is left untouched.
Status SaveStore(const TripleStore& store, const std::string& path);

/// Loads a store from a file, binary or XML, replacing its contents (all
/// or nothing): ReadStoreFile, then TripleStore::InstallImage.
Status LoadStore(const std::string& path, TripleStore* store);

/// The first half of LoadStore: reads the file at `path` and decodes it
/// into the empty `image` (DecodeStore), touching no store. IoError for a
/// file it cannot read.
Status ReadStoreFile(const std::string& path, TripleStore::Image* image);

}  // namespace slim::trim

#endif  // SLIM_TRIM_PERSISTENCE_H_
