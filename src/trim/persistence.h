#ifndef SLIM_TRIM_PERSISTENCE_H_
#define SLIM_TRIM_PERSISTENCE_H_

/// \file persistence.h
/// \brief XML persistence for TRIM (paper §4.4: "persist (through XML
/// files)").
///
/// The serialization is an RDF-flavored statement list:
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
/// Files are written and read as a stream through xml::Writer and
/// xml::Reader; no DOM is built either way. Saves are crash-safe and loads
/// are all-or-nothing.

#include <string>
#include <vector>

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
/// problem in document order is. The replacement is one ApplyBatch (one
/// epoch), so a concurrent reader sees the old contents or the loaded ones,
/// never a mix.
Status StoreFromXml(std::string_view xml_text, TripleStore* store);

/// Writes the store to a file, crash-safely: the XML is streamed to
/// `<path>.tmp` in chunks, fsynced, then renamed over `path`. On failure
/// the temp file is removed, an IoError returned and any old file is left
/// untouched.
Status SaveStore(const TripleStore& store, const std::string& path);

/// Loads a store from a file, replacing its contents (all or nothing, as
/// StoreFromXml): ReadStoreFile, then ReplaceContents.
Status LoadStore(const std::string& path, TripleStore* store);

/// The first half of LoadStore: reads and checks every statement of the
/// file at `path` into `adds` (add ops, in file order), touching no store.
/// Fails as LoadStore does for a file it cannot read or a text
/// StoreFromXml rejects.
Status ReadStoreFile(const std::string& path,
                     std::vector<TripleStore::WriteOp>* adds);

/// The second half of LoadStore: replaces the contents of `store` with
/// `adds`, statements ReadStoreFile or StoreFromXml checked (no empty
/// subject or property, no statement twice). One ApplyBatch under one
/// writer lock drops every live triple and adds these, so a concurrent
/// reader sees the old contents or the new ones, and a triple another
/// writer commits during the load is either dropped with the old contents
/// or added after the new ones.
Status ReplaceContents(std::vector<TripleStore::WriteOp> adds,
                       TripleStore* store);

}  // namespace slim::trim

#endif  // SLIM_TRIM_PERSISTENCE_H_
