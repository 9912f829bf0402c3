#ifndef SLIM_DOC_XML_PARSER_H_
#define SLIM_DOC_XML_PARSER_H_

/// \file parser.h
/// \brief Well-formed-XML parser producing a DOM Document.
///
/// ParseXml builds the DOM from the tokens of xml::Reader (reader.h), the
/// one XML tokenizer, so it accepts exactly the Reader's grammar: elements,
/// attributes (single/double quoted), text, comments, CDATA sections, the
/// XML declaration and processing instructions (both skipped), DOCTYPE
/// (skipped), the five predefined entities and decimal/hex character
/// references. DTD-defined entities are not supported, and nesting deeper
/// than kMaxXmlDepth levels is rejected; both give a ParseError.

#include <memory>
#include <string_view>

#include "doc/xml/dom.h"
#include "util/result.h"

namespace slim::doc::xml {

/// \brief Parser options.
struct ParseOptions {
  /// Drop text nodes that contain only whitespace (typical for
  /// pretty-printed documents). Default on.
  bool strip_whitespace_text = true;
  /// Keep comment nodes in the DOM. Default off.
  bool keep_comments = false;
};

/// Parses XML text into a Document.
Result<std::unique_ptr<Document>> ParseXml(std::string_view text,
                                           const ParseOptions& options = {});

/// Reads and parses an XML file.
Result<std::unique_ptr<Document>> ParseXmlFile(const std::string& path,
                                               const ParseOptions& options = {});

}  // namespace slim::doc::xml

#endif  // SLIM_DOC_XML_PARSER_H_
