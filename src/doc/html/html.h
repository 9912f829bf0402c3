#ifndef SLIM_DOC_HTML_HTML_H_
#define SLIM_DOC_HTML_HTML_H_

/// \file html.h
/// \brief Tag-soup-tolerant HTML parsing (the "Internet Explorer"
/// substitute's document model).
///
/// Real-world HTML (the paper demonstrates marks into web pages) is rarely
/// well-formed, so this parser is forgiving: case-insensitive tag names
/// (normalized to lowercase), void elements, unquoted and bare attributes,
/// implied end tags for <p>/<li>/<td>/<tr>/..., raw-text <script>/<style>,
/// unknown entities passed through literally, and auto-closing at EOF.
/// Elements nest at most xml::kMaxXmlDepth deep: past that, the deepest
/// open element is closed before the next one opens.
/// The result reuses the XML DOM, wrapped in a synthetic <html> root when
/// the input lacks one, so XmlPath addressing works unchanged.

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "doc/xml/dom.h"
#include "util/result.h"

namespace slim::doc::html {

/// Parses HTML text. Never fails on malformed markup; IoError-free input
/// always yields a document (worst case: one big text node).
std::unique_ptr<xml::Document> ParseHtml(std::string_view text);

/// Reads and parses an HTML file.
Result<std::unique_ptr<xml::Document>> ParseHtmlFile(const std::string& path);

/// First element with the given `id` attribute, or nullptr.
xml::Element* FindById(xml::Document* doc, std::string_view id);

/// First `<a>` whose `name` or `id` equals `anchor`, or nullptr.
xml::Element* FindAnchor(xml::Document* doc, std::string_view anchor);

/// All elements with the given tag name (lowercase), in document order.
std::vector<xml::Element*> FindByTag(xml::Document* doc,
                                     std::string_view tag);

/// The rendered text of a subtree: descendant text with <script>/<style>
/// contents dropped and whitespace runs collapsed.
std::string VisibleText(const xml::Element* element);

}  // namespace slim::doc::html

#endif  // SLIM_DOC_HTML_HTML_H_
