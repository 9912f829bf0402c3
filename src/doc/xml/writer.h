#ifndef SLIM_DOC_XML_WRITER_H_
#define SLIM_DOC_XML_WRITER_H_

/// \file writer.h
/// \brief XML serialization (escaping + optional pretty printing).
///
/// xml::Writer is the one place the layout rules live: WriteXml walks a DOM
/// through it, and TRIM persistence and the mark manager stream their files
/// through it without building a DOM.

#include <string>
#include <string_view>
#include <vector>

#include "doc/xml/dom.h"
#include "util/status.h"

namespace slim::doc::xml {

/// \brief Serialization options.
struct WriteOptions {
  /// Indent nested elements; text-only elements stay on one line.
  bool pretty = true;
  /// Indent width when pretty printing.
  int indent = 2;
  /// Emit the `<?xml version="1.0" encoding="UTF-8"?>` declaration.
  bool declaration = true;
};

/// Escapes the five XML special characters for text content.
std::string EscapeText(std::string_view s);
/// Appends `s` to `*out`, escaped as EscapeText does.
void EscapeText(std::string_view s, std::string* out);

/// Escapes text for use inside a double-quoted attribute value.
std::string EscapeAttribute(std::string_view s);
/// Appends `s` to `*out`, escaped as EscapeAttribute does.
void EscapeAttribute(std::string_view s, std::string* out);

/// \brief Streaming XML emitter. Appends to a caller's string; the caller
/// may hand off and clear that string between calls (e.g. to write a file in
/// chunks).
///
/// Layout (pretty mode): each element starts on its own line, indented by
/// its depth; an element opened with `block` set puts each child on its own
/// indented line and its end tag on a line of its own, otherwise its content
/// stays on the start tag's line; an element with no content closes with
/// `/>`.
class Writer {
 public:
  explicit Writer(std::string* out, const WriteOptions& options = {});

  /// Appends the `<?xml version="1.0" encoding="UTF-8"?>` declaration.
  void Declaration();
  /// Opens an element. `block` says whether its content includes child
  /// elements. `name` must stay valid until the matching End().
  void Start(std::string_view name, bool block);
  /// Adds an attribute to the element just opened, before any content.
  void Attribute(std::string_view name, std::string_view value);
  /// Appends escaped text to the innermost open element.
  void Text(std::string_view text);
  /// Appends a CDATA section to the innermost open element.
  void CData(std::string_view text);
  /// Appends a comment to the innermost open element.
  void Comment(std::string_view text);
  /// Closes the innermost open element.
  void End();

 private:
  struct Frame {
    std::string_view name;
    bool block;
    bool has_content;
  };

  void Indent(size_t depth);
  // Ends the innermost start tag (`>`) before its first content.
  void BeginContent();
  // Lays out one text/CDATA/comment child around `append`.
  template <typename F>
  void Child(F append);

  std::string* out_;
  WriteOptions options_;
  std::vector<Frame> open_;
};

/// Serializes a document to XML text.
std::string WriteXml(const Document& doc, const WriteOptions& options = {});

/// Serializes a single element subtree.
std::string WriteXml(const Element& elem, const WriteOptions& options = {});

/// Writes a document to a file.
Status WriteXmlFile(const Document& doc, const std::string& path,
                    const WriteOptions& options = {});

}  // namespace slim::doc::xml

#endif  // SLIM_DOC_XML_WRITER_H_
