#ifndef SLIM_DOC_XML_READER_H_
#define SLIM_DOC_XML_READER_H_

/// \file reader.h
/// \brief The XML tokenizer: a pull reader over well-formed XML text.
///
/// Reader is the one XML tokenizer in the tree. ParseXml builds its DOM from
/// Reader tokens, and TRIM persistence and the mark manager load their files
/// straight from them without building a DOM. It keeps an explicit stack of
/// open element names instead of recursing, and rejects input nested more
/// than kMaxXmlDepth elements deep, so hostile input cannot exhaust the call
/// stack.
///
/// Grammar: elements, attributes (single or double quoted), text, comments,
/// CDATA sections, the XML declaration and processing instructions (both
/// skipped), DOCTYPE (skipped), the five predefined entities and decimal/hex
/// character references. DTD-defined entities are a ParseError, as are
/// duplicate attributes, mismatched end tags and content after the root
/// element. Errors read "XML <line>:<col>: <what>".

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace slim::doc::xml {

/// Deepest element nesting the reader accepts (the root is level 1). Every
/// file the system writes is a handful of levels deep.
inline constexpr size_t kMaxXmlDepth = 1000;

/// \brief What Reader::Next() stopped at.
enum class TokenKind {
  kStartTag,  ///< name() and attributes() are set.
  kEndTag,    ///< name() is set. A self-closing tag yields a start and an end.
  kText,      ///< text() is the run with entities decoded.
  kCData,     ///< text() is the CDATA payload.
  kComment,   ///< text() is the comment body (only with keep_comments).
  kEnd,       ///< The document is complete; Next() keeps returning kEnd.
};

/// \brief One attribute of the current start tag.
struct AttributeView {
  std::string_view name;
  std::string_view value;  ///< Entities decoded.
};

/// \brief Pull tokenizer. Views returned by name(), attributes() and text()
/// point into the input or into the reader, and stay valid until the next
/// call to Next(); the input must outlive the reader.
class Reader {
 public:
  /// `keep_comments` reports comments inside the root element as kComment
  /// tokens; otherwise they are skipped like those outside it.
  explicit Reader(std::string_view text, bool keep_comments = false);
  // name(), attributes() and text() may point into the reader itself.
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  /// Advances to the next token. A ParseError is sticky: every later call
  /// returns it again.
  Status Next();

  TokenKind kind() const { return kind_; }
  /// Element name of a start or end tag.
  std::string_view name() const { return name_; }
  /// Attributes of a start tag, in document order.
  const std::vector<AttributeView>& attributes() const { return attrs_; }
  /// Value of the named attribute of the current start tag, if present.
  std::optional<std::string_view> FindAttribute(std::string_view name) const;
  /// Payload of a text, CDATA or comment token.
  std::string_view text() const { return text_; }
  /// Number of elements enclosing the token: 0 for the root's start and end
  /// tags, 1 for its children and for text directly inside it.
  size_t depth() const { return depth_; }

 private:
  enum class State { kProlog, kContent, kEpilogue, kDone };

  Status Error(const std::string& what);
  bool Lookahead(std::string_view s) const;
  Status Expect(std::string_view s);
  void SkipSpace();
  Status SkipUntil(std::string_view terminator);
  Status SkipProlog();
  Status ParseName(std::string_view* name);
  // Appends `raw` to buf_ with entity and character references decoded.
  Status Decode(std::string_view raw);
  Status StartTag();
  Status EndTag();
  Status Content();
  Status Epilogue();

  std::string_view src_;
  size_t pos_ = 0;
  bool keep_comments_;
  State state_ = State::kProlog;
  std::vector<std::string_view> open_;  ///< Names of the open elements.
  bool pending_end_ = false;  ///< The last start tag was self-closing.
  Status error_;

  TokenKind kind_ = TokenKind::kEnd;
  std::string_view name_;
  std::vector<AttributeView> attrs_;
  std::string_view text_;
  size_t depth_ = 0;
  std::string buf_;  ///< Decoded text and attribute values of this token.
  /// (attribute index, offset into buf_) of each decoded attribute value,
  /// in buf_ order; a value ends where the next one begins.
  std::vector<std::pair<size_t, size_t>> decoded_;
};

}  // namespace slim::doc::xml

#endif  // SLIM_DOC_XML_READER_H_
