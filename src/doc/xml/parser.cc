#include "doc/xml/parser.h"

#include "doc/xml/reader.h"
#include "util/file.h"
#include "util/strings.h"

namespace slim::doc::xml {

Result<std::unique_ptr<Document>> ParseXml(std::string_view text,
                                           const ParseOptions& options) {
  Reader reader(text, options.keep_comments);
  std::unique_ptr<Element> root;
  Element* current = nullptr;  // innermost open element
  while (true) {
    SLIM_RETURN_NOT_OK(reader.Next());
    switch (reader.kind()) {
      case TokenKind::kStartTag: {
        auto elem = std::make_unique<Element>(std::string(reader.name()));
        for (const AttributeView& a : reader.attributes()) {
          elem->SetAttribute(a.name, std::string(a.value));
        }
        if (current == nullptr) {
          root = std::move(elem);
          current = root.get();
        } else {
          current = static_cast<Element*>(current->AddChild(std::move(elem)));
        }
        break;
      }
      case TokenKind::kEndTag:
        current = current->parent();
        break;
      case TokenKind::kText:
        if (!options.strip_whitespace_text || !Trim(reader.text()).empty()) {
          current->AddText(std::string(reader.text()));
        }
        break;
      case TokenKind::kCData:
        current->AddCData(std::string(reader.text()));
        break;
      case TokenKind::kComment:
        current->AddComment(std::string(reader.text()));
        break;
      case TokenKind::kEnd: {
        auto doc = std::make_unique<Document>();
        doc->set_root(std::move(root));
        return doc;
      }
    }
  }
}

Result<std::unique_ptr<Document>> ParseXmlFile(const std::string& path,
                                               const ParseOptions& options) {
  SLIM_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return ParseXml(text, options);
}

}  // namespace slim::doc::xml
