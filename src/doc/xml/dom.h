#ifndef SLIM_DOC_XML_DOM_H_
#define SLIM_DOC_XML_DOM_H_

/// \file dom.h
/// \brief In-memory XML document model.
///
/// The XML substrate backs the paper's XML base application: lab reports are
/// XML documents, and an XmlMark addresses an element via an `xmlPath`
/// (paper Fig. 8). The DOM keeps parent links so that any element can report
/// its own canonical path (the inverse of mark resolution).

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace slim::doc::xml {

class Element;

/// \brief Kinds of DOM nodes.
enum class NodeKind { kElement, kText, kComment, kCData };

/// \brief Base class of all DOM nodes.
class Node {
 public:
  virtual ~Node() = default;
  NodeKind kind() const { return kind_; }
  /// The containing element; null for the document root.
  Element* parent() const { return parent_; }

 protected:
  explicit Node(NodeKind kind) : kind_(kind) {}

 private:
  friend class Element;
  NodeKind kind_;
  Element* parent_ = nullptr;
};

/// \brief Character data (text, comment, or CDATA payload).
class CharData : public Node {
 public:
  CharData(NodeKind kind, std::string text)
      : Node(kind), text_(std::move(text)) {}
  const std::string& text() const { return text_; }
  void set_text(std::string text) { text_ = std::move(text); }

 private:
  std::string text_;
};

/// \brief One attribute; order is preserved as written.
struct Attribute {
  std::string name;
  std::string value;
};

/// \brief An element: name, ordered attributes, ordered children.
class Element : public Node {
 public:
  explicit Element(std::string name)
      : Node(NodeKind::kElement), name_(std::move(name)) {}
  /// Frees the subtree with an explicit stack, so any depth fits the call
  /// stack.
  ~Element() override;

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// \name Attributes.
  /// @{
  const std::vector<Attribute>& attributes() const { return attrs_; }
  /// Value of the attribute, or nullptr if absent.
  const std::string* FindAttribute(std::string_view name) const;
  /// Sets (or overwrites) an attribute.
  void SetAttribute(std::string_view name, std::string value);
  /// Removes an attribute; false if it was absent.
  bool RemoveAttribute(std::string_view name);
  /// @}

  /// \name Children.
  /// @{
  const std::vector<std::unique_ptr<Node>>& children() const {
    return children_;
  }
  /// Appends and returns a new child element.
  Element* AddElement(std::string name);
  /// Appends a text node.
  CharData* AddText(std::string text);
  /// Appends a comment node.
  CharData* AddComment(std::string text);
  /// Appends a CDATA node.
  CharData* AddCData(std::string text);
  /// Appends an arbitrary pre-built node (takes ownership).
  Node* AddChild(std::unique_ptr<Node> child);
  /// Removes the child at `index`; OutOfRange if invalid.
  Status RemoveChild(size_t index);
  /// @}

  /// Child elements only, in order.
  std::vector<Element*> ChildElements() const;
  /// Child elements with the given name, in order.
  std::vector<Element*> ChildElements(std::string_view name) const;
  /// First child element with the given name, or nullptr.
  Element* FirstChild(std::string_view name) const;

  /// Concatenation of all descendant text/CDATA (document order).
  std::string InnerText() const;

  /// 1-based position of this element among same-named siblings (1 when it
  /// is the only one or has no parent).
  int OrdinalAmongSiblings() const;

  /// Visits this element and all descendant elements in document order,
  /// with an explicit stack, so any depth fits the call stack.
  template <typename F>
  void Visit(F&& f) {
    std::vector<Element*> pending = {this};
    while (!pending.empty()) {
      Element* e = pending.back();
      pending.pop_back();
      f(e);
      for (auto c = e->children_.rbegin(); c != e->children_.rend(); ++c) {
        if ((*c)->kind() == NodeKind::kElement) {
          pending.push_back(static_cast<Element*>(c->get()));
        }
      }
    }
  }

 private:
  std::string name_;
  std::vector<Attribute> attrs_;
  std::vector<std::unique_ptr<Node>> children_;
};

/// \brief A parsed document: the root element plus decl bookkeeping.
class Document {
 public:
  Document() = default;
  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;

  /// Creates a fresh document with the given root element name.
  static std::unique_ptr<Document> Create(std::string root_name);

  Element* root() { return root_.get(); }
  const Element* root() const { return root_.get(); }
  void set_root(std::unique_ptr<Element> root) { root_ = std::move(root); }

  /// Total number of elements (root included).
  size_t ElementCount() const;

 private:
  std::unique_ptr<Element> root_;
};

}  // namespace slim::doc::xml

#endif  // SLIM_DOC_XML_DOM_H_
