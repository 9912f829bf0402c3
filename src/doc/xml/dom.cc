#include "doc/xml/dom.h"

namespace slim::doc::xml {

Element::~Element() {
  // Each element's children move to `pending` before it dies, so no
  // destructor run from here has children of its own to free.
  std::vector<std::unique_ptr<Node>> pending = std::move(children_);
  while (!pending.empty()) {
    std::unique_ptr<Node> node = std::move(pending.back());
    pending.pop_back();
    if (node->kind() == NodeKind::kElement) {
      auto& children = static_cast<Element*>(node.get())->children_;
      for (auto& c : children) pending.push_back(std::move(c));
      children.clear();
    }
  }
}

const std::string* Element::FindAttribute(std::string_view name) const {
  for (const Attribute& a : attrs_) {
    if (a.name == name) return &a.value;
  }
  return nullptr;
}

void Element::SetAttribute(std::string_view name, std::string value) {
  for (Attribute& a : attrs_) {
    if (a.name == name) {
      a.value = std::move(value);
      return;
    }
  }
  attrs_.push_back({std::string(name), std::move(value)});
}

bool Element::RemoveAttribute(std::string_view name) {
  for (auto it = attrs_.begin(); it != attrs_.end(); ++it) {
    if (it->name == name) {
      attrs_.erase(it);
      return true;
    }
  }
  return false;
}

Element* Element::AddElement(std::string name) {
  auto child = std::make_unique<Element>(std::move(name));
  Element* raw = child.get();
  AddChild(std::move(child));
  return raw;
}

CharData* Element::AddText(std::string text) {
  auto child = std::make_unique<CharData>(NodeKind::kText, std::move(text));
  CharData* raw = child.get();
  AddChild(std::move(child));
  return raw;
}

CharData* Element::AddComment(std::string text) {
  auto child = std::make_unique<CharData>(NodeKind::kComment, std::move(text));
  CharData* raw = child.get();
  AddChild(std::move(child));
  return raw;
}

CharData* Element::AddCData(std::string text) {
  auto child = std::make_unique<CharData>(NodeKind::kCData, std::move(text));
  CharData* raw = child.get();
  AddChild(std::move(child));
  return raw;
}

Node* Element::AddChild(std::unique_ptr<Node> child) {
  child->parent_ = this;
  children_.push_back(std::move(child));
  return children_.back().get();
}

Status Element::RemoveChild(size_t index) {
  if (index >= children_.size()) {
    return Status::OutOfRange("child index " + std::to_string(index) +
                              " out of range (" +
                              std::to_string(children_.size()) + " children)");
  }
  children_.erase(children_.begin() + static_cast<ptrdiff_t>(index));
  return Status::OK();
}

std::vector<Element*> Element::ChildElements() const {
  std::vector<Element*> out;
  for (const auto& c : children_) {
    if (c->kind() == NodeKind::kElement) {
      out.push_back(static_cast<Element*>(c.get()));
    }
  }
  return out;
}

std::vector<Element*> Element::ChildElements(std::string_view name) const {
  std::vector<Element*> out;
  for (const auto& c : children_) {
    if (c->kind() == NodeKind::kElement) {
      auto* e = static_cast<Element*>(c.get());
      if (e->name() == name) out.push_back(e);
    }
  }
  return out;
}

Element* Element::FirstChild(std::string_view name) const {
  for (const auto& c : children_) {
    if (c->kind() == NodeKind::kElement) {
      auto* e = static_cast<Element*>(c.get());
      if (e->name() == name) return e;
    }
  }
  return nullptr;
}

std::string Element::InnerText() const {
  // Document order with an explicit stack of (element, next child).
  std::string out;
  std::vector<std::pair<const Element*, size_t>> open = {{this, 0}};
  while (!open.empty()) {
    auto& [element, next] = open.back();
    if (next == element->children_.size()) {
      open.pop_back();
      continue;
    }
    const Node* c = element->children_[next++].get();
    switch (c->kind()) {
      case NodeKind::kText:
      case NodeKind::kCData:
        out += static_cast<const CharData*>(c)->text();
        break;
      case NodeKind::kElement:
        open.emplace_back(static_cast<const Element*>(c), 0);
        break;
      case NodeKind::kComment:
        break;
    }
  }
  return out;
}

int Element::OrdinalAmongSiblings() const {
  if (parent() == nullptr) return 1;
  int ordinal = 0;
  for (Element* sibling : parent()->ChildElements(name_)) {
    ++ordinal;
    if (sibling == this) return ordinal;
  }
  return 1;  // unreachable for well-formed trees
}

std::unique_ptr<Document> Document::Create(std::string root_name) {
  auto doc = std::make_unique<Document>();
  doc->set_root(std::make_unique<Element>(std::move(root_name)));
  return doc;
}

size_t Document::ElementCount() const {
  size_t n = 0;
  if (root_) root_->Visit([&n](Element*) { ++n; });
  return n;
}

}  // namespace slim::doc::xml
