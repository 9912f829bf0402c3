#include "doc/slides/slide_deck.h"

#include <fstream>
#include <sstream>

#include "util/file.h"
#include "util/strings.h"

namespace slim::doc::slides {

namespace {

std::string Escape(std::string_view s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string Unescape(std::string_view s) {
  std::string out;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      ++i;
      out.push_back(s[i] == 'n' ? '\n' : s[i]);
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

std::string_view KindName(ShapeKind k) {
  switch (k) {
    case ShapeKind::kTextBox: return "text";
    case ShapeKind::kBulletList: return "bullets";
    case ShapeKind::kImageRef: return "image";
  }
  return "text";
}

Result<ShapeKind> ParseKind(std::string_view s) {
  if (s == "text") return ShapeKind::kTextBox;
  if (s == "bullets") return ShapeKind::kBulletList;
  if (s == "image") return ShapeKind::kImageRef;
  return Status::ParseError("unknown shape kind '" + std::string(s) + "'");
}

}  // namespace

Status Slide::AddShape(Shape shape) {
  if (shape.id.empty()) {
    return Status::InvalidArgument("shape id is empty");
  }
  for (const Shape& s : shapes_) {
    if (s.id == shape.id) {
      return Status::AlreadyExists("shape '" + shape.id +
                                   "' already exists on slide '" + title_ +
                                   "'");
    }
  }
  shapes_.push_back(std::move(shape));
  return Status::OK();
}

Result<const Shape*> Slide::FindShape(std::string_view id) const {
  for (const Shape& s : shapes_) {
    if (s.id == id) return &s;
  }
  return Status::NotFound("no shape '" + std::string(id) + "' on slide '" +
                          title_ + "'");
}

Status Slide::RemoveShape(std::string_view id) {
  for (auto it = shapes_.begin(); it != shapes_.end(); ++it) {
    if (it->id == id) {
      shapes_.erase(it);
      return Status::OK();
    }
  }
  return Status::NotFound("no shape '" + std::string(id) + "' on slide '" +
                          title_ + "'");
}

std::string Slide::AllText() const {
  std::string out = title_;
  for (const Shape& s : shapes_) {
    if (!s.text.empty()) {
      out += '\n';
      out += s.text;
    }
    for (const std::string& b : s.bullets) {
      out += '\n';
      out += b;
    }
  }
  return out;
}

int32_t SlideDeck::AddSlide(std::string title) {
  slides_.push_back(std::make_unique<Slide>(std::move(title)));
  return static_cast<int32_t>(slides_.size() - 1);
}

Result<Slide*> SlideDeck::GetSlide(int32_t index) {
  if (index < 0 || static_cast<size_t>(index) >= slides_.size()) {
    return Status::OutOfRange("slide index " + std::to_string(index) +
                              " (deck has " + std::to_string(slides_.size()) +
                              " slides)");
  }
  return slides_[static_cast<size_t>(index)].get();
}

Result<const Slide*> SlideDeck::GetSlide(int32_t index) const {
  if (index < 0 || static_cast<size_t>(index) >= slides_.size()) {
    return Status::OutOfRange("slide index " + std::to_string(index));
  }
  return static_cast<const Slide*>(slides_[static_cast<size_t>(index)].get());
}

std::vector<std::pair<int32_t, std::string>> SlideDeck::FindText(
    std::string_view term) const {
  std::vector<std::pair<int32_t, std::string>> out;
  if (term.empty()) return out;
  for (size_t i = 0; i < slides_.size(); ++i) {
    const Slide& slide = *slides_[i];
    if (slide.title().find(term) != std::string::npos) {
      out.push_back({static_cast<int32_t>(i), ""});
    }
    for (const Shape& s : slide.shapes()) {
      bool hit = s.text.find(term) != std::string::npos;
      for (const std::string& b : s.bullets) {
        if (b.find(term) != std::string::npos) hit = true;
      }
      if (hit) out.push_back({static_cast<int32_t>(i), s.id});
    }
  }
  return out;
}

std::string SlideDeck::Serialize() const {
  std::ostringstream out;
  out << "SLIMDECK 1\n";
  out << "FILE " << Escape(file_name_) << "\n";
  for (const auto& slide : slides_) {
    out << "SLIDE " << Escape(slide->title()) << "\n";
    for (const Shape& s : slide->shapes()) {
      out << "SHAPE " << s.id << " " << KindName(s.kind) << " " << s.x << " "
          << s.y << " " << s.width << " " << s.height << " " << Escape(s.text)
          << "\n";
      for (const std::string& b : s.bullets) {
        out << "BULLET " << Escape(b) << "\n";
      }
    }
  }
  return out.str();
}

Result<std::unique_ptr<SlideDeck>> SlideDeck::Deserialize(
    std::string_view text) {
  auto deck = std::make_unique<SlideDeck>();
  std::istringstream in{std::string(text)};
  std::string line;
  if (!std::getline(in, line) || Trim(line) != "SLIMDECK 1") {
    return Status::ParseError("missing SLIMDECK header");
  }
  Slide* current_slide = nullptr;
  Shape* current_shape = nullptr;
  int line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view lv = line;
    if (Trim(lv).empty()) continue;
    auto fail = [&](const std::string& what) {
      return Status::ParseError("deck line " + std::to_string(line_no) + ": " +
                                what);
    };
    if (StartsWith(lv, "FILE ")) {
      deck->file_name_ = Unescape(lv.substr(5));
    } else if (StartsWith(lv, "SLIDE ")) {
      int32_t idx = deck->AddSlide(Unescape(lv.substr(6)));
      current_slide = deck->slides_[static_cast<size_t>(idx)].get();
      current_shape = nullptr;
    } else if (StartsWith(lv, "SHAPE ")) {
      if (current_slide == nullptr) return fail("SHAPE outside SLIDE");
      std::vector<std::string> parts;
      // id kind x y w h text — text may contain spaces, so split first 6.
      std::string_view rest = lv.substr(6);
      for (int k = 0; k < 6; ++k) {
        size_t sp = rest.find(' ');
        if (sp == std::string_view::npos) return fail("truncated SHAPE");
        parts.emplace_back(rest.substr(0, sp));
        rest.remove_prefix(sp + 1);
      }
      Shape shape;
      shape.id = parts[0];
      SLIM_ASSIGN_OR_RETURN(shape.kind, ParseKind(parts[1]));
      if (!ParseDouble(parts[2], &shape.x) || !ParseDouble(parts[3], &shape.y) ||
          !ParseDouble(parts[4], &shape.width) ||
          !ParseDouble(parts[5], &shape.height)) {
        return fail("bad geometry");
      }
      shape.text = Unescape(rest);
      SLIM_RETURN_NOT_OK(current_slide->AddShape(std::move(shape)));
      // Obtain a stable pointer to the just-added shape for BULLET lines.
      current_shape = const_cast<Shape*>(
          current_slide->FindShape(parts[0]).ValueOrDie());
    } else if (StartsWith(lv, "BULLET ")) {
      if (current_shape == nullptr) return fail("BULLET outside SHAPE");
      current_shape->bullets.push_back(Unescape(lv.substr(7)));
    } else {
      return fail("unrecognized record");
    }
  }
  return deck;
}

Status SlideDeck::SaveToFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  out << Serialize();
  if (!out.good()) return Status::IoError("write failed for '" + path + "'");
  return Status::OK();
}

Result<std::unique_ptr<SlideDeck>> SlideDeck::LoadFromFile(
    const std::string& path) {
  SLIM_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  SLIM_ASSIGN_OR_RETURN(std::unique_ptr<SlideDeck> deck, Deserialize(text));
  if (deck->file_name().empty()) deck->set_file_name(path);
  return deck;
}

}  // namespace slim::doc::slides
