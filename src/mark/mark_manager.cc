#include "mark/mark_manager.h"

#include <functional>
#include <optional>
#include <unordered_set>

#include "doc/xml/reader.h"
#include "doc/xml/writer.h"
#include "obs/obs.h"
#include "util/file.h"

namespace slim::mark {

namespace xml = slim::doc::xml;

Status MarkManager::RegisterModule(MarkModule* module) {
  if (module == nullptr) return Status::InvalidArgument("null module");
  std::pair<std::string, std::string> key{std::string(module->mark_type()),
                                          std::string(module->resolver_name())};
  if (modules_.count(key)) {
    return Status::AlreadyExists("module for type '" + key.first +
                                 "' resolver '" + key.second +
                                 "' already registered");
  }
  modules_[key] = module;
  return Status::OK();
}

std::vector<std::string> MarkManager::SupportedTypes() const {
  std::vector<std::string> out;
  for (const auto& [key, _] : modules_) {
    if (key.second == "context") out.push_back(key.first);
  }
  return out;
}

Result<MarkModule*> MarkManager::FindModule(std::string_view mark_type,
                                            std::string_view resolver) const {
  auto it = modules_.find(
      {std::string(mark_type), std::string(resolver)});
  if (it == modules_.end()) {
    return Status::NotFound("no mark module for type '" +
                            std::string(mark_type) + "' resolver '" +
                            std::string(resolver) + "'");
  }
  return it->second;
}

Result<std::string> MarkManager::CreateMarkFromSelection(
    const std::string& mark_type) {
  SLIM_OBS_TIMER(timer, "mark.create.latency_us");
  SLIM_OBS_SPAN(span, "mark.create");
  span.AddTag("type", mark_type);
  Result<std::string> out = [&]() -> Result<std::string> {
    SLIM_ASSIGN_OR_RETURN(MarkModule * module,
                          FindModule(mark_type, "context"));
    std::string id = ids_.Next();
    SLIM_ASSIGN_OR_RETURN(std::unique_ptr<Mark> m,
                          module->CreateFromSelection(id));
    marks_[id] = std::move(m);
    return id;
  }();
  if (out.ok()) {
    SLIM_OBS_COUNT("mark.create.ok");
    SLIM_OBS_COUNT_DYN("mark.create.module." + mark_type);
  } else {
    SLIM_OBS_COUNT("mark.create.error");
  }
  return out;
}

Status MarkManager::CheckAdoptable(const Mark& mark) const {
  const std::string& id = mark.mark_id();
  if (id.empty()) return Status::InvalidArgument("mark has empty id");
  if (marks_.count(id)) {
    return Status::AlreadyExists("mark '" + id + "' already exists");
  }
  return Status::OK();
}

Status MarkManager::AdoptMark(std::unique_ptr<Mark> mark) {
  if (mark == nullptr) return Status::InvalidArgument("null mark");
  SLIM_RETURN_NOT_OK(CheckAdoptable(*mark));
  const std::string& id = mark->mark_id();
  ids_.ObserveExisting(id);
  marks_[id] = std::move(mark);
  return Status::OK();
}

Result<const Mark*> MarkManager::GetMark(const std::string& mark_id) const {
  auto it = marks_.find(mark_id);
  if (it == marks_.end()) {
    return Status::NotFound("no mark '" + mark_id + "'");
  }
  return static_cast<const Mark*>(it->second.get());
}

Status MarkManager::RemoveMark(const std::string& mark_id) {
  auto it = marks_.find(mark_id);
  if (it == marks_.end()) {
    return Status::NotFound("no mark '" + mark_id + "'");
  }
  marks_.erase(it);
  return Status::OK();
}

Status MarkManager::ResolveMark(const std::string& mark_id,
                                const std::string& resolver) {
  SLIM_OBS_HEARTBEAT("mark.resolve");
  SLIM_OBS_TIMER(timer, "mark.resolve.latency_us");
  SLIM_OBS_SPAN(span, "mark.resolve");
  span.AddTag("mark", mark_id);
  span.AddTag("resolver", resolver);
  Status st = [&]() -> Status {
    SLIM_ASSIGN_OR_RETURN(const Mark* m, GetMark(mark_id));
    SLIM_ASSIGN_OR_RETURN(MarkModule * module,
                          FindModule(m->type(), resolver));
    // Which module drove the base application (obs: the Monikers-style
    // per-module breakdown of §5).
    SLIM_OBS_COUNT_DYN("mark.resolve.module." + std::string(m->type()) + "." +
                       resolver);
    return module->Resolve(*m).WithContext("resolving " + m->Describe());
  }();
  if (st.ok()) {
    SLIM_OBS_COUNT("mark.resolve.ok");
  } else {
    SLIM_OBS_COUNT("mark.resolve.error");
    // A failed resolve means a wire back to a base document broke — the
    // classic superimposed-information failure. Leave a post-mortem trail.
    SLIM_OBS_LOG(kWarn, "mark", "mark resolve failed",
                 {{"mark", mark_id},
                  {"resolver", resolver},
                  {"status", st.ToString()}});
    SLIM_OBS_DUMP_ON_ERROR("mark.resolve");
  }
  return st;
}

Result<std::string> MarkManager::ExtractContent(const std::string& mark_id) {
  SLIM_OBS_TIMER(timer, "mark.extract.latency_us");
  SLIM_OBS_SPAN(span, "mark.extract");
  span.AddTag("mark", mark_id);
  Result<std::string> out = [&]() -> Result<std::string> {
    SLIM_ASSIGN_OR_RETURN(const Mark* m, GetMark(mark_id));
    SLIM_ASSIGN_OR_RETURN(MarkModule * module,
                          FindModule(m->type(), "context"));
    return module->ExtractContent(*m);
  }();
  if (out.ok()) {
    SLIM_OBS_COUNT("mark.extract.ok");
  } else {
    SLIM_OBS_COUNT("mark.extract.error");
  }
  return out;
}

std::vector<std::string> MarkManager::MarkIds() const {
  std::vector<std::string> out;
  out.reserve(marks_.size());
  for (const auto& [id, _] : marks_) out.push_back(id);
  return out;
}

namespace {

// Appends the marks' XML to *out, calling `after_mark` (when set) after each
// mark so a file save can hand the text off in chunks.
void WriteMarks(const std::map<std::string, std::unique_ptr<Mark>>& marks,
                std::string* out, const std::function<void()>& after_mark) {
  xml::Writer w(out);
  w.Declaration();
  w.Start("marks", /*block=*/true);
  for (const auto& [id, m] : marks) {
    w.Start("mark", /*block=*/true);
    w.Attribute("id", id);
    w.Attribute("type", m->type());
    for (const auto& [name, value] : m->Fields()) {
      w.Start("field", /*block=*/false);
      w.Attribute("name", name);
      w.Attribute("value", value);
      w.End();
    }
    if (!m->excerpt().empty()) {
      w.Start("excerpt", /*block=*/false);
      w.Text(m->excerpt());
      w.End();
    }
    w.End();
    if (after_mark) after_mark();
  }
  w.End();
}

// The <mark> being read: its attributes, its direct <field> children and
// the text of its first direct <excerpt> child.
struct PendingMark {
  std::string id;
  std::string type;
  MarkFields fields;
  bool has_excerpt = false;
  bool in_excerpt = false;
  std::string excerpt;
};

}  // namespace

std::string MarkManager::ToXml() const {
  std::string out;
  WriteMarks(marks_, &out, nullptr);
  return out;
}

Status MarkManager::FromXml(std::string_view xml_text) {
  SLIM_ASSIGN_OR_RETURN(DecodedMarks marks, Decode(xml_text));
  Adopt(std::move(marks));
  return Status::OK();
}

Result<MarkManager::DecodedMarks> MarkManager::Decode(
    std::string_view xml_text) const {
  // Read and check every mark. `first_error` is the first structural
  // error, unknown type, FromFields error or clashing id in document
  // order; a syntax error anywhere still wins, so reading goes on to the
  // end.
  xml::Reader reader(xml_text);
  DecodedMarks loaded;
  std::unordered_set<std::string_view> loaded_ids;  // views of loaded ids
  Status first_error;
  std::optional<PendingMark> mark;
  for (bool done = false; !done;) {
    SLIM_RETURN_NOT_OK(reader.Next());
    switch (reader.kind()) {
      case xml::TokenKind::kStartTag:
        if (reader.depth() == 0) {
          if (reader.name() != "marks") {
            first_error = Status::ParseError("root element is not <marks>");
          }
        } else if (!first_error.ok()) {
          // Only the syntax of the rest matters now.
        } else if (reader.depth() == 1 && reader.name() == "mark") {
          std::optional<std::string_view> id = reader.FindAttribute("id");
          std::optional<std::string_view> type = reader.FindAttribute("type");
          if (!id || !type) {
            first_error =
                Status::ParseError("<mark> missing id/type attribute");
          } else {
            mark.emplace();
            mark->id = *id;
            mark->type = *type;
          }
        } else if (reader.depth() == 2 && mark && reader.name() == "field") {
          std::optional<std::string_view> name = reader.FindAttribute("name");
          std::optional<std::string_view> value =
              reader.FindAttribute("value");
          if (!name || !value) {
            first_error =
                Status::ParseError("<field> missing name/value attribute");
            mark.reset();
          } else {
            mark->fields.emplace_back(*name, *value);
          }
        } else if (reader.depth() == 2 && mark && reader.name() == "excerpt" &&
                   !mark->has_excerpt) {
          mark->has_excerpt = true;
          mark->in_excerpt = true;
        }
        break;
      case xml::TokenKind::kEndTag:
        if (!mark) break;
        if (reader.depth() == 2) {
          mark->in_excerpt = false;
        } else if (reader.depth() == 1) {
          first_error = [&]() -> Status {
            SLIM_ASSIGN_OR_RETURN(MarkModule * module,
                                  FindModule(mark->type, "context"));
            SLIM_ASSIGN_OR_RETURN(std::unique_ptr<Mark> m,
                                  module->FromFields(mark->id, mark->fields));
            if (mark->has_excerpt) m->set_excerpt(std::move(mark->excerpt));
            SLIM_RETURN_NOT_OK(CheckAdoptable(*m));
            if (loaded_ids.count(m->mark_id())) {
              return Status::AlreadyExists("mark '" + m->mark_id() +
                                           "' already exists");
            }
            loaded_ids.insert(m->mark_id());
            loaded.push_back(std::move(m));
            return Status::OK();
          }();
          mark.reset();
        }
        break;
      case xml::TokenKind::kText:
      case xml::TokenKind::kCData:
        // The excerpt is all its descendant text (DOM InnerText).
        if (mark && mark->in_excerpt) mark->excerpt += reader.text();
        break;
      case xml::TokenKind::kComment:
        break;
      case xml::TokenKind::kEnd:
        done = true;
        break;
    }
  }
  if (!first_error.ok()) return first_error;
  return loaded;
}

void MarkManager::Adopt(DecodedMarks marks) {
  for (std::unique_ptr<Mark>& m : marks) {
    const std::string& id = m->mark_id();
    ids_.ObserveExisting(id);
    marks_[id] = std::move(m);
  }
}

Status MarkManager::SaveToFile(const std::string& path) const {
  FileReplacer file(path);
  WriteTo(&file);
  return file.Commit();
}

void MarkManager::WriteTo(FileReplacer* file) const {
  WriteMarks(marks_, file->buffer(), [file] { file->WriteIfFull(); });
}

Status MarkManager::LoadFromFile(const std::string& path) {
  SLIM_ASSIGN_OR_RETURN(DecodedMarks marks, DecodeFile(path));
  Adopt(std::move(marks));
  return Status::OK();
}

Result<MarkManager::DecodedMarks> MarkManager::DecodeFile(
    const std::string& path) const {
  SLIM_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return Decode(text);
}

}  // namespace slim::mark
