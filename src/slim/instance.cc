#include "slim/instance.h"

#include <algorithm>
#include <map>

#include "slim/vocabulary.h"
#include "util/strings.h"

namespace slim::store {

Result<std::string> InstanceGraph::Create(const std::string& type_resource) {
  if (type_resource.empty()) {
    return Status::InvalidArgument("empty type resource");
  }
  std::string id = ids_.Next();
  SLIM_RETURN_NOT_OK(store_->AddResource(id, Vocab::kType, type_resource));
  return id;
}

Status InstanceGraph::CreateWithId(const std::string& id,
                                   const std::string& type_resource) {
  if (id.empty() || type_resource.empty()) {
    return Status::InvalidArgument("empty id or type resource");
  }
  if (Exists(id)) {
    return Status::AlreadyExists("instance '" + id + "' already exists");
  }
  ids_.ObserveExisting(id);
  return store_->AddResource(id, Vocab::kType, type_resource);
}

Result<std::string> InstanceGraph::TypeOf(const std::string& id) const {
  auto obj = store_->GetOne(id, Vocab::kType);
  if (!obj) return Status::NotFound("instance '" + id + "' has no type");
  return obj->text;
}

size_t InstanceGraph::Delete(const std::string& id) {
  size_t removed =
      store_->RemoveMatching(trim::TriplePattern::BySubject(id));
  removed += store_->RemoveMatching(
      trim::TriplePattern::ByObject(trim::Object::Resource(id)));
  return removed;
}

Status InstanceGraph::AddValue(const std::string& id,
                               const std::string& property,
                               const std::string& literal) {
  if (!Exists(id)) return Status::NotFound("no instance '" + id + "'");
  return store_->Add(
      trim::Triple{id, property, trim::Object::Literal(literal)});
}

Status InstanceGraph::SetValue(const std::string& id,
                               const std::string& property,
                               const std::string& literal) {
  if (!Exists(id)) return Status::NotFound("no instance '" + id + "'");
  return store_->SetOne(id, property, trim::Object::Literal(literal));
}

Result<std::string> InstanceGraph::GetValue(const std::string& id,
                                            const std::string& property) const {
  auto obj = store_->GetOne(id, property);
  if (!obj || obj->is_resource()) {
    return Status::NotFound("instance '" + id + "' has no literal value for '" +
                            property + "'");
  }
  return obj->text;
}

Status InstanceGraph::Connect(const std::string& id,
                              const std::string& property,
                              const std::string& target_id) {
  if (!Exists(id)) return Status::NotFound("no instance '" + id + "'");
  if (!Exists(target_id)) {
    return Status::NotFound("no target instance '" + target_id + "'");
  }
  return store_->Add(
      trim::Triple{id, property, trim::Object::Resource(target_id)});
}

Status InstanceGraph::Disconnect(const std::string& id,
                                 const std::string& property,
                                 const std::string& target_id) {
  return store_->Remove(
      trim::Triple{id, property, trim::Object::Resource(target_id)});
}

std::vector<std::string> InstanceGraph::GetConnected(
    const std::string& id, const std::string& property) const {
  std::vector<std::string> out;
  trim::TripleStore::Snapshot snap(*store_);
  store_->SelectEach(trim::TriplePattern::BySubjectProperty(id, property),
                     [&](const trim::Triple& t) {
                       if (t.object.is_resource()) out.push_back(t.object.text);
                       return true;
                     });
  return out;
}

std::vector<std::string> InstanceGraph::InstancesOf(
    const std::string& type_resource) const {
  std::vector<std::string> out;
  trim::TripleStore::Snapshot snap(*store_);
  store_->SelectEach(
      trim::TriplePattern{std::nullopt, Vocab::kType,
                          trim::Object::Resource(type_resource)},
      [&](const trim::Triple& t) {
        out.push_back(t.subject);
        return true;
      });
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> InstanceGraph::AllInstances() const {
  std::vector<std::string> out;
  trim::TripleStore::Snapshot snap(*store_);
  store_->SelectEach(trim::TriplePattern::ByProperty(Vocab::kType),
                     [&](const trim::Triple& t) {
                       if (StartsWith(t.subject, "inst:")) {
                         out.push_back(t.subject);
                       }
                       return true;
                     });
  std::sort(out.begin(), out.end());
  return out;
}

bool InstanceGraph::Exists(const std::string& id) const {
  return store_->GetOne(id, Vocab::kType).has_value();
}

ModelDef BuildGenericModel() {
  ModelDef model("generic");
  (void)model.AddConstruct("Entity", ConstructKind::kConstruct);
  (void)model.AddConstruct("String", ConstructKind::kLiteralConstruct);
  (void)model.AddConnector({"attribute", "Entity", "String", 0, kMany});
  (void)model.AddConnector({"link", "Entity", "Entity", 0, kMany});
  return model;
}

Result<SchemaDef> InduceSchema(const trim::TripleStore& store,
                               const std::string& schema_name) {
  ModelDef model = BuildGenericModel();
  SchemaDef schema(schema_name, model.name());

  // Both observation passes must agree on what exists; pin one epoch so a
  // concurrent writer cannot skew the induced connector cardinalities.
  trim::TripleStore::Snapshot snap(store);

  // type resource -> element name (derived from the trailing path segment).
  std::map<std::string, std::string> type_to_element;
  auto element_name_of = [&](const std::string& type_res) {
    size_t slash = type_res.find_last_of('/');
    std::string base = slash == std::string::npos
                           ? type_res
                           : type_res.substr(slash + 1);
    // Ensure uniqueness if two type resources share a trailing segment.
    std::string candidate = base;
    int n = 2;
    while (true) {
      bool taken = false;
      for (const auto& [_, existing] : type_to_element) {
        if (existing == candidate) taken = true;
      }
      if (!taken) return candidate;
      candidate = base + std::to_string(n++);
    }
  };

  // Pass 1: collect instance types.
  std::map<std::string, std::string> instance_type;  // id -> type resource
  store.SelectEach(trim::TriplePattern::ByProperty(Vocab::kType),
                   [&](const trim::Triple& t) {
                     if (StartsWith(t.subject, "inst:") &&
                         t.object.is_resource()) {
                       instance_type[t.subject] = t.object.text;
                     }
                     return true;
                   });
  for (const auto& [_, type_res] : instance_type) {
    if (!type_to_element.count(type_res)) {
      type_to_element[type_res] = element_name_of(type_res);
    }
  }
  for (const auto& [_, element] : type_to_element) {
    SLIM_RETURN_NOT_OK(schema.AddElement(element, "Entity", model));
  }

  // Pass 2: observe properties per (element, property): literal vs link,
  // per-instance occurrence counts, and a target element for links.
  struct PropStat {
    bool is_link = false;
    std::string target_element;
    std::map<std::string, int> count_per_instance;
  };
  std::map<std::pair<std::string, std::string>, PropStat> stats;
  for (const auto& [id, type_res] : instance_type) {
    const std::string& element = type_to_element[type_res];
    store.SelectEach(trim::TriplePattern::BySubject(id),
                     [&](const trim::Triple& t) {
                       if (t.property == Vocab::kType) return true;
                       PropStat& ps = stats[{element, t.property}];
                       ++ps.count_per_instance[id];
                       if (t.object.is_resource()) {
                         ps.is_link = true;
                         auto it = instance_type.find(t.object.text);
                         if (it != instance_type.end()) {
                           ps.target_element = type_to_element[it->second];
                         }
                       }
                       return true;
                     });
  }

  // Pass 3: emit connectors with observed cardinalities. Min is 0 when any
  // instance of the element lacks the property.
  std::map<std::string, int> instances_per_element;
  for (const auto& [_, type_res] : instance_type) {
    ++instances_per_element[type_to_element[type_res]];
  }
  for (const auto& [key, ps] : stats) {
    const auto& [element, property] = key;
    int min_card = INT32_MAX, max_card = 0;
    for (const auto& [_, n] : ps.count_per_instance) {
      min_card = std::min(min_card, n);
      max_card = std::max(max_card, n);
    }
    if (static_cast<int>(ps.count_per_instance.size()) <
        instances_per_element[element]) {
      min_card = 0;  // some instance lacks the property entirely
    }
    SchemaConnectorDef c;
    c.name = property;
    c.domain = element;
    c.min_card = min_card == INT32_MAX ? 0 : min_card;
    c.max_card = max_card;
    if (ps.is_link) {
      c.model_connector = "link";
      c.range = ps.target_element.empty() ? element : ps.target_element;
    } else {
      c.model_connector = "attribute";
      c.range = "String";
    }
    SLIM_RETURN_NOT_OK(schema.AddConnector(std::move(c), model));
  }
  return schema;
}

}  // namespace slim::store
