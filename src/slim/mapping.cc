#include "slim/mapping.h"

#include <map>

#include "slim/vocabulary.h"
#include "util/strings.h"

namespace slim::store {

Status Mapping::AddRule(TypeRule rule) {
  if (rule.from_type.empty() || rule.to_type.empty()) {
    return Status::InvalidArgument("rule types must be non-empty");
  }
  for (const TypeRule& r : rules_) {
    if (r.from_type == rule.from_type) {
      return Status::AlreadyExists("mapping '" + name_ +
                                   "' already has a rule for '" +
                                   rule.from_type + "'");
    }
  }
  rules_.push_back(std::move(rule));
  return Status::OK();
}

const TypeRule* Mapping::FindRule(const std::string& type_resource) const {
  for (const TypeRule& r : rules_) {
    if (r.from_type == type_resource) return &r;
  }
  return nullptr;
}

Result<MappingStats> Mapping::Apply(const trim::TripleStore& source,
                                    trim::TripleStore* target) const {
  if (target == nullptr) return Status::InvalidArgument("null target store");
  MappingStats stats;

  // The per-instance property reads below must see the same source state as
  // the type sweep; pin one epoch for the whole mapping run.
  trim::TripleStore::Snapshot snap(source);

  // Gather instances and their types.
  std::map<std::string, std::string> instance_type;
  source.SelectEach(trim::TriplePattern::ByProperty(Vocab::kType),
                    [&](const trim::Triple& t) {
                      if (StartsWith(t.subject, "inst:") &&
                          t.object.is_resource()) {
                        instance_type[t.subject] = t.object.text;
                      }
                      return true;
                    });

  for (const auto& [id, type] : instance_type) {
    const TypeRule* rule = FindRule(type);
    if (rule == nullptr && drop_unmapped_types_) {
      ++stats.instances_dropped;
      continue;
    }
    // Type triple.
    const std::string& out_type = rule != nullptr ? rule->to_type : type;
    Status st = target->AddResource(id, Vocab::kType, out_type);
    if (!st.ok() && !st.IsAlreadyExists()) return st;
    if (st.ok()) ++stats.triples_written;
    if (rule != nullptr) {
      ++stats.instances_mapped;
    } else {
      ++stats.instances_copied;
    }

    // Property triples.
    Status failure;
    source.SelectEach(
        trim::TriplePattern::BySubject(id), [&](const trim::Triple& t) {
          if (t.property == Vocab::kType) return true;
          std::string out_prop = t.property;
          if (rule != nullptr) {
            const PropertyRule* prule = nullptr;
            for (const PropertyRule& p : rule->properties) {
              if (p.from == t.property) prule = &p;
            }
            if (prule != nullptr) {
              out_prop = prule->to;
            } else if (rule->drop_unmapped_properties) {
              ++stats.properties_dropped;
              return true;
            }
          }
          Status add = target->Add(trim::Triple{id, out_prop, t.object});
          if (add.IsAlreadyExists()) return true;  // the target holds it
          if (!add.ok()) {
            failure = add;
            return false;
          }
          ++stats.triples_written;
          return true;
        });
    if (!failure.ok()) return failure;
  }
  return stats;
}

}  // namespace slim::store
