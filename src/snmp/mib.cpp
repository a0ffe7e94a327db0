#include "snmp/mib.h"

namespace netqos::snmp {

void MibTree::register_object(Oid instance, Provider provider) {
  hint_ = objects_.end();
  objects_[std::move(instance)] = std::move(provider);
}

void MibTree::register_constant(Oid instance, SnmpValue value) {
  register_object(std::move(instance),
                  [value = std::move(value)] { return value; });
}

void MibTree::unregister_object(const Oid& instance) {
  hint_ = objects_.end();
  objects_.erase(instance);
}

void MibTree::unregister_subtree(const Oid& root) {
  hint_ = objects_.end();
  auto it = objects_.lower_bound(root);
  while (it != objects_.end() && it->first.starts_with(root)) {
    it = objects_.erase(it);
  }
}

void MibTree::register_table(Oid root, std::unique_ptr<TableProvider> table) {
  hint_ = objects_.end();
  tables_[std::move(root)] = std::move(table);
}

MibTree::Tables::const_iterator MibTree::first_table_from(
    const Oid& oid) const {
  auto it = tables_.upper_bound(oid);
  if (it != tables_.begin() && oid.starts_with(std::prev(it)->first)) {
    return std::prev(it);
  }
  return it;
}

std::optional<SnmpValue> MibTree::get(const Oid& instance) {
  const auto table = first_table_from(instance);
  if (table != tables_.end() && instance.starts_with(table->first)) {
    if (auto value = table->second->get(instance)) return value;
  }
  auto it = objects_.find(instance);
  if (it == objects_.end()) return std::nullopt;
  return it->second();
}

std::optional<std::pair<Oid, SnmpValue>> MibTree::get_next(const Oid& oid) {
  const auto object = hint_ != objects_.end() && hint_->first == oid
                          ? std::next(hint_)
                          : objects_.upper_bound(oid);
  for (auto table = first_table_from(oid); table != tables_.end(); ++table) {
    // Rows extend their root, so an object at or before the root of this
    // (or any later) table precedes all of its rows.
    if (object != objects_.end() && object->first <= table->first) break;
    if (auto row = table->second->next(oid)) {
      if (object == objects_.end() || row->first <= object->first) {
        return row;
      }
      break;
    }
  }
  if (object == objects_.end()) return std::nullopt;
  hint_ = object;
  return std::make_pair(object->first, object->second());
}

std::size_t MibTree::size() const {
  std::size_t total = objects_.size();
  for (const auto& [root, table] : tables_) total += table->size();
  return total;
}

}  // namespace netqos::snmp
