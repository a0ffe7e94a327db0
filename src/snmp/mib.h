// MIB tree: the agent-side database of managed objects.
//
// Two kinds of entries share one OID space:
//   - objects, registered at instance OIDs (scalars at x.0, fixed table
//     cells at entry.column.index) with callable providers, so values are
//     computed at query time from live state;
//   - tables, registered at a subtree root with a TableProvider that
//     answers exact and successor lookups for every row under that root
//     from live state, for tables whose rows come and go (the bridge
//     forwarding database).
// GETNEXT order is the lexicographic order of the union of both.
//
// get_next keeps a walk hint: the object it returned last. A walk asks
// next for exactly that OID, so its successor is std::next(hint) and the
// step costs no map search. Every register/unregister call drops the
// hint (an unregister may erase the hinted object), so the tree is
// neither copyable nor movable: a copied hint would point into the
// source tree.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "snmp/oid.h"
#include "snmp/value.h"

namespace netqos::snmp {

/// Serves every instance under one subtree root.
class TableProvider {
 public:
  virtual ~TableProvider() = default;
  /// Exact match for an instance under the root; nullopt when absent.
  virtual std::optional<SnmpValue> get(const Oid& instance) = 0;
  /// First instance under the root strictly greater than `oid`.
  virtual std::optional<std::pair<Oid, SnmpValue>> next(const Oid& oid) = 0;
  /// Number of instances the table currently holds.
  virtual std::size_t size() const = 0;
};

class MibTree {
 public:
  using Provider = std::function<SnmpValue()>;

  MibTree() = default;
  MibTree(const MibTree&) = delete;
  MibTree& operator=(const MibTree&) = delete;

  /// Registers an instance OID. Replaces any existing registration.
  void register_object(Oid instance, Provider provider);
  /// Convenience: a constant value.
  void register_constant(Oid instance, SnmpValue value);
  void unregister_object(const Oid& instance);
  /// Removes every registered object under (and including) `root`.
  void unregister_subtree(const Oid& root);

  /// Serves the subtree under `root` from `table`. Replaces any table
  /// at the same root. Table roots must not nest.
  void register_table(Oid root, std::unique_ptr<TableProvider> table);

  /// Exact-match GET. nullopt when the instance does not exist.
  std::optional<SnmpValue> get(const Oid& instance);

  /// GETNEXT: first instance strictly greater than `oid`, with its value.
  std::optional<std::pair<Oid, SnmpValue>> get_next(const Oid& oid);

  /// Registered objects plus the rows every table holds now.
  std::size_t size() const;

 private:
  using Objects = std::map<Oid, Provider>;
  using Tables = std::map<Oid, std::unique_ptr<TableProvider>>;

  /// The first table that can hold an instance greater than `oid`: the
  /// one whose root prefixes `oid`, else the first root after it.
  Tables::const_iterator first_table_from(const Oid& oid) const;

  Objects objects_;
  Tables tables_;
  /// The object get_next returned last; objects_.end() when unset.
  Objects::const_iterator hint_ = objects_.end();
};

}  // namespace netqos::snmp
