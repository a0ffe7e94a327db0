#include "snmp/bridge.h"

#include <algorithm>
#include <unordered_map>

namespace netqos::snmp {

namespace {

/// dot1dTpFdbPort rows served from a sorted view of the switch's FDB. The
/// view is rebuilt on the first lookup after the switch learned a new MAC
/// or saw one move port; steady-state lookups are binary searches.
class FdbPortTable final : public TableProvider {
 public:
  explicit FdbPortTable(const sim::Switch& sw) : sw_(sw) {}

  std::optional<SnmpValue> get(const Oid& instance) override {
    const auto& rows = view();
    const auto it = std::lower_bound(
        rows.begin(), rows.end(), instance,
        [](const Row& row, const Oid& oid) { return row.instance < oid; });
    if (it == rows.end() || it->instance != instance) return std::nullopt;
    // In place: moving a temporary SnmpValue into the optional trips
    // GCC 12's -Wmaybe-uninitialized under the sanitizers.
    return std::optional<SnmpValue>(std::in_place, it->port);
  }

  std::optional<std::pair<Oid, SnmpValue>> next(const Oid& oid) override {
    const auto& rows = view();
    const auto it = std::upper_bound(
        rows.begin(), rows.end(), oid,
        [](const Oid& key, const Row& row) { return key < row.instance; });
    if (it == rows.end()) return std::nullopt;
    return std::make_pair(it->instance, SnmpValue(it->port));
  }

  std::size_t size() const override { return view().size(); }

 private:
  struct Row {
    Oid instance;
    std::int64_t port;  ///< 1-based position in the switch's port list
  };

  const std::vector<Row>& view() const {
    if (built_generation_ == sw_.fdb_generation()) return rows_;
    // Ports never leave a switch and a MAC can only be learned on an
    // existing port, so any port a row needs is here after a rebuild.
    const auto& nics = sw_.interfaces();
    port_index_.clear();
    for (std::size_t i = 0; i < nics.size(); ++i) {
      port_index_.emplace(nics[i].get(), static_cast<std::int64_t>(i + 1));
    }
    rows_.clear();
    rows_.reserve(sw_.fdb().size());
    for (const auto& [mac, port] : sw_.fdb()) {
      const auto index = port_index_.find(port);
      if (index == port_index_.end()) continue;
      rows_.push_back({fdb_instance(mac), index->second});
    }
    std::sort(rows_.begin(), rows_.end(), [](const Row& a, const Row& b) {
      return a.instance < b.instance;
    });
    built_generation_ = sw_.fdb_generation();
    return rows_;
  }

  const sim::Switch& sw_;
  // Lazily rebuilt view of sw_'s FDB. Generation 0 is a switch that has
  // learned nothing, which the empty view already matches.
  mutable std::vector<Row> rows_;
  mutable std::unordered_map<const sim::Nic*, std::int64_t> port_index_;
  mutable std::uint64_t built_generation_ = 0;
};

}  // namespace

Oid fdb_instance(const sim::MacAddress& mac) {
  std::vector<std::uint32_t> arcs;
  arcs.reserve(6);
  for (std::uint8_t octet : mac.octets()) arcs.push_back(octet);
  return mib2::kDot1dTpFdbPort.concat(Oid(std::move(arcs)));
}

void register_bridge_mib(MibTree& mib, const sim::Switch& sw) {
  mib.register_table(mib2::kDot1dTpFdbPort,
                     std::make_unique<FdbPortTable>(sw));
}

}  // namespace netqos::snmp
