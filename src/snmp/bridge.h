// Bridge MIB binding (RFC 1493 subset) for switches.
//
// Serves dot1dTpFdbPort — the switch port each learned MAC address lives
// behind — from the live forwarding database. Registered as a MIB table
// provider because the FDB changes as the switch learns: rows appear and
// move between queries. The provider keeps a sorted view of the FDB and
// rebuilds it only when the switch's FDB generation changed, so a walk
// costs one binary search per row. This is the data source for the
// dynamic-topology-discovery extension (paper §5 future work).
#pragma once

#include "netsim/switch.h"
#include "snmp/mib.h"

namespace netqos::snmp {

/// Installs dot1dTpFdbPort on the agent's MIB, reflecting `sw`'s live
/// forwarding database; `sw` must outlive `mib`. Port numbers are 1-based
/// positions in the switch's interface list, matching the ifTable indices
/// deploy_agents produces for the same switch.
void register_bridge_mib(MibTree& mib, const sim::Switch& sw);

/// Converts a MAC to its dot1dTpFdbPort instance OID suffix.
Oid fdb_instance(const sim::MacAddress& mac);

}  // namespace netqos::snmp
