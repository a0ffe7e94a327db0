#include "netsim/udp.h"

#include "common/log.h"
#include "netsim/simulator.h"

namespace netqos::sim {

UdpStack::UdpStack(Simulator& sim, Ipv4Address ip, MacAddress mac,
                   const ArpResolver& arp, FrameSender sender)
    : sim_(sim), ip_(ip), mac_(mac), arp_(arp), sender_(std::move(sender)) {}

bool UdpStack::bind(std::uint16_t port, Handler handler) {
  return handlers_.emplace(port, std::move(handler)).second;
}

void UdpStack::unbind(std::uint16_t port) { handlers_.erase(port); }

std::uint16_t UdpStack::allocate_ephemeral_port() {
  for (int attempts = 0; attempts < 16384; ++attempts) {
    const std::uint16_t port = next_ephemeral_;
    next_ephemeral_ = next_ephemeral_ == 65535
                          ? static_cast<std::uint16_t>(49152)
                          : static_cast<std::uint16_t>(next_ephemeral_ + 1);
    if (!bound(port)) return port;
  }
  return 0;  // every ephemeral port bound — caller treats 0 as failure
}

bool UdpStack::send(Ipv4Address dst, std::uint16_t dst_port,
                    std::uint16_t src_port, Bytes payload,
                    std::size_t padding) {
  if (dst == ip_) {
    // Loopback: deliver locally without generating wire traffic, after a
    // small in-kernel scheduling delay. The event captures only what the
    // packet needs beyond this stack's own address, so it fits
    // EventCallback's inline buffer and schedules without allocating.
    ++stats_.datagrams_sent;
    auto loopback = [this, payload = std::move(payload), padding, src_port,
                     dst_port]() mutable {
      Ipv4Packet packet;
      packet.src = ip_;
      packet.dst = ip_;
      packet.udp.src_port = src_port;
      packet.udp.dst_port = dst_port;
      packet.udp.payload = std::move(payload);
      packet.udp.padding = padding;
      deliver(packet);
      sim_.buffer_pool().release(std::move(packet.udp.payload));
    };
    static_assert(EventCallback::kStoredInline<decltype(loopback)>);
    sim_.schedule_after(10 * kMicrosecond, std::move(loopback));
    return true;
  }
  const auto dst_mac = arp_.resolve(dst);
  if (!dst_mac) {
    ++stats_.send_failures;
    NETQOS_DEBUG() << "UDP send to unresolvable " << dst.to_string();
    return false;
  }
  EthernetFrame frame;
  frame.src = mac_;
  frame.dst = *dst_mac;
  frame.ip.src = ip_;
  frame.ip.dst = dst;
  frame.ip.udp.src_port = src_port;
  frame.ip.udp.dst_port = dst_port;
  frame.ip.udp.payload = std::move(payload);
  frame.ip.udp.padding = padding;
  if (!sender_(make_pooled_frame(std::move(frame), &sim_.buffer_pool()))) {
    ++stats_.send_failures;
    return false;
  }
  ++stats_.datagrams_sent;
  return true;
}

void UdpStack::deliver(const Ipv4Packet& packet) {
  auto it = handlers_.find(packet.udp.dst_port);
  if (it == handlers_.end()) {
    ++stats_.no_handler_drops;
    return;
  }
  ++stats_.datagrams_received;
  it->second(packet);
}

}  // namespace netqos::sim
