// Microbenchmarks: BER codec and SNMP message encode/decode throughput,
// including a zero-copy view scan against materializing decode_message
// (which is built on the same views). Exits non-zero if the scan is not
// at least 2x faster.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "snmp/ber.h"
#include "snmp/ber_view.h"
#include "snmp/pdu.h"

using namespace netqos;
using namespace netqos::snmp;

namespace {

Message make_poll_message(std::size_t interfaces) {
  // The monitor's per-agent poll: sysUpTime + 4 counters per interface.
  Message msg;
  msg.pdu.type = PduType::kGetRequest;
  msg.pdu.request_id = 42;
  msg.pdu.varbinds.push_back({mib2::kSysUpTime.child(0), Null{}});
  for (std::uint32_t i = 1; i <= interfaces; ++i) {
    for (std::uint32_t col : {mib2::kIfInOctetsColumn,
                              mib2::kIfOutOctetsColumn,
                              mib2::kIfInUcastPktsColumn,
                              mib2::kIfOutUcastPktsColumn}) {
      msg.pdu.varbinds.push_back({mib2::if_column(col, i), Null{}});
    }
  }
  return msg;
}

Message make_response(const Message& request) {
  Message response = request;
  response.pdu.type = PduType::kGetResponse;
  for (auto& vb : response.pdu.varbinds) {
    vb.value = Counter32{0xdeadbeef};
  }
  return response;
}

void BM_EncodeOid(benchmark::State& state) {
  const Oid oid = mib2::if_column(mib2::kIfInOctetsColumn, 3);
  for (auto _ : state) {
    ByteWriter w;
    ber::write_oid(w, oid);
    benchmark::DoNotOptimize(w.bytes().data());
  }
}
BENCHMARK(BM_EncodeOid);

void BM_DecodeOid(benchmark::State& state) {
  ByteWriter w;
  ber::write_oid(w, mib2::if_column(mib2::kIfInOctetsColumn, 3));
  const Bytes wire = std::move(w).take();
  for (auto _ : state) {
    BerReader r(wire);
    benchmark::DoNotOptimize(OidView{r.expect_tlv(ber::kTagOid)}.to_oid());
  }
}
BENCHMARK(BM_DecodeOid);

void BM_EncodePollRequest(benchmark::State& state) {
  const Message msg = make_poll_message(state.range(0));
  std::size_t bytes = 0;
  for (auto _ : state) {
    const Bytes wire = encode_message(msg);
    bytes += wire.size();
    benchmark::DoNotOptimize(wire.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_EncodePollRequest)->Arg(1)->Arg(4)->Arg(16);

void BM_DecodePollResponse(benchmark::State& state) {
  const Bytes wire =
      encode_message(make_response(make_poll_message(state.range(0))));
  std::size_t bytes = 0;
  for (auto _ : state) {
    const Message msg = decode_message(wire);
    bytes += wire.size();
    benchmark::DoNotOptimize(msg.pdu.varbinds.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_DecodePollResponse)->Arg(1)->Arg(4)->Arg(16);

/// The hot-path consumer: header fields plus every counter value, no
/// Message materialized and no heap traffic.
std::uint64_t view_scan(std::span<const std::uint8_t> wire) {
  MessageHeadView head = decode_message_head(wire);
  std::uint64_t sum = head.request_id;
  VarBindView vb;
  while (next_varbind(head.varbinds, vb)) {
    if (!vb.value.is_exception()) sum += vb.value.to_unsigned();
  }
  return sum;
}

void BM_ViewDecodePollResponse(benchmark::State& state) {
  const Bytes wire =
      encode_message(make_response(make_poll_message(state.range(0))));
  std::size_t bytes = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(view_scan(wire));
    bytes += wire.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_ViewDecodePollResponse)->Arg(1)->Arg(4)->Arg(16);

void BM_EncodePollRequestReused(benchmark::State& state) {
  const Message msg = make_poll_message(state.range(0));
  Bytes buffer;
  std::size_t bytes = 0;
  for (auto _ : state) {
    buffer = encode_message(msg, std::move(buffer));
    bytes += buffer.size();
    benchmark::DoNotOptimize(buffer.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_EncodePollRequestReused)->Arg(1)->Arg(4)->Arg(16);

void BM_RoundTripCounter32(benchmark::State& state) {
  for (auto _ : state) {
    ByteWriter w;
    ber::write_value(w, Counter32{123456789});
    BerReader r(w.bytes());
    const Tlv tlv = r.read_tlv();
    benchmark::DoNotOptimize(ValueView{tlv.tag, tlv.content}.to_value());
  }
}
BENCHMARK(BM_RoundTripCounter32);

/// Direct gate for the tentpole claim: the zero-copy view scan of a
/// 16-interface poll response must beat decode_message by >= 2x.
bool view_decode_gate() {
  const Bytes wire =
      encode_message(make_response(make_poll_message(16)));
  constexpr int kIters = 20000;
  const auto time = [&](auto&& body) {
    // One warm-up pass, then best-of-3 to damp scheduler noise.
    body();
    double best = 0;
    for (int rep = 0; rep < 3; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      for (int i = 0; i < kIters; ++i) body();
      const double ns = std::chrono::duration<double, std::nano>(
                            std::chrono::steady_clock::now() - start)
                            .count();
      if (rep == 0 || ns < best) best = ns;
    }
    return best / kIters;
  };
  std::uint64_t sink = 0;
  const double copy_ns = time([&] {
    const Message msg = decode_message(wire);
    sink += msg.pdu.varbinds.size();
  });
  const double view_ns = time([&] { sink += view_scan(wire); });
  benchmark::DoNotOptimize(sink);

  const double ratio = copy_ns / view_ns;
  std::printf("\nview-decode gate: decode_message %.0f ns, view scan "
              "%.0f ns -> %.2fx (need >= 2x): %s\n",
              copy_ns, view_ns, ratio, ratio >= 2.0 ? "ok" : "FAIL");
  return ratio >= 2.0;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return view_decode_gate() ? 0 : 1;
}
