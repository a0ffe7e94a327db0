#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "experiments/lirtss.h"
#include "history/store.h"
#include "monitor/qos.h"
#include "obs/metrics.h"
#include "query/engine.h"

namespace netqos::query {
namespace {

// One shared scenario for all engine tests: a pulse on the hub segment,
// both qos paths watched, 60 s of polling.
class QueryEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bed_.watch("S1", "N1").watch("S1", "S2");
    bed_.add_load("L", "N1",
                  load::RateProfile::pulse(seconds(10), seconds(40),
                                           kilobytes_per_second(200)));
    bed_.run_until(seconds(60));
  }

  exp::LirtssTestbed bed_;
};

TEST_F(QueryEngineTest, PathGroupReturnsUsedAndAvailRows) {
  QueryEngine engine(bed_.monitor());
  WindowRequest request;
  request.group = GroupBy::kPath;
  const WindowResponse response =
      engine.window(request, bed_.simulator().now());

  EXPECT_EQ(response.server_now, bed_.simulator().now());
  EXPECT_EQ(response.end, bed_.simulator().now());
  EXPECT_EQ(response.begin, 0);
  // Two paths x {used, avail}.
  ASSERT_EQ(response.rows.size(), 4u);
  // Rows are key-sorted.
  for (std::size_t i = 1; i < response.rows.size(); ++i) {
    EXPECT_LT(response.rows[i - 1].key, response.rows[i].key);
  }
  // Every row's aggregate matches a direct store query.
  for (const WindowRow& row : response.rows) {
    const hist::WindowSummary direct =
        bed_.monitor().history().query(row.key, response.begin, response.end);
    EXPECT_EQ(row.samples, direct.samples) << row.key;
    EXPECT_DOUBLE_EQ(row.mean, direct.mean) << row.key;
    EXPECT_DOUBLE_EQ(row.p95, direct.p95) << row.key;
  }
}

TEST_F(QueryEngineTest, SelectorFiltersRows) {
  QueryEngine engine(bed_.monitor());
  WindowRequest request;
  request.group = GroupBy::kPath;
  request.selector = "N1";
  const WindowResponse response =
      engine.window(request, bed_.simulator().now());
  ASSERT_EQ(response.rows.size(), 2u);
  for (const WindowRow& row : response.rows) {
    EXPECT_NE(row.key.find("N1"), std::string::npos) << row.key;
  }
}

TEST_F(QueryEngineTest, TrailingWindowResolvesAgainstNow) {
  QueryEngine engine(bed_.monitor());
  const SimTime now = bed_.simulator().now();
  WindowRequest request;
  request.group = GroupBy::kPath;
  request.begin = -20 * kSecond;  // trailing 20 s
  request.end = 0;                // server now
  const WindowResponse response = engine.window(request, now);
  EXPECT_EQ(response.end, now);
  EXPECT_EQ(response.begin, now - 20 * kSecond);
  // The trailing window holds fewer samples than the whole run.
  WindowRequest whole;
  whole.group = GroupBy::kPath;
  const WindowResponse all = engine.window(whole, now);
  ASSERT_FALSE(response.rows.empty());
  EXPECT_LT(response.rows[0].samples, all.rows[0].samples);
}

TEST_F(QueryEngineTest, InterfaceAndHostGroupsCoverPolledNodes) {
  QueryEngine engine(bed_.monitor());
  const SimTime now = bed_.simulator().now();

  WindowRequest by_if;
  by_if.group = GroupBy::kInterface;
  const WindowResponse interfaces = engine.window(by_if, now);
  ASSERT_FALSE(interfaces.rows.empty());
  for (const WindowRow& row : interfaces.rows) {
    EXPECT_TRUE(row.key.starts_with("if:")) << row.key;
  }

  WindowRequest by_host;
  by_host.group = GroupBy::kHost;
  const WindowResponse hosts = engine.window(by_host, now);
  ASSERT_FALSE(hosts.rows.empty());
  std::size_t if_samples = 0;
  std::size_t host_samples = 0;
  for (const WindowRow& row : interfaces.rows) if_samples += row.samples;
  for (const WindowRow& row : hosts.rows) {
    EXPECT_TRUE(row.key.starts_with("host:")) << row.key;
    host_samples += row.samples;
  }
  // Host rows merge interface rows: the sample totals must agree.
  EXPECT_EQ(host_samples, if_samples);

  // The switch is one host row even with eight interfaces.
  WindowRequest sw;
  sw.group = GroupBy::kHost;
  sw.selector = "sw0";
  const WindowResponse sw_rows = engine.window(sw, now);
  ASSERT_EQ(sw_rows.rows.size(), 1u);
  EXPECT_EQ(sw_rows.rows[0].key, "host:sw0");
}

TEST_F(QueryEngineTest, HealthSnapshotCoversAgentsAndPaths) {
  mon::ViolationDetector detector(bed_.monitor());
  detector.add_requirement("S1", "N1", kilobytes_per_second(500));
  QueryEngine engine(bed_.monitor());
  engine.set_violation_detector(&detector);

  const HealthResponse health = engine.health(bed_.simulator().now());
  EXPECT_EQ(health.server_now, bed_.simulator().now());
  EXPECT_EQ(health.agents.size(),
            bed_.monitor().scheduler().agents().size());
  ASSERT_EQ(health.paths.size(), 2u);
  for (const AgentHealthRow& agent : health.agents) {
    EXPECT_GT(agent.polls, 0u) << agent.node;
    EXPECT_EQ(agent.health, 0) << agent.node;  // healthy run
  }
  for (const PathHealthRow& path : health.paths) {
    EXPECT_GT(path.available, 0.0);
    EXPECT_TRUE(path.complete);
    EXPECT_FALSE(path.violated);  // 200 KB/s load leaves > 500 KB/s
    EXPECT_FALSE(path.warning);   // no predictive detector attached
  }
}

TEST_F(QueryEngineTest, HealthAppendsProviderProbeRows) {
  QueryEngine engine(bed_.monitor());
  // No provider wired: probe rows stay absent.
  EXPECT_TRUE(engine.health(bed_.simulator().now()).probes.empty());

  engine.set_probe_status_provider([] {
    ProbeStatusRow row;
    row.estimator = "periodic";
    row.from = "S1";
    row.to = "N1";
    row.convergence = 1;
    row.running = true;
    row.has_estimate = true;
    row.available = 950'000.0;
    row.estimates = 12;
    row.wire_bytes = 4'096;
    return std::vector<ProbeStatusRow>{row};
  });
  const HealthResponse health = engine.health(bed_.simulator().now());
  ASSERT_EQ(health.probes.size(), 1u);
  EXPECT_EQ(health.probes[0].estimator, "periodic");
  EXPECT_TRUE(health.probes[0].running);
  EXPECT_DOUBLE_EQ(health.probes[0].available, 950'000.0);
  // The provider rows ride along without perturbing the passive rows.
  EXPECT_EQ(health.paths.size(), 2u);
}

TEST(QueryEngine, EmptyMonitorYieldsEmptyRows) {
  exp::LirtssTestbed bed;
  bed.watch("S1", "N1");
  // No run: nothing polled yet.
  QueryEngine engine(bed.monitor());
  WindowRequest request;
  request.group = GroupBy::kPath;
  EXPECT_TRUE(engine.window(request, 0).rows.empty());
  const HealthResponse health = engine.health(0);
  EXPECT_EQ(health.paths.size(), 1u);
  EXPECT_FALSE(health.paths[0].complete);
}

// The interface and host groupings as they were first written: a copy
// of every store key per request, a per-key host string and a map of
// host rows. The store-level groupings must return exactly these rows.
bool reference_selected(const std::string& key, const std::string& selector) {
  return selector.empty() || key.find(selector) != std::string::npos;
}

WindowRow reference_row(const std::string& key,
                        const hist::WindowSummary& summary) {
  WindowRow row;
  row.key = key;
  row.samples = static_cast<std::uint32_t>(summary.samples);
  row.min = summary.min;
  row.mean = summary.mean;
  row.max = summary.max;
  row.p95 = summary.p95;
  row.resolution = summary.resolution;
  row.complete = summary.complete;
  return row;
}

std::vector<WindowRow> reference_interface_rows(
    const hist::HistoryStore& store, const std::string& selector,
    SimTime begin, SimTime end) {
  std::vector<WindowRow> rows;
  for (const std::string& key : store.keys()) {
    if (!key.starts_with("if:") || !reference_selected(key, selector)) {
      continue;
    }
    const hist::WindowSummary summary = store.query(key, begin, end);
    if (summary.samples == 0) continue;
    rows.push_back(reference_row(key, summary));
  }
  return rows;
}

std::vector<WindowRow> reference_host_rows(const hist::HistoryStore& store,
                                           const std::string& selector,
                                           SimTime begin, SimTime end) {
  std::map<std::string, WindowRow> hosts;
  for (const std::string& key : store.keys()) {
    if (!key.starts_with("if:")) continue;
    const std::size_t slash = key.find('/', 3);
    if (slash == std::string::npos) continue;
    const std::string host_key = "host:" + key.substr(3, slash - 3);
    if (!reference_selected(host_key, selector)) continue;
    const hist::WindowSummary summary = store.query(key, begin, end);
    auto [it, inserted] = hosts.try_emplace(host_key);
    if (inserted) it->second.key = host_key;
    WindowRow& into = it->second;
    if (summary.samples == 0) continue;
    if (into.samples == 0) {
      into = reference_row(host_key, summary);
      continue;
    }
    const double total = static_cast<double>(into.samples) +
                         static_cast<double>(summary.samples);
    into.mean = (into.mean * static_cast<double>(into.samples) +
                 summary.mean * static_cast<double>(summary.samples)) /
                total;
    into.min = std::min(into.min, summary.min);
    into.max = std::max(into.max, summary.max);
    into.p95 = std::max(into.p95, summary.p95);
    into.resolution = std::max(into.resolution, summary.resolution);
    into.complete = into.complete && summary.complete;
    into.samples += static_cast<std::uint32_t>(summary.samples);
  }
  std::vector<WindowRow> rows;
  for (auto& [key, row] : hosts) {
    if (row.samples != 0) rows.push_back(row);
  }
  return rows;
}

void expect_same_rows(std::vector<WindowRow> got,
                      const std::vector<WindowRow>& want,
                      const std::string& context) {
  std::sort(got.begin(), got.end(),
            [](const WindowRow& a, const WindowRow& b) { return a.key < b.key; });
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(context + " row " + want[i].key);
    EXPECT_EQ(got[i].key, want[i].key);
    EXPECT_EQ(got[i].samples, want[i].samples);
    EXPECT_EQ(got[i].min, want[i].min);
    EXPECT_EQ(got[i].mean, want[i].mean);
    EXPECT_EQ(got[i].max, want[i].max);
    EXPECT_EQ(got[i].p95, want[i].p95);
    EXPECT_EQ(got[i].resolution, want[i].resolution);
    EXPECT_EQ(got[i].complete, want[i].complete);
  }
}

TEST(StoreGrouping, MatchesPerKeyReferenceAroundForeignKeys) {
  hist::RetentionPolicy policy;
  policy.raw_capacity = 20;
  policy.tiers = {{10 * kSecond, 8}};
  hist::HistoryStore store(policy);
  obs::MetricsRegistry registry;
  store.attach_metrics(registry);
  // Non-"if:" keys sort before ("conn:", "if", "hello") and after
  // ("ig", "path:") the "if:" block; "if:orphan" has no '/' and is
  // skipped by the host grouping. Node "a" sits between "a-b" and "a0"
  // in key order, and "quiet" has nothing inside the late windows.
  const std::vector<std::string> keys = {
      "conn:1",        "hello",       "if",          "if:orphan",
      "if:a-b/eth0",   "if:a/eth0",   "if:a/eth1",   "if:a0/x",
      "if:sw0/port1",  "if:sw0/port2", "if:sw0/port3", "if:quiet/eth0",
      "ig",            "path:S1|N1:used"};
  for (int i = 0; i < 60; ++i) {
    for (std::size_t k = 0; k < keys.size(); ++k) {
      if (keys[k] == "if:quiet/eth0" && i > 5) continue;
      if (keys[k] == "if:a/eth1" && i % 3 == 1) continue;
      store.append(keys[k], seconds(2 * i),
                   static_cast<double>((i * 37 + k * 11) % 53) + 0.5 * k);
    }
  }
  const obs::Counter* queries =
      registry.find_counter("netqos_history_queries_total");
  ASSERT_NE(queries, nullptr);

  const std::vector<std::pair<SimTime, SimTime>> windows = {
      {0, seconds(120)},            {seconds(100), seconds(120)},
      {seconds(30), seconds(90)},   {seconds(119), seconds(119)},
      {seconds(200), seconds(300)}};
  for (const auto& [begin, end] : windows) {
    for (const std::string selector :
         {"", "sw0", "a", "host:a-", "eth0", "t:a/", "orphan", "nomatch"}) {
      const std::string context = selector + " @" + std::to_string(begin) +
                                  ".." + std::to_string(end);
      std::uint64_t before = queries->value();
      const std::vector<WindowRow> want_if =
          reference_interface_rows(store, selector, begin, end);
      const std::uint64_t reference_queries = queries->value() - before;
      before = queries->value();
      std::vector<WindowRow> got_if;
      interface_window_rows(store, selector, begin, end, got_if);
      EXPECT_EQ(queries->value() - before, reference_queries) << context;
      expect_same_rows(got_if, want_if, "interface " + context);

      before = queries->value();
      const std::vector<WindowRow> want_host =
          reference_host_rows(store, selector, begin, end);
      const std::uint64_t reference_host_queries = queries->value() - before;
      before = queries->value();
      std::vector<WindowRow> got_host;
      host_window_rows(store, selector, begin, end, got_host);
      EXPECT_EQ(queries->value() - before, reference_host_queries) << context;
      expect_same_rows(got_host, want_host, "host " + context);
    }
  }

  // Spot-check the grouping itself on the whole run.
  std::vector<WindowRow> hosts;
  host_window_rows(store, "", 0, seconds(120), hosts);
  std::vector<std::string> host_keys;
  for (const WindowRow& row : hosts) host_keys.push_back(row.key);
  std::sort(host_keys.begin(), host_keys.end());
  EXPECT_EQ(host_keys,
            (std::vector<std::string>{"host:a", "host:a-b", "host:a0",
                                      "host:quiet", "host:sw0"}));
}

TEST_F(QueryEngineTest, InterfaceAndHostGroupsMatchPerKeyReference) {
  QueryEngine engine(bed_.monitor());
  const hist::HistoryStore& store = bed_.monitor().stats_db().history();
  const SimTime now = bed_.simulator().now();
  for (const std::string selector : {"", "sw0", "S1", "eth", "host:N"}) {
    for (const SimTime begin : {SimTime{0}, now - 20 * kSecond}) {
      WindowRequest request;
      request.selector = selector;
      request.begin = begin;
      request.group = GroupBy::kInterface;
      const WindowResponse interfaces = engine.window(request, now);
      expect_same_rows(interfaces.rows,
                       reference_interface_rows(store, selector,
                                                interfaces.begin,
                                                interfaces.end),
                       "interface " + selector);
      request.group = GroupBy::kHost;
      const WindowResponse hosts = engine.window(request, now);
      expect_same_rows(hosts.rows,
                       reference_host_rows(store, selector, hosts.begin,
                                           hosts.end),
                       "host " + selector);
    }
  }
}

}  // namespace
}  // namespace netqos::query
