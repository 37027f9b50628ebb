// Tests for the observability layer: JSON writer/parser round trips,
// metrics registry semantics, probe-trace JSON round trip, and the
// instrumented compose path producing a coherent snapshot.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/bcp.hpp"
#include "core/session.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "test_scenario.hpp"
#include "util/json.hpp"

namespace spider {
namespace {

using obs::MetricsRegistry;
using obs::ProbeTrace;
using obs::TraceEvent;
using obs::TraceRecord;
using util::JsonValue;
using util::JsonWriter;

// ----------------------------------------------------------------- JSON

TEST(Json, EscapesControlCharactersAndQuotes) {
  EXPECT_EQ(util::json_escape("plain"), "plain");
  EXPECT_EQ(util::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(util::json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(util::json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, WriterProducesCompactDocument) {
  JsonWriter w;
  w.begin_object();
  w.key("name");
  w.value("spider");
  w.key("count");
  w.value(std::uint64_t(3));
  w.key("list");
  w.begin_array();
  w.value(1.5);
  w.value(true);
  w.null();
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(), "{\"name\":\"spider\",\"count\":3,\"list\":[1.5,true,null]}");
}

TEST(Json, ParserRoundTripsWriterOutput) {
  JsonWriter w;
  w.begin_object();
  w.key("pi");
  w.value(3.25);
  w.key("neg");
  w.value(std::int64_t(-42));
  w.key("text");
  w.value("he said \"hi\"\n");
  w.key("nested");
  w.begin_object();
  w.key("empty");
  w.begin_array();
  w.end_array();
  w.end_object();
  w.end_object();

  auto parsed = util::json_parse(w.str());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->is_object());
  EXPECT_DOUBLE_EQ(parsed->number_or("pi", 0.0), 3.25);
  EXPECT_DOUBLE_EQ(parsed->number_or("neg", 0.0), -42.0);
  EXPECT_EQ(parsed->string_or("text", ""), "he said \"hi\"\n");
  const JsonValue* nested = parsed->find("nested");
  ASSERT_NE(nested, nullptr);
  const JsonValue* empty = nested->find("empty");
  ASSERT_NE(empty, nullptr);
  EXPECT_TRUE(empty->is_array());
  EXPECT_TRUE(empty->array.empty());
}

TEST(Json, ParserRejectsMalformedInput) {
  EXPECT_FALSE(util::json_parse("").has_value());
  EXPECT_FALSE(util::json_parse("{").has_value());
  EXPECT_FALSE(util::json_parse("{\"a\":1,}").has_value());
  EXPECT_FALSE(util::json_parse("[1,2] trailing").has_value());
  EXPECT_FALSE(util::json_parse("nul").has_value());
  EXPECT_FALSE(util::json_parse("\"unterminated").has_value());
}

TEST(Json, ParserHandlesUnicodeEscapes) {
  auto parsed = util::json_parse("\"a\\u0041\\u00e9\"");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->string, "aA\xc3\xa9");
}

// -------------------------------------------------------------- metrics

TEST(Metrics, CounterGaugeBasics) {
  MetricsRegistry reg;
  obs::Counter& c = reg.counter("x.count");
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
  // Find-or-create returns the same instrument.
  EXPECT_EQ(&reg.counter("x.count"), &c);

  obs::Gauge& g = reg.gauge("x.level");
  g.set(10.0);
  g.add(2.5);
  g.sub(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 12.0);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(Metrics, HistogramBucketsAndOverflow) {
  MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("x.latency", {1.0, 10.0, 100.0});
  h.observe(0.5);    // bucket 0 (<= 1)
  h.observe(1.0);    // bucket 0 (inclusive bound)
  h.observe(5.0);    // bucket 1
  h.observe(1000.0); // overflow
  ASSERT_EQ(h.counts().size(), 4u);
  EXPECT_EQ(h.counts()[0], 2u);
  EXPECT_EQ(h.counts()[1], 1u);
  EXPECT_EQ(h.counts()[2], 0u);
  EXPECT_EQ(h.counts()[3], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 1006.5);
}

TEST(Metrics, JsonSnapshotParsesBack) {
  MetricsRegistry reg;
  reg.counter("bcp.probes_spawned").inc(17);
  reg.gauge("alloc.holds_outstanding").set(3.0);
  reg.histogram("bcp.setup_time_ms", {10.0, 100.0}).observe(42.0);

  auto parsed = util::json_parse(reg.to_json());
  ASSERT_TRUE(parsed.has_value());
  const JsonValue* counters = parsed->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->number_or("bcp.probes_spawned", 0.0), 17.0);
  const JsonValue* gauges = parsed->find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->number_or("alloc.holds_outstanding", 0.0), 3.0);
  const JsonValue* hists = parsed->find("histograms");
  ASSERT_NE(hists, nullptr);
  const JsonValue* setup = hists->find("bcp.setup_time_ms");
  ASSERT_NE(setup, nullptr);
  EXPECT_DOUBLE_EQ(setup->number_or("count", 0.0), 1.0);
  EXPECT_DOUBLE_EQ(setup->number_or("sum", 0.0), 42.0);
  const JsonValue* counts = setup->find("counts");
  ASSERT_NE(counts, nullptr);
  ASSERT_EQ(counts->array.size(), 3u);
  EXPECT_DOUBLE_EQ(counts->array[1].number, 1.0);
}

TEST(Metrics, WriteJsonToFile) {
  MetricsRegistry reg;
  reg.counter("a").inc();
  const std::string path = ::testing::TempDir() + "/spider_metrics_test.json";
  ASSERT_TRUE(reg.write_json(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[256] = {};
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  std::remove(path.c_str());
  auto parsed = util::json_parse(std::string(buf, n > 0 && buf[n - 1] == '\n'
                                                      ? n - 1
                                                      : n));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ(parsed->find("counters")->number_or("a", 0.0), 1.0);
}

TEST(Metrics, WriteJsonReportsAFailedClose) {
  // /dev/full accepts the open and the buffered writes; the flush at
  // close fails with ENOSPC, so the snapshot was lost.
  MetricsRegistry reg;
  reg.counter("a").inc();
  EXPECT_FALSE(reg.write_json("/dev/full"));
}

TEST(Metrics, MergeSumsAllInstrumentKinds) {
  MetricsRegistry a, b;
  a.counter("c").inc(3);
  b.counter("c").inc(4);
  b.counter("only_b").inc(1);
  a.gauge("g").set(2.0);
  b.gauge("g").set(5.0);
  a.histogram("h", {1.0, 10.0}).observe(0.5);
  b.histogram("h", {1.0, 10.0}).observe(5.0);
  b.histogram("h", {1.0, 10.0}).observe(50.0);

  a.merge(b);
  EXPECT_EQ(a.counter("c").value(), 7u);
  EXPECT_EQ(a.counter("only_b").value(), 1u);  // created on demand
  EXPECT_DOUBLE_EQ(a.gauge("g").value(), 7.0);
  const obs::Histogram& h = a.histogram("h", {1.0, 10.0});
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 55.5);
  ASSERT_EQ(h.counts().size(), 3u);
  EXPECT_EQ(h.counts()[0], 1u);
  EXPECT_EQ(h.counts()[1], 1u);
  EXPECT_EQ(h.counts()[2], 1u);
}

TEST(Metrics, PerCellMergeMatchesSharedRegistrySnapshot) {
  // The property run_campaign_cells relies on: merging per-cell
  // registries in cell order must reproduce, byte for byte, the JSON a
  // single registry shared by serially executed cells would produce.
  auto record_cell = [](MetricsRegistry& reg, std::uint64_t cell) {
    reg.counter("bcp.requests").inc(cell + 1);
    reg.gauge("alloc.holds_outstanding").add(double(cell));
    reg.gauge("alloc.holds_outstanding").sub(double(cell));  // drains to 0
    reg.histogram("bcp.setup_time_ms", {10.0, 100.0})
        .observe(double(cell) * 40.0 + 5.0);
  };

  MetricsRegistry shared;
  for (std::uint64_t cell = 0; cell < 3; ++cell) record_cell(shared, cell);

  MetricsRegistry merged;
  for (std::uint64_t cell = 0; cell < 3; ++cell) {
    MetricsRegistry per_cell;
    record_cell(per_cell, cell);
    merged.merge(per_cell);
  }
  EXPECT_EQ(merged.to_json(), shared.to_json());
}

// ---------------------------------------------------------------- trace

TEST(Trace, EventNamesRoundTrip) {
  for (int e = int(TraceEvent::kSeedSpawned); e <= int(TraceEvent::kGraphSelected);
       ++e) {
    const char* name = obs::trace_event_name(TraceEvent(e));
    auto back = obs::trace_event_from_name(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(int(*back), e);
  }
  EXPECT_FALSE(obs::trace_event_from_name("bogus_event").has_value());
}

TEST(Trace, JsonRoundTripPreservesRecords) {
  ProbeTrace trace;
  TraceRecord seed;
  seed.event = TraceEvent::kSeedSpawned;
  seed.pattern = 0;
  seed.branch = 1;
  seed.peer = 7;
  seed.value = 16.0;
  trace.record(seed);
  TraceRecord drop;
  drop.event = TraceEvent::kProbeDropped;
  drop.time_ms = 12.5;
  drop.pattern = 0;
  drop.branch = 1;
  drop.peer = 9;
  drop.note = "qos_violation";
  trace.record(drop);
  TraceRecord hold;
  hold.event = TraceEvent::kHoldAcquired;
  hold.time_ms = 3.25;
  hold.node = 2;
  hold.value = 300.0;
  trace.record(hold);

  auto back = ProbeTrace::from_json(trace.to_json());
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->events().size(), 3u);
  EXPECT_EQ(back->events()[0], trace.events()[0]);
  EXPECT_EQ(back->events()[1], trace.events()[1]);
  EXPECT_EQ(back->events()[2], trace.events()[2]);
  EXPECT_EQ(back->dropped_events(), 0u);
}

TEST(Trace, CapBoundsMemoryAndReportsDrops) {
  ProbeTrace trace(2);
  for (int i = 0; i < 5; ++i) {
    TraceRecord r;
    r.event = TraceEvent::kHopTaken;
    r.time_ms = double(i);
    trace.record(r);
  }
  EXPECT_EQ(trace.events().size(), 2u);
  EXPECT_EQ(trace.dropped_events(), 3u);
  EXPECT_EQ(trace.count(TraceEvent::kHopTaken), 2u);

  auto back = ProbeTrace::from_json(trace.to_json());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->dropped_events(), 3u);
}

TEST(Trace, FromJsonRejectsMalformed) {
  EXPECT_FALSE(ProbeTrace::from_json("not json").has_value());
  EXPECT_FALSE(ProbeTrace::from_json("{}").has_value());
  EXPECT_FALSE(ProbeTrace::from_json(
                   "{\"events\":[{\"event\":\"no_such_event\"}],\"dropped\":0}")
                   .has_value());
}

// --------------------------------------------- instrumented compose path

TEST(ObsIntegration, ComposePublishesMetricsAndTrace) {
  auto s = spider::testing::small_scenario();
  core::BcpEngine bcp(*s->deployment, *s->alloc, *s->evaluator, s->sim,
                      core::BcpConfig{});
  MetricsRegistry metrics;
  ProbeTrace trace;
  bcp.set_observability(&metrics, &trace);
  s->alloc->set_metrics(&metrics);
  s->deployment->registry().set_metrics(&metrics);
  s->deployment->dht().set_metrics(&metrics);

  Rng rng{5};
  auto req = spider::testing::easy_request(*s);
  core::ComposeResult r = bcp.compose(req, rng);
  ASSERT_TRUE(r.success);
  for (core::HoldId h : r.best_holds) s->alloc->release_hold(h);

  // The registry mirrors the request's ComposeStats...
  EXPECT_EQ(metrics.counter("bcp.requests").value(), 1u);
  EXPECT_EQ(metrics.counter("bcp.compose_success").value(), 1u);
  EXPECT_EQ(metrics.counter("bcp.probes_spawned").value(),
            r.stats.probes_spawned);
  EXPECT_EQ(metrics.counter("bcp.holds_acquired").value(),
            r.stats.holds_acquired);
  // ...the allocator counted every reservation the engine made...
  EXPECT_GE(metrics.counter("alloc.holds_reserved").value(),
            r.stats.holds_acquired);
  EXPECT_EQ(metrics.gauge("alloc.holds_outstanding").value(), 0.0);
  // ...and discovery went through the DHT.
  EXPECT_GT(metrics.counter("discovery.lookups").value(), 0u);
  EXPECT_GT(metrics.counter("dht.routes").value(), 0u);

  // The trace saw the whole request life cycle.
  EXPECT_GT(trace.count(TraceEvent::kSeedSpawned), 0u);
  EXPECT_GT(trace.count(TraceEvent::kHopTaken), 0u);
  EXPECT_EQ(trace.count(TraceEvent::kHoldAcquired), r.stats.holds_acquired);
  EXPECT_EQ(trace.count(TraceEvent::kHoldReused), r.stats.holds_reused);
  EXPECT_EQ(trace.count(TraceEvent::kGraphSelected), 1u);

  // And the whole snapshot survives a JSON round trip.
  auto parsed = util::json_parse(metrics.to_json());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ(parsed->find("counters")->number_or("bcp.requests", 0.0),
                   1.0);
  auto trace_back = ProbeTrace::from_json(trace.to_json());
  ASSERT_TRUE(trace_back.has_value());
  EXPECT_EQ(trace_back->events().size(), trace.events().size());
}

TEST(ObsIntegration, RegistryMirrorsEveryComposeCounter) {
  auto s = spider::testing::small_scenario();
  core::BcpEngine bcp(*s->deployment, *s->alloc, *s->evaluator, s->sim,
                      core::BcpConfig{});
  MetricsRegistry metrics;
  bcp.set_observability(&metrics, nullptr);
  // Loss moves the retransmission and loss counters too.
  const fault::LinkFaultModel faults = fault::LinkFaultModel::uniform_loss(0.2);
  bcp.set_fault_model(&faults);

  core::ComposeStats total;
  std::uint64_t successes = 0;
  Rng rng{5};
  for (overlay::PeerId p = 0; p < 12; p += 2) {
    core::ComposeResult r =
        bcp.compose(spider::testing::easy_request(*s, 3, p, p + 1), rng);
    for (const auto& row : core::kComposeCounters) {
      total.*row.field += r.stats.*row.field;
    }
    successes += r.success ? 1 : 0;
    for (core::HoldId h : r.best_holds) s->alloc->release_hold(h);
  }
  EXPECT_GT(total.probe_retransmits, 0u);
  for (const auto& row : core::kComposeCounters) {
    EXPECT_EQ(metrics.counter(row.metric).value(), total.*row.field)
        << row.metric;
  }
  EXPECT_EQ(metrics.counter("bcp.requests").value(), 6u);
  EXPECT_EQ(metrics.counter("bcp.compose_success").value(), successes);
}

TEST(ObsIntegration, RegistryMirrorsEverySessionCounter) {
  auto s = spider::testing::small_scenario(/*seed=*/17, /*peers=*/64);
  core::BcpConfig config;
  config.probing_budget = 128;
  core::BcpEngine bcp(*s->deployment, *s->alloc, *s->evaluator, s->sim,
                      config);
  core::RecoveryConfig recovery;
  recovery.backup_aggressiveness = 30.0;
  core::SessionManager manager(*s->deployment, *s->alloc, *s->evaluator, bcp,
                               s->sim, recovery);
  MetricsRegistry metrics;
  manager.set_metrics(&metrics);

  // Establish, switch to a backup after a peer failure, maintain, tear down.
  Rng rng{23};
  const auto req = spider::testing::backup_request(*s, bcp, rng);
  core::ComposeResult r = bcp.compose(req, rng);
  ASSERT_TRUE(r.success);
  const core::SessionId id = manager.establish(req, std::move(r));
  ASSERT_NE(id, core::kInvalidSession);
  const overlay::PeerId victim = manager.active_graph(id)->mapping[0].host;
  s->deployment->kill_peer(victim);
  const auto outcomes = manager.on_peer_failed(victim, rng);
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_EQ(outcomes[0], core::RecoveryOutcome::kSwitchedToBackup);
  manager.run_maintenance();
  manager.teardown(id);

  const core::SessionStats& stats = manager.stats();
  EXPECT_EQ(stats.established, 1u);
  EXPECT_EQ(stats.backup_switches, 1u);
  EXPECT_EQ(stats.teardowns, 1u);
  for (const auto& row : core::kSessionCounters) {
    EXPECT_EQ(metrics.counter(row.metric).value(), stats.*row.field)
        << row.metric;
  }
  EXPECT_EQ(metrics.gauge("session.active").value(), 0.0);
}

}  // namespace
}  // namespace spider
