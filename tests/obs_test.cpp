#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/chaos.h"
#include "core/system.h"
#include "fault/chaos.h"
#include "obs/bench_output.h"
#include "obs/incident.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "obs/trace_analysis.h"
#include "sim/simulator.h"
#include "util/table.h"

namespace vcl::obs {
namespace {

// ---- JsonWriter -------------------------------------------------------------

TEST(JsonWriter, ObjectsArraysAndEscaping) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.key("s").value("a\"b\\c\n");
  w.key("n").value(1.5);
  w.key("arr").begin_array();
  w.value(std::uint64_t{7});
  w.value(true);
  w.null();
  w.end_array();
  w.end_object();
  EXPECT_EQ(os.str(), R"({"s":"a\"b\\c\n","n":1.5,"arr":[7,true,null]})");
}

TEST(JsonWriter, NonFiniteNumbersBecomeNull) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_array();
  w.value(std::numeric_limits<double>::infinity());
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.end_array();
  EXPECT_EQ(os.str(), "[null,null]");
}

TEST(JsonWriter, ValueAutoDistinguishesNumbersFromStrings) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_array();
  w.value_auto("3.25");
  w.value_auto("-17");
  w.value_auto("1e3");
  w.value_auto("12ab");  // partial parse -> string
  w.value_auto("");
  w.value_auto("kinematic");
  w.end_array();
  EXPECT_EQ(os.str(), R"([3.25,-17,1000,"12ab","","kinematic"])");
}

// ---- TraceRecorder ----------------------------------------------------------

TEST(TraceRecorder, RecordsEventsInOrder) {
  TraceRecorder rec(16);
  rec.record(1.0, TraceCategory::kNet, "net.tx", {{"bytes", 100.0}});
  rec.record(2.0, TraceCategory::kTask, "task.submit",
             {{"task", 1.0}, {"work", 20.0}});
  ASSERT_EQ(rec.size(), 2u);
  const auto evs = rec.events();
  EXPECT_DOUBLE_EQ(evs[0].t, 1.0);
  EXPECT_STREQ(evs[0].name, "net.tx");
  EXPECT_EQ(evs[0].n_fields, 1);
  EXPECT_STREQ(evs[0].fields[0].key, "bytes");
  EXPECT_DOUBLE_EQ(evs[0].fields[0].value, 100.0);
  EXPECT_EQ(evs[1].cat, TraceCategory::kTask);
  EXPECT_EQ(evs[1].n_fields, 2);
}

TEST(TraceRecorder, MaskFiltersCategories) {
  TraceRecorder rec(16, category_bit(TraceCategory::kFault));
  EXPECT_FALSE(rec.enabled(TraceCategory::kNet));
  EXPECT_TRUE(rec.enabled(TraceCategory::kFault));
  rec.record(1.0, TraceCategory::kNet, "net.tx");
  rec.record(2.0, TraceCategory::kFault, "fault.crash");
  ASSERT_EQ(rec.size(), 1u);
  EXPECT_STREQ(rec.events()[0].name, "fault.crash");
  EXPECT_EQ(rec.recorded(), 1u);  // masked events never count as recorded
}

TEST(TraceRecorder, RingOverwritesOldestAndCountsLoss) {
  TraceRecorder rec(4);
  for (int i = 0; i < 10; ++i) {
    rec.record(i, TraceCategory::kSim, "tick", {{"i", double(i)}});
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.recorded(), 10u);
  EXPECT_EQ(rec.overwritten(), 6u);
  const auto evs = rec.events();
  // Oldest-first reconstruction: the last four ticks, in order.
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(evs[static_cast<std::size_t>(i)].t, 6.0 + i);
  }
}

TEST(TraceRecorder, ExtraFieldsBeyondMaxAreDropped) {
  TraceRecorder rec(4);
  rec.record(0.0, TraceCategory::kSim, "big",
             {{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4}, {"e", 5}});
  EXPECT_EQ(rec.events()[0].n_fields, TraceRecorder::kMaxFields);
  // The overflow is counted, not silently lost, and surfaces in the JSONL
  // metadata record alongside the ring accounting.
  EXPECT_EQ(rec.dropped_fields(), 1u);
  rec.record(0.5, TraceCategory::kSim, "bigger",
             {{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4}, {"e", 5}, {"f", 6}});
  EXPECT_EQ(rec.dropped_fields(), 3u);
  std::ostringstream os;
  rec.write_jsonl(os);
  EXPECT_NE(os.str().find("\"dropped_fields\":3"), std::string::npos);
}

TEST(TraceRecorder, JsonlOneObjectPerLine) {
  TraceRecorder rec(8);
  rec.record(1.5, TraceCategory::kTask, "task.submit", {{"task", 1.0}});
  rec.record(2.0, TraceCategory::kNet, "net.drop");
  std::ostringstream os;
  rec.write_jsonl(os);
  EXPECT_EQ(os.str(),
            "{\"meta\":\"vcl-trace-v1\",\"capacity\":8,\"recorded\":2,"
            "\"retained\":2,\"overwritten\":0,\"dropped_fields\":0}\n"
            "{\"t\":1.5,\"cat\":\"task\",\"name\":\"task.submit\",\"task\":1}\n"
            "{\"t\":2,\"cat\":\"net\",\"name\":\"net.drop\"}\n");
}

TEST(TraceRecorder, ChromeTraceShape) {
  TraceRecorder rec(8);
  rec.record(1.5, TraceCategory::kFault, "fault.crash", {{"vehicle", 3.0}});
  std::ostringstream os;
  rec.write_chrome_trace(os);
  const std::string doc = os.str();
  // Instant event at sim 1.5s -> 1.5e6 trace microseconds on the fault track.
  EXPECT_NE(doc.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"fault.crash\",\"cat\":\"fault\",\"ph\":\"i\","
                     "\"s\":\"g\",\"ts\":1500000"),
            std::string::npos);
  // Per-category track names ride thread_name metadata events.
  EXPECT_NE(doc.find("\"name\":\"thread_name\",\"ph\":\"M\""),
            std::string::npos);
  EXPECT_NE(doc.find("{\"name\":\"task\"}"), std::string::npos);
}

TEST(TraceRecorder, ClearResets) {
  TraceRecorder rec(4);
  rec.record(1.0, TraceCategory::kSim, "x");
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_TRUE(rec.events().empty());
}

// ---- Causal spans -----------------------------------------------------------

TEST(TraceSpans, BeginEndCarryCausalIds) {
  TraceRecorder rec(16);
  const std::uint64_t trace = rec.new_trace_id();
  const std::uint64_t root = rec.begin_span(
      1.0, TraceCategory::kTask, "task.life", TraceContext{trace, 0},
      {{"task", 7.0}});
  ASSERT_NE(root, 0u);
  const std::uint64_t leg = rec.begin_span(1.0, TraceCategory::kTask,
                                           "leg.queue",
                                           TraceContext{trace, root});
  ASSERT_NE(leg, 0u);
  EXPECT_NE(leg, root);  // span ids are unique within the recorder
  rec.end_span(3.0, TraceCategory::kTask, "leg.queue",
               TraceContext{trace, leg});
  rec.end_span(4.0, TraceCategory::kTask, "task.life",
               TraceContext{trace, root}, {{"outcome", kOutcomeCompleted}});

  const auto evs = rec.events();
  ASSERT_EQ(evs.size(), 4u);
  EXPECT_EQ(evs[0].phase, TracePhase::kBegin);
  EXPECT_EQ(evs[0].trace_id, trace);
  EXPECT_EQ(evs[0].span_id, root);
  EXPECT_EQ(evs[0].parent_id, 0u);  // root span
  EXPECT_EQ(evs[1].phase, TracePhase::kBegin);
  EXPECT_EQ(evs[1].span_id, leg);
  EXPECT_EQ(evs[1].parent_id, root);  // child points at the root span
  EXPECT_EQ(evs[2].phase, TracePhase::kEnd);
  EXPECT_EQ(evs[2].span_id, leg);
  EXPECT_EQ(evs[3].phase, TracePhase::kEnd);
  EXPECT_EQ(evs[3].span_id, root);
  EXPECT_EQ(evs[3].trace_id, trace);
}

TEST(TraceSpans, MaskedCategoryYieldsZeroIdAndEndOfZeroIsNoOp) {
  TraceRecorder rec(16, category_bit(TraceCategory::kNet));
  const std::uint64_t id = rec.begin_span(
      1.0, TraceCategory::kTask, "task.life", TraceContext{1, 0});
  EXPECT_EQ(id, 0u);
  rec.end_span(2.0, TraceCategory::kTask, "task.life", TraceContext{1, id});
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.recorded(), 0u);
}

TEST(TraceSpans, JsonlCarriesPhaseAndIdKeys) {
  TraceRecorder rec(8);
  const std::uint64_t trace = rec.new_trace_id();
  const std::uint64_t root = rec.begin_span(
      0.5, TraceCategory::kTask, "task.life", TraceContext{trace, 0});
  const std::uint64_t leg = rec.begin_span(0.5, TraceCategory::kTask,
                                           "leg.queue",
                                           TraceContext{trace, root});
  rec.end_span(2.0, TraceCategory::kTask, "leg.queue",
               TraceContext{trace, leg});
  std::ostringstream os;
  rec.write_jsonl(os);
  const std::string doc = os.str();
  EXPECT_NE(doc.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(doc.find("\"trace\":" + std::to_string(trace)),
            std::string::npos);
  EXPECT_NE(doc.find("\"span\":" + std::to_string(root)), std::string::npos);
  EXPECT_NE(doc.find("\"parent\":" + std::to_string(root)),
            std::string::npos);
  // Context-free instants stay byte-identical to the pre-span format: no
  // ph/trace/span/parent keys appear on them.
  rec.clear();
  rec.record(1.0, TraceCategory::kNet, "net.drop");
  std::ostringstream plain;
  rec.write_jsonl(plain);
  EXPECT_NE(plain.str().find("{\"t\":1,\"cat\":\"net\",\"name\":"
                             "\"net.drop\"}\n"),
            std::string::npos);
}

TEST(TraceSpans, ChromeTraceFoldsMatchedPairsIntoCompleteSlices) {
  TraceRecorder rec(8);
  const std::uint64_t trace = rec.new_trace_id();
  const std::uint64_t root = rec.begin_span(
      1.0, TraceCategory::kTask, "task.life", TraceContext{trace, 0});
  rec.end_span(3.0, TraceCategory::kTask, "task.life",
               TraceContext{trace, root});
  std::ostringstream os;
  rec.write_chrome_trace(os);
  const std::string doc = os.str();
  // Matched B/E pair -> one complete "X" slice of 2 s == 2e6 trace us.
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"dur\":2000000"), std::string::npos);
  // Ring accounting rides along for consumers of the Perfetto view.
  EXPECT_NE(doc.find("\"otherData\""), std::string::npos);
}

// ---- TraceAnalysis ----------------------------------------------------------

TEST(TraceAnalysis, BreakdownLegsSumToEndToEnd) {
  TraceRecorder rec(64);
  const std::uint64_t trace = rec.new_trace_id();
  TraceContext root_ctx{trace, 0};
  root_ctx.span_id = rec.begin_span(0.0, TraceCategory::kTask, "task.life",
                                    root_ctx, {{"task", 42.0}});
  // Legs partition [0, 10]: queue [0,2], dispatch [2,3], exec [3,10] with
  // 1 s of input transfer that the analyzer re-attributes to the network.
  std::uint64_t leg =
      rec.begin_span(0.0, TraceCategory::kTask, "leg.queue", root_ctx);
  rec.end_span(2.0, TraceCategory::kTask, "leg.queue",
               TraceContext{trace, leg});
  leg = rec.begin_span(2.0, TraceCategory::kTask, "leg.dispatch", root_ctx);
  rec.end_span(3.0, TraceCategory::kTask, "leg.dispatch",
               TraceContext{trace, leg});
  leg = rec.begin_span(3.0, TraceCategory::kTask, "leg.exec", root_ctx,
                       {{"input_s", 1.0}});
  rec.end_span(10.0, TraceCategory::kTask, "leg.exec",
               TraceContext{trace, leg});
  rec.end_span(10.0, TraceCategory::kTask, "task.life", root_ctx,
               {{"outcome", kOutcomeCompleted}});

  std::stringstream ss;
  rec.write_jsonl(ss);
  std::vector<ParsedEvent> events;
  TraceMeta meta;
  std::string error;
  ASSERT_TRUE(parse_trace_jsonl(ss, events, meta, &error)) << error;
  EXPECT_TRUE(meta.complete());

  const TraceAnalysis analysis(events);
  ASSERT_EQ(analysis.tasks().size(), 1u);
  const TaskBreakdown& bd = analysis.tasks()[0];
  EXPECT_EQ(bd.trace_id, trace);
  EXPECT_DOUBLE_EQ(bd.task, 42.0);
  EXPECT_EQ(bd.outcome, "completed");
  EXPECT_DOUBLE_EQ(bd.end_to_end(), 10.0);
  EXPECT_DOUBLE_EQ(bd.queueing, 2.0);
  EXPECT_DOUBLE_EQ(bd.network, 2.0);  // 1 s dispatch + 1 s input transfer
  EXPECT_DOUBLE_EQ(bd.compute, 6.0);  // exec minus its input share
  EXPECT_DOUBLE_EQ(bd.recovery, 0.0);
  EXPECT_DOUBLE_EQ(bd.other, 0.0);
  EXPECT_DOUBLE_EQ(bd.legs_sum(), bd.end_to_end());
  EXPECT_EQ(analysis.orphaned_spans(), 0u);
  EXPECT_EQ(analysis.unmatched_ends(), 0u);
}

TEST(TraceAnalysis, OrphanedSpansAreDiagnosedNotInvented) {
  TraceRecorder rec(64);
  const std::uint64_t trace = rec.new_trace_id();
  TraceContext root_ctx{trace, 0};
  root_ctx.span_id =
      rec.begin_span(1.0, TraceCategory::kTask, "task.life", root_ctx);
  rec.begin_span(1.0, TraceCategory::kTask, "leg.queue", root_ctx);
  // Run ends here: neither span is ever closed.
  std::stringstream ss;
  rec.write_jsonl(ss);
  std::vector<ParsedEvent> events;
  TraceMeta meta;
  ASSERT_TRUE(parse_trace_jsonl(ss, events, meta));
  const TraceAnalysis analysis(events);
  ASSERT_EQ(analysis.tasks().size(), 1u);
  // The open root is reported as the task's outcome, not double-counted as
  // an orphan; the unclosed leg is.
  EXPECT_EQ(analysis.tasks()[0].outcome, "open");
  EXPECT_EQ(analysis.tasks()[0].orphaned_spans, 1u);
  EXPECT_EQ(analysis.orphaned_spans(), 1u);
}

TEST(TraceAnalysis, FaultWindowAnnotationsMergeAndSplitTaskTime) {
  TraceRecorder rec(64);
  // Two overlapping storm windows [2,5] + [4,8] (merge to [2,8]) and a
  // disjoint one [20,22], stamped the way fault::FaultInjector does.
  rec.record(2.0, TraceCategory::kFault, "fault.window",
             {{"start", 2.0}, {"end", 5.0}, {"radius", 100.0}});
  rec.record(4.0, TraceCategory::kFault, "fault.window",
             {{"start", 4.0}, {"end", 8.0}, {"radius", 100.0}});
  rec.record(20.0, TraceCategory::kFault, "fault.window",
             {{"start", 20.0}, {"end", 22.0}, {"radius", 100.0}});
  const std::uint64_t trace = rec.new_trace_id();
  TraceContext root_ctx{trace, 0};
  root_ctx.span_id = rec.begin_span(0.0, TraceCategory::kTask, "task.life",
                                    root_ctx, {{"task", 1.0}});
  rec.end_span(10.0, TraceCategory::kTask, "task.life", root_ctx,
               {{"outcome", kOutcomeCompleted}});

  std::stringstream ss;
  rec.write_jsonl(ss);
  std::vector<ParsedEvent> events;
  TraceMeta meta;
  ASSERT_TRUE(parse_trace_jsonl(ss, events, meta));

  const auto windows = extract_fault_windows(events);
  ASSERT_EQ(windows.size(), 2u);  // overlap merged into a disjoint union
  EXPECT_DOUBLE_EQ(windows[0].start, 2.0);
  EXPECT_DOUBLE_EQ(windows[0].end, 8.0);
  EXPECT_DOUBLE_EQ(windows[1].start, 20.0);
  EXPECT_DOUBLE_EQ(storm_overlap(windows, 0.0, 10.0), 6.0);
  EXPECT_DOUBLE_EQ(storm_overlap(windows, 9.0, 12.0), 0.0);
  EXPECT_DOUBLE_EQ(storm_overlap(windows, 7.0, 21.0), 2.0);  // 1 + 1

  const TraceAnalysis analysis(events);
  ASSERT_EQ(analysis.tasks().size(), 1u);
  const TaskBreakdown& bd = analysis.tasks()[0];
  EXPECT_DOUBLE_EQ(bd.storm, 6.0);  // [0,10] ∩ [2,8]
  EXPECT_DOUBLE_EQ(bd.clear_sky(), 4.0);
  ASSERT_EQ(analysis.fault_windows().size(), 2u);
}

TEST(TraceAnalysis, StorageRootsGetTheirOwnBreakdown) {
  TraceRecorder rec(64);
  rec.record(1.0, TraceCategory::kFault, "fault.window",
             {{"start", 1.0}, {"end", 2.0}, {"radius", 50.0}});
  // A storage.put whose two attempt legs partition [1.0, 1.5] exactly,
  // writing to holders 7 and 3.
  const std::uint64_t trace = rec.new_trace_id();
  TraceContext op{trace, 0};
  op.span_id = rec.begin_span(1.0, TraceCategory::kStorage, "storage.put", op,
                              {{"object", 4.0}, {"version", 2.0}});
  TraceContext leg{trace, op.span_id};
  leg.span_id =
      rec.begin_span(1.0, TraceCategory::kStorage, "storage.leg.attempt", op,
                     {{"attempt", 1.0}});
  rec.record(1.0, TraceCategory::kStorage, "storage.replica.write", leg,
             {{"holder", 7.0}, {"version", 2.0}});
  rec.end_span(1.2, TraceCategory::kStorage, "storage.leg.attempt", leg);
  leg.span_id =
      rec.begin_span(1.2, TraceCategory::kStorage, "storage.leg.attempt", op,
                     {{"attempt", 2.0}});
  rec.record(1.2, TraceCategory::kStorage, "storage.replica.write", leg,
             {{"holder", 3.0}, {"version", 2.0}});
  rec.end_span(1.5, TraceCategory::kStorage, "storage.leg.attempt", leg);
  rec.end_span(1.5, TraceCategory::kStorage, "storage.put", op,
               {{"acked", 1.0}, {"replicas", 2.0}});
  // A root the analyzer has never heard of: skipped and counted, not fatal.
  TraceContext weird{rec.new_trace_id(), 0};
  weird.span_id =
      rec.begin_span(3.0, TraceCategory::kTask, "weird.root", weird);
  rec.end_span(4.0, TraceCategory::kTask, "weird.root", weird);

  std::stringstream ss;
  rec.write_jsonl(ss);
  std::vector<ParsedEvent> events;
  TraceMeta meta;
  ASSERT_TRUE(parse_trace_jsonl(ss, events, meta));
  const TraceAnalysis analysis(events);

  EXPECT_TRUE(analysis.tasks().empty());  // neither root is a task
  EXPECT_EQ(analysis.unknown_roots(), 1u);
  ASSERT_EQ(analysis.storage_ops().size(), 1u);
  const StorageOpBreakdown& put = analysis.storage_ops()[0];
  EXPECT_EQ(put.kind, "put");
  EXPECT_DOUBLE_EQ(put.object, 4.0);
  EXPECT_TRUE(put.closed);
  EXPECT_TRUE(put.ok);
  EXPECT_EQ(put.attempts, 2);
  EXPECT_DOUBLE_EQ(put.e2e(), 0.5);
  EXPECT_DOUBLE_EQ(put.legs, put.e2e());  // legs partition the op exactly
  ASSERT_EQ(put.replicas.size(), 2u);     // sorted, deduped holder set
  EXPECT_EQ(put.replicas[0], 3u);
  EXPECT_EQ(put.replicas[1], 7u);
  EXPECT_TRUE(put.in_storm);
  EXPECT_DOUBLE_EQ(put.storm, 0.5);  // fully inside [1,2]
}

// ---- storage tracing end-to-end ---------------------------------------------

core::SystemConfig traced_storage_system(std::uint64_t seed, bool tracing) {
  core::SystemConfig sys;
  sys.scenario.environment = core::Environment::kParkingLot;
  sys.scenario.seed = seed;
  sys.scenario.vehicles = 20;
  sys.scenario.vehicles_parked = true;
  sys.architecture = core::CloudArchitecture::kStationary;
  sys.stationary_radius = 5000.0;
  sys.cloud.dependability.detector.enabled = true;
  sys.storage.enabled = true;
  sys.telemetry.tracing = tracing;
  return sys;
}

TEST(StorageTelemetry, StorageSpansPartitionOpLatency) {
  core::VehicularCloudSystem system(traced_storage_system(31, true));
  system.start();
  system.run_for(2.0);
  auto& store = *system.storage();
  auto& sim = system.scenario().simulator();

  const FileId object = store.create(sim.now());
  ASSERT_TRUE(store.put(1, object, sim.now()).acked);
  ASSERT_TRUE(store.get(2, object, sim.now()).ok);
  // Under a blanket blackout every radio leg is lost, so the op burns its
  // whole retry budget: attempts > 1 and non-zero virtual elapsed time.
  const auto [lo, hi] = system.scenario().road().bounding_box();
  const geo::Vec2 center{(lo.x + hi.x) / 2, (lo.y + hi.y) / 2};
  auto& channel = system.scenario().network().channel();
  const std::uint64_t token = channel.add_blackout({center, 1e6});
  store.get(3, object, sim.now());
  channel.remove_blackout(token);

  EXPECT_EQ(store.stats().put_latency_tail.count(), 1u);
  EXPECT_EQ(store.stats().get_latency_tail.count(), 2u);

  std::stringstream ss;
  system.telemetry()->trace.write_jsonl(ss);
  std::vector<ParsedEvent> events;
  TraceMeta meta;
  ASSERT_TRUE(parse_trace_jsonl(ss, events, meta));
  const TraceAnalysis analysis(events);

  ASSERT_EQ(analysis.storage_ops().size(), 3u);
  std::size_t puts = 0, gets = 0;
  bool saw_retries = false;
  for (const StorageOpBreakdown& bd : analysis.storage_ops()) {
    ASSERT_TRUE(bd.closed);
    (bd.kind == "put" ? puts : gets) += 1;
    EXPECT_DOUBLE_EQ(bd.object, static_cast<double>(object.value()));
    EXPECT_GE(bd.attempts, 1);
    // The partition invariant: attempt legs sum EXACTLY to the op's
    // end-to-end time (each leg spans [its start, the next one's start)).
    EXPECT_NEAR(bd.legs, bd.e2e(), 1e-9) << bd.kind;
    if (bd.attempts > 1) {
      saw_retries = true;
      EXPECT_GT(bd.e2e(), 0.0);
    }
    if (bd.ok) {
      EXPECT_FALSE(bd.replicas.empty());
    }
  }
  EXPECT_EQ(puts, 1u);
  EXPECT_EQ(gets, 2u);
  EXPECT_TRUE(saw_retries);  // the blacked-out get retried
  EXPECT_EQ(analysis.unknown_roots(), 0u);
}

TEST(StorageTelemetry, TracingOffLeavesStorageBehaviorUntouched) {
  // Instrumentation draws no randomness and allocates no ids when off, so
  // the same seed must produce bit-identical storage behavior either way.
  auto run = [](bool tracing) {
    core::VehicularCloudSystem system(traced_storage_system(33, tracing));
    system.start();
    system.run_for(2.0);
    auto& store = *system.storage();
    auto& sim = system.scenario().simulator();
    const FileId object = store.create(sim.now());
    const auto w = store.put(1, object, sim.now());
    const auto r = store.get(2, object, sim.now());
    system.run_for(10.0);
    return std::make_tuple(w.acked, w.version, w.replicas, r.ok, r.version,
                           store.stats().writes_acked,
                           store.stats().repair_copies,
                           store.stats().put_latency_tail.sum(),
                           store.stats().get_latency_tail.sum(),
                           system.scenario().simulator().events_processed());
  };
  EXPECT_EQ(run(false), run(true));
}

// ---- MetricsRegistry --------------------------------------------------------

TEST(MetricsRegistry, CountersGaugesHistograms) {
  MetricsRegistry reg;
  auto& c = reg.counter("net.unicast.sent");
  c.inc();
  c.inc(2.5);
  double depth = 7.0;
  reg.gauge("cloud.task.pending", [&depth] { return depth; });
  auto& h = reg.histogram("cloud.task.latency");
  h.add(1.0);
  h.add(3.0);

  EXPECT_EQ(reg.metric_count(), 3u);
  EXPECT_DOUBLE_EQ(reg.value("net.unicast.sent"), 3.5);
  EXPECT_DOUBLE_EQ(reg.value("cloud.task.pending"), 7.0);
  EXPECT_DOUBLE_EQ(reg.value("cloud.task.latency"), 2.0);  // mean
  EXPECT_DOUBLE_EQ(reg.value("no.such.metric"), 0.0);
  // counter() is idempotent: same name -> same counter.
  reg.counter("net.unicast.sent").inc();
  EXPECT_DOUBLE_EQ(reg.value("net.unicast.sent"), 4.5);
}

TEST(MetricsRegistry, SamplerProducesTimeSeries) {
  sim::Simulator sim;
  MetricsRegistry reg;
  auto& c = reg.counter("a.ticks.count");
  reg.gauge("b.clock.now", [&sim] { return sim.now(); });
  // Tick off the sampler's phase so same-instant tie order can't matter.
  sim.schedule_every(1.0, [&c] { c.inc(); }, 0.5);
  reg.start_sampling(sim, 2.0);
  sim.run_until(6.5);

  // Baseline at t=0 plus samples at t=2,4,6.
  ASSERT_EQ(reg.sample_count(), 4u);
  ASSERT_EQ(reg.series_columns(),
            (std::vector<std::string>{"a.ticks.count", "b.clock.now"}));

  std::ostringstream csv;
  reg.write_csv(csv);
  EXPECT_EQ(csv.str(),
            "t,a.ticks.count,b.clock.now\n"
            "0,0,0\n"
            "2,2,2\n"
            "4,4,4\n"
            "6,6,6\n");

  std::ostringstream json;
  reg.write_json(json);
  EXPECT_EQ(json.str(),
            "{\"columns\":[\"t\",\"a.ticks.count\",\"b.clock.now\"],"
            "\"samples\":[[0,0,0],[2,2,2],[4,4,4],[6,6,6]]}\n");
}

TEST(MetricsRegistry, HistogramContributesCountAndMeanColumns) {
  sim::Simulator sim;
  MetricsRegistry reg;
  auto& h = reg.histogram("x.latency");
  h.add(2.0);
  h.add(4.0);
  reg.sample(0.0);
  ASSERT_EQ(reg.series_columns(),
            (std::vector<std::string>{"x.latency.count", "x.latency.mean"}));
  std::ostringstream csv;
  reg.write_csv(csv);
  EXPECT_EQ(csv.str(), "t,x.latency.count,x.latency.mean\n0,2,3\n");
}

// ---- BenchReporter ----------------------------------------------------------

TEST(BenchReporter, ParsesJsonFlagAndEmitsSchema) {
  const char* argv[] = {"bench_x", "--runs", "3", "--json", "/tmp/out.json"};
  BenchReporter rep("bench_x", 5, const_cast<char**>(argv));
  EXPECT_TRUE(rep.enabled());
  EXPECT_EQ(rep.path(), "/tmp/out.json");

  Table t("demo", {"mode", "rate"});
  t.add_row({"greedy", "0.93"});
  rep.add(t);
  rep.add_scalar("wall_s", 1.25);

  EXPECT_EQ(rep.to_json(),
            "{\"schema\":\"vcl-bench-v1\",\"bench\":\"bench_x\","
            "\"scalars\":{\"wall_s\":1.25},"
            "\"tables\":[{\"title\":\"demo\",\"columns\":[\"mode\",\"rate\"],"
            "\"rows\":[[\"greedy\",0.93]]}]}\n");
}

TEST(BenchReporter, InertWithoutFlag) {
  const char* argv[] = {"bench_x"};
  BenchReporter rep("bench_x", 1, const_cast<char**>(argv));
  EXPECT_FALSE(rep.enabled());
  EXPECT_TRUE(rep.write());  // no-op succeeds
}

TEST(BenchReporter, WritesFile) {
  const std::string path = ::testing::TempDir() + "vcl_bench_out.json";
  const char* argv[] = {"bench_x", "--json", path.c_str()};
  BenchReporter rep("bench_x", 3, const_cast<char**>(argv));
  rep.add_scalar("n", 2.0);
  ASSERT_TRUE(rep.write());
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("\"schema\":\"vcl-bench-v1\""), std::string::npos);
  EXPECT_NE(buf.str().find("\"n\":2"), std::string::npos);
}

// ---- end-to-end through VehicularCloudSystem --------------------------------

core::SystemConfig telemetry_config() {
  core::SystemConfig config;
  config.scenario.vehicles = 20;
  // Hardened dispatch/heartbeats make the cloud talk over the network, so
  // the trace exercises the net.* category too.
  config.cloud.dependability.detector.enabled = true;
  config.telemetry.tracing = true;
  config.telemetry.metrics = true;
  config.telemetry.sample_period = 1.0;
  config.telemetry.profile_kernel = true;
  return config;
}

TEST(SystemTelemetry, DisabledByDefault) {
  core::SystemConfig config;
  config.scenario.vehicles = 5;
  core::VehicularCloudSystem system(config);
  system.start();
  EXPECT_EQ(system.telemetry(), nullptr);
  EXPECT_FALSE(system.scenario().simulator().profiling());
}

TEST(SystemTelemetry, FullRunProducesTraceMetricsAndProfile) {
  core::VehicularCloudSystem system(telemetry_config());
  system.start();
  ASSERT_NE(system.telemetry(), nullptr);
  vcloud::WorkloadConfig workload;
  workload.mean_work = 5.0;
  system.submit_workload(workload, 10);
  system.run_for(30.0);

  obs::Telemetry& tel = *system.telemetry();
  // Tracing: submissions and dispatches left task.* events on the ring.
  const auto evs = tel.trace.events();
  ASSERT_FALSE(evs.empty());
  std::size_t submits = 0;
  std::size_t net_events = 0;
  for (const auto& ev : evs) {
    if (std::string(ev.name) == "task.submit") ++submits;
    if (ev.cat == TraceCategory::kNet) ++net_events;
  }
  EXPECT_EQ(submits, 10u);
  EXPECT_GT(net_events, 0u);

  // Metrics: the sampler ran every second and captured >= 5 series.
  EXPECT_GE(tel.metrics.series_columns().size(), 5u);
  EXPECT_GE(tel.metrics.sample_count(), 30u);
  EXPECT_DOUBLE_EQ(tel.metrics.value("cloud.task.submitted"), 10.0);

  // Exports parse-shaped output without crashing.
  std::ostringstream trace_json;
  tel.trace.write_chrome_trace(trace_json);
  EXPECT_NE(trace_json.str().find("\"traceEvents\""), std::string::npos);
  std::ostringstream csv;
  tel.metrics.write_csv(csv);
  EXPECT_EQ(csv.str().compare(0, 2, "t,"), 0);

  // Kernel profile: labeled activities attributed events.
  const auto prof = system.scenario().simulator().profile();
  ASSERT_FALSE(prof.empty());
  bool saw_mobility = false;
  for (const auto& e : prof) {
    if (e.label == "mobility.step") saw_mobility = true;
  }
  EXPECT_TRUE(saw_mobility);
  EXPECT_GT(system.scenario().simulator().queue_high_water(), 0u);
}

TEST(SystemTelemetry, TraceCategoryMaskRespected) {
  core::SystemConfig config = telemetry_config();
  config.telemetry.profile_kernel = false;
  config.telemetry.metrics = false;
  config.telemetry.trace_categories = category_bit(TraceCategory::kTask);
  core::VehicularCloudSystem system(config);
  system.start();
  vcloud::WorkloadConfig workload;
  system.submit_workload(workload, 5);
  system.run_for(10.0);
  const auto evs = system.telemetry()->trace.events();
  ASSERT_FALSE(evs.empty());
  for (const auto& ev : evs) EXPECT_EQ(ev.cat, TraceCategory::kTask);
}

TEST(SystemTelemetry, TelemetryOffMatchesSeedDeterminism) {
  // A telemetry-on run must not perturb the simulation itself: final cloud
  // stats match a telemetry-off run with the same seed bit for bit.
  core::SystemConfig off;
  off.scenario.vehicles = 20;
  core::SystemConfig on = off;
  on.telemetry.tracing = true;
  on.telemetry.profile_kernel = true;

  auto run = [](const core::SystemConfig& cfg) {
    core::VehicularCloudSystem system(cfg);
    system.start();
    vcloud::WorkloadConfig workload;
    system.submit_workload(workload, 8);
    system.run_for(25.0);
    return std::make_tuple(system.cloud().stats().completed,
                           system.cloud().stats().submitted,
                           system.cloud().stats().latency.sum(),
                           system.scenario().simulator().events_processed());
  };
  EXPECT_EQ(run(off), run(on));
}

TEST(SystemTelemetry, TracingIsInertUnderInjectedCrashes) {
  // The determinism contract must survive the hardened path too: heartbeats,
  // retries, checkpoints and crash recovery all emit spans, and none of it
  // may perturb the simulation.
  core::SystemConfig off;
  off.scenario.vehicles = 20;
  off.cloud.dependability.detector.enabled = true;
  off.cloud.dependability.retry.enabled = true;
  off.cloud.dependability.checkpoint.enabled = true;
  off.faults.vehicle_crash_rate = 0.05;
  off.faults.horizon = 60.0;
  core::SystemConfig on = off;
  on.telemetry.tracing = true;

  auto run = [](const core::SystemConfig& cfg) {
    core::VehicularCloudSystem system(cfg);
    system.start();
    vcloud::WorkloadConfig workload;
    system.submit_workload(workload, 12);
    system.run_for(60.0);
    return std::make_tuple(system.cloud().stats().completed,
                           system.cloud().stats().submitted,
                           system.cloud().stats().crash_kills,
                           system.cloud().stats().latency.sum(),
                           system.scenario().simulator().events_processed());
  };
  EXPECT_EQ(run(off), run(on));
}

TEST(SystemTelemetry, CrashedTaskKeepsOneCausalTreeAcrossRecovery) {
  // The PR's acceptance scenario: a task whose worker crashes mid-execution
  // is detected, recovered and completed under ONE trace_id, and the
  // reassembled legs still partition its whole lifetime.
  core::SystemConfig config;
  config.scenario.environment = core::Environment::kParkingLot;
  config.scenario.vehicles = 12;
  config.scenario.vehicles_parked = true;
  config.architecture = core::CloudArchitecture::kStationary;
  config.stationary_radius = 5000.0;
  config.cloud.dependability.detector.enabled = true;
  config.cloud.dependability.retry.enabled = true;
  config.cloud.dependability.checkpoint.enabled = true;
  config.telemetry.tracing = true;
  core::VehicularCloudSystem system(config);
  system.start();

  vcloud::Task spec;
  spec.work = 50.0;
  spec.deadline = 0.0;  // none: the crash must not expire it
  const TaskId id = system.submit(spec);
  system.run_for(5.0);
  const vcloud::Task* task = system.cloud().find_task(id);
  ASSERT_NE(task, nullptr);
  ASSERT_EQ(task->state, vcloud::TaskState::kRunning);
  const std::uint64_t trace_id = task->trace.trace_id;
  ASSERT_NE(trace_id, 0u);
  system.cloud().crash_worker(task->worker);
  system.run_for(600.0);

  task = system.cloud().find_task(id);
  ASSERT_NE(task, nullptr);
  ASSERT_EQ(task->state, vcloud::TaskState::kCompleted);
  // The terminal transition closed the root span but kept the tree's id.
  EXPECT_EQ(task->trace.trace_id, trace_id);
  EXPECT_EQ(task->trace.span_id, 0u);

  std::stringstream ss;
  system.telemetry()->trace.write_jsonl(ss);
  std::vector<ParsedEvent> events;
  TraceMeta meta;
  std::string error;
  ASSERT_TRUE(parse_trace_jsonl(ss, events, meta, &error)) << error;
  ASSERT_TRUE(meta.complete());

  const TraceAnalysis analysis(events);
  const TaskBreakdown* bd = analysis.find(trace_id);
  ASSERT_NE(bd, nullptr);
  EXPECT_EQ(bd->outcome, "completed");
  EXPECT_GE(bd->crashes, 1);
  EXPECT_GT(bd->recovery, 0.0);  // detection latency is attributed, not lost
  EXPECT_GT(bd->compute, 0.0);
  EXPECT_EQ(bd->orphaned_spans, 0u);
  EXPECT_NEAR(bd->legs_sum(), bd->end_to_end(), 1e-9);

  // The whole story — submit, dispatch, exec, crash, recover, re-exec,
  // complete — rode a single causal tree.
  std::size_t in_tree = 0;
  bool saw_recover = false;
  for (const auto& ev : system.telemetry()->trace.events()) {
    if (ev.trace_id != trace_id) continue;
    ++in_tree;
    if (std::string(ev.name) == "leg.recover") saw_recover = true;
  }
  EXPECT_GE(in_tree, 10u);
  EXPECT_TRUE(saw_recover);
}

// ---- write_telemetry --------------------------------------------------------

TEST(Telemetry, WriteTelemetryCreatesTheExportTree) {
  TelemetryConfig cfg;
  cfg.tracing = true;
  cfg.metrics = true;
  Telemetry tel(cfg);
  tel.trace.record(1.0, TraceCategory::kTask, "task.submit");
  tel.metrics.counter("x.count").inc();
  tel.metrics.sample(0.0);

  const std::string dir =
      ::testing::TempDir() + "vcl_write_telemetry/nested/rep0";
  ASSERT_TRUE(write_telemetry(tel, dir));  // creates the directories
  EXPECT_TRUE(std::filesystem::exists(dir + "/trace.jsonl"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/trace_chrome.json"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/metrics.csv"));

  std::ifstream in(dir + "/trace.jsonl");
  std::string first_line;
  ASSERT_TRUE(std::getline(in, first_line));
  EXPECT_NE(first_line.find("\"meta\":\"vcl-trace-v1\""), std::string::npos);
}

// ---- run-health report (tools/vcl_report) -----------------------------------

TEST(RunHealth, MergesArtifactsAndAttributesStormLatency) {
  TelemetryConfig cfg;
  cfg.tracing = true;
  cfg.metrics = true;
  Telemetry tel(cfg);
  // One fault window [1,2]; a put fully inside it, a get in clear sky.
  tel.trace.record(1.0, TraceCategory::kFault, "fault.window",
                   {{"start", 1.0}, {"end", 2.0}, {"radius", 9.0}});
  {
    TraceContext op{tel.trace.new_trace_id(), 0};
    op.span_id = tel.trace.begin_span(1.0, TraceCategory::kStorage,
                                      "storage.put", op, {{"object", 1.0}});
    tel.trace.end_span(1.5, TraceCategory::kStorage, "storage.put", op,
                       {{"acked", 1.0}});
  }
  {
    TraceContext op{tel.trace.new_trace_id(), 0};
    op.span_id = tel.trace.begin_span(5.0, TraceCategory::kStorage,
                                      "storage.get", op, {{"object", 1.0}});
    tel.trace.end_span(5.25, TraceCategory::kStorage, "storage.get", op,
                       {{"ok", 1.0}});
  }
  {
    TraceContext task{tel.trace.new_trace_id(), 0};
    task.span_id = tel.trace.begin_span(0.0, TraceCategory::kTask,
                                        "task.life", task, {{"task", 1.0}});
    tel.trace.end_span(4.0, TraceCategory::kTask, "task.life", task,
                       {{"outcome", kOutcomeCompleted}});
  }
  tel.metrics.counter("x.count").inc();
  tel.metrics.counter("x.count").inc();
  auto& sk = tel.metrics.sketch("demo.latency");
  sk.add(0.1);
  sk.add(0.2);
  sk.add(0.4);
  tel.metrics.sample(0.0);

  const std::string dir = ::testing::TempDir() + "vcl_run_health/rep0";
  ASSERT_TRUE(write_telemetry(tel, dir));
  {
    std::ofstream v(dir + "/violations.jsonl");
    v << R"({"meta":"vcl-violations-v1","seed":7,"checks_run":100,)"
      << R"("violations":2})" << "\n"
      << R"({"t":1.5,"invariant":"storage.durability",)"
      << R"("detail":"object 1 lost every copy","task":3,"seed":7})" << "\n"
      << R"({"t":2.5,"invariant":"task.conservation",)"
      << R"("detail":"states do not sum","seed":7})" << "\n";
  }

  RunHealth h;
  std::string error;
  ASSERT_TRUE(build_run_health({dir}, h, &error)) << error;
  EXPECT_TRUE(h.have_trace);
  EXPECT_TRUE(h.have_metrics);
  EXPECT_TRUE(h.have_sketches);
  EXPECT_TRUE(h.have_violations);

  EXPECT_EQ(h.tasks, 1u);
  EXPECT_EQ(h.tasks_closed, 1u);
  EXPECT_DOUBLE_EQ(h.task_e2e_s, 4.0);
  EXPECT_DOUBLE_EQ(h.task_storm_s, 1.0);  // [0,4] ∩ [1,2]
  EXPECT_EQ(h.storage_ops, 2u);
  EXPECT_EQ(h.storage_in_storm, 1u);
  EXPECT_EQ(h.fault_windows, 1u);
  EXPECT_DOUBLE_EQ(h.fault_window_s, 1.0);
  // The storm/clear split is exactly what the acceptance criterion wants:
  // the in-storm put latency lands in put_storm_tail, nothing leaks into
  // the clear-sky cell (and vice versa for the get).
  EXPECT_EQ(h.put_storm_tail.count(), 1u);
  EXPECT_EQ(h.put_clear_tail.count(), 0u);
  EXPECT_DOUBLE_EQ(h.put_storm_tail.max(), 0.5);
  EXPECT_EQ(h.get_storm_tail.count(), 0u);
  EXPECT_EQ(h.get_clear_tail.count(), 1u);
  EXPECT_DOUBLE_EQ(h.get_clear_tail.max(), 0.25);

  EXPECT_DOUBLE_EQ(h.counters.at("x.count"), 2.0);
  ASSERT_EQ(h.sketches.count("demo.latency"), 1u);
  const QuantileSketch& rebuilt = h.sketches.at("demo.latency");
  EXPECT_EQ(rebuilt.count(), 3u);
  // Reconstruction from bucket snapshots reproduces quantiles exactly.
  EXPECT_EQ(rebuilt.quantile(0.5), sk.quantile(0.5));
  EXPECT_EQ(rebuilt.quantile(0.999), sk.quantile(0.999));

  EXPECT_EQ(h.checks_run, 100u);
  EXPECT_EQ(h.violation_count, 2u);
  ASSERT_EQ(h.violations.size(), 2u);
  EXPECT_EQ(h.violations[0].invariant, "storage.durability");
  EXPECT_DOUBLE_EQ(h.violations[0].task, 3.0);
  EXPECT_DOUBLE_EQ(h.violations[1].task, -1.0);  // not task-scoped

  // Merging the same directory twice doubles every additive aggregate —
  // and sketch merges stay exact (bucket-count addition).
  RunHealth twice;
  ASSERT_TRUE(build_run_health({dir, dir}, twice, &error)) << error;
  EXPECT_EQ(twice.storage_ops, 4u);
  EXPECT_DOUBLE_EQ(twice.counters.at("x.count"), 4.0);
  EXPECT_EQ(twice.sketches.at("demo.latency").count(), 6u);
  // A doubled distribution has the same shape: the median bucket (and the
  // exact extremes) must not move.
  EXPECT_EQ(twice.sketches.at("demo.latency").quantile(0.5),
            rebuilt.quantile(0.5));
  EXPECT_EQ(twice.sketches.at("demo.latency").max(), rebuilt.max());
  EXPECT_EQ(twice.violation_count, 4u);

  // The writers must render both views without tripping over anything.
  std::ostringstream text, json;
  write_health_text(text, h);
  write_health_json(json, h);
  EXPECT_NE(text.str().find("2 VIOLATION"), std::string::npos);
  EXPECT_NE(json.str().find("\"schema\":\"vcl-report-v1\""), std::string::npos);
  EXPECT_NE(json.str().find("\"in_storm\""), std::string::npos);
}

TEST(RunHealth, EmptyDirectoryIsAnErrorNotAnEmptyReport) {
  const std::string dir = ::testing::TempDir() + "vcl_run_health_empty";
  std::filesystem::create_directories(dir);
  RunHealth h;
  std::string error;
  EXPECT_FALSE(build_run_health({dir}, h, &error));
  EXPECT_FALSE(error.empty());
}

// ---- shared JSON reader -----------------------------------------------------

// Every loader reads through obs/json.h, so the same malformed record must
// fail cleanly in each, with the line it sits on — never cast, never guess.
TEST(JsonReader, MalformedRecordsFailCleanlyInEveryLoader) {
  struct Loader {
    const char* name;
    std::string header;  // valid lines before the record under test
    std::string prefix;  // the record up to its integer field's value
    std::function<bool(const std::string& text, std::string* error)> load;
  };
  const std::string dir = ::testing::TempDir() + "vcl_json_reader";
  std::filesystem::create_directories(dir);
  const std::vector<Loader> loaders = {
      {"fault plan", R"({"meta":"vcl-fault-plan-v1","seed":1,"events":1})",
       R"({"kind":"vehicle_crash","at":1,"vehicle":)",
       [](const std::string& text, std::string* error) {
         std::istringstream is(text);
         fault::FaultPlan plan;
         fault::FaultPlanMeta meta;
         return fault::parse_fault_plan_jsonl(is, plan, meta, error);
       }},
      {"chaos repro", "",
       R"({"meta":"vcl-fault-plan-v1","seed":1,"events":0,"vehicles":)",
       [](const std::string& text, std::string* error) {
         std::istringstream is(text);
         core::ChaosScenarioConfig config;
         fault::FaultPlan plan;
         return core::load_chaos_repro(is, config, plan, error);
       }},
      {"incident bundle", R"({"meta":"vcl-incident-v1","seed":1})",
       R"({"rec":"worker","id":)",
       [](const std::string& text, std::string* error) {
         std::istringstream is(text);
         IncidentBundle bundle;
         return parse_incident_bundle(is, bundle, error);
       }},
      {"trace", R"({"meta":"vcl-trace-v1","capacity":8,"recorded":1})",
       R"({"t":1,"cat":"task","name":"task.life","ph":"B","trace":)",
       [](const std::string& text, std::string* error) {
         std::istringstream is(text);
         std::vector<ParsedEvent> events;
         TraceMeta meta;
         return parse_trace_jsonl(is, events, meta, error);
       }},
      {"violations", R"({"meta":"vcl-violations-v1","seed":1,"violations":1})",
       R"({"t":1,"invariant":"x","detail":"d","seed":)",
       [&dir](const std::string& text, std::string* error) {
         std::ofstream(dir + "/violations.jsonl") << text;
         RunHealth h;
         return build_run_health({dir}, h, error);
       }},
  };
  // {value of the integer field, bytes after the closing brace}
  const std::vector<std::pair<std::string, std::string>> malformed = {
      {"1e30", ""},  {"-5", ""},       {"1.5", ""},           {"\"7\"", ""},
      {"{\"x\":1}", ""}, {"[7]", ""}, {"7", " trailing junk"}, {"7", "}"},
      {"7,", ""},    {"07", ""},       {"18446744073709551616", ""},
  };
  for (const Loader& l : loaders) {
    const std::string lead = l.header.empty() ? "" : l.header + "\n";
    const std::string line = l.header.empty() ? "line 1:" : "line 2:";
    std::string error;
    for (const char* ok : {"7", "null"}) {
      EXPECT_TRUE(l.load(lead + l.prefix + ok + "}\n", &error))
          << l.name << " rejected a valid record: " << error;
    }
    for (const auto& [value, tail] : malformed) {
      error.clear();
      EXPECT_FALSE(l.load(lead + l.prefix + value + "}" + tail + "\n", &error))
          << l.name << " accepted " << value << tail;
      EXPECT_NE(error.find(line), std::string::npos)
          << l.name << " on " << value << tail << ": " << error;
    }
  }
}

}  // namespace
}  // namespace vcl::obs
