// Incident forensics (DESIGN.md §12): the always-on flight recorder, the
// vcl-incident-v1 bundle round-trip, and chaos-episode capture — including
// the determinism contract (same failing config, same bundle bytes,
// serial or on a thread pool).
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "core/chaos.h"
#include "exp/thread_pool.h"
#include "obs/flight_recorder.h"
#include "obs/incident.h"
#include "obs/trace.h"

namespace vcl::obs {
namespace {

TEST(FlightRecorder, RecordsAndCountsPerCategory) {
  FlightRecorder flight(8);
  flight.record(1.0, FlightCategory::kTask, "task.complete", 7, 3, 2.5);
  flight.record(2.0, FlightCategory::kDetector, "detector.evict", 3, 1, 0.5);
  EXPECT_EQ(flight.recorded(), 2u);
  EXPECT_EQ(flight.recorded(FlightCategory::kTask), 1u);
  EXPECT_EQ(flight.recorded(FlightCategory::kDetector), 1u);
  EXPECT_EQ(flight.overwritten(), 0u);

  const std::vector<FlightEvent> tail = flight.tail();
  ASSERT_EQ(tail.size(), 2u);
  // One strict total order: global sequence numbers, category-independent.
  EXPECT_LT(tail[0].seq, tail[1].seq);
  EXPECT_STREQ(tail[0].name, "task.complete");
  EXPECT_EQ(tail[0].a, 7u);
  EXPECT_EQ(tail[0].b, 3u);
  EXPECT_DOUBLE_EQ(tail[0].x, 2.5);
}

TEST(FlightRecorder, OverwriteKeepsNewestPerCategory) {
  FlightRecorder flight(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    flight.record(static_cast<double>(i), FlightCategory::kTask, "task.expire",
                  i);
  }
  EXPECT_EQ(flight.recorded(), 10u);
  EXPECT_EQ(flight.overwritten(), 6u);
  EXPECT_EQ(flight.overwritten(FlightCategory::kTask), 6u);
  const std::vector<FlightEvent> tail = flight.tail();
  ASSERT_EQ(tail.size(), 4u);
  // The retained tail is the newest 4, in recording order.
  for (std::size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(tail[i].a, 6u + i);
  }
}

// A capture is a stable copy: recording past it (even far enough to wrap
// the ring again) must not disturb an earlier tail, and a later capture
// sees the newer history — the "overwrite during capture" contract the
// incident snapshot relies on (the hook captures mid-run, the run goes on).
TEST(FlightRecorder, CaptureIsStableWhileRecordingContinues) {
  FlightRecorder flight(4);
  for (std::uint64_t i = 0; i < 6; ++i) {
    flight.record(static_cast<double>(i), FlightCategory::kFault,
                  "fault.crash", i);
  }
  const std::vector<FlightEvent> first = flight.tail();
  ASSERT_EQ(first.size(), 4u);
  EXPECT_EQ(first.front().a, 2u);

  for (std::uint64_t i = 6; i < 20; ++i) {
    flight.record(static_cast<double>(i), FlightCategory::kFault,
                  "fault.crash", i);
  }
  // The first capture is untouched by the later overwrites...
  ASSERT_EQ(first.size(), 4u);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].a, 2u + i);
  }
  // ...and a fresh capture shows the newest window.
  const std::vector<FlightEvent> second = flight.tail();
  ASSERT_EQ(second.size(), 4u);
  EXPECT_EQ(second.front().a, 16u);
  EXPECT_EQ(flight.overwritten(), 16u);
}

TEST(FlightRecorder, MixedCategoriesInterleaveBySequence) {
  FlightRecorder flight(4);
  flight.record(1.0, FlightCategory::kFault, "fault.crash", 9);
  flight.record(1.5, FlightCategory::kDetector, "detector.evict", 9);
  flight.record(2.0, FlightCategory::kFault, "fault.crash", 4);
  flight.record(2.5, FlightCategory::kLease, "lease.expire", 1, 4);
  const std::vector<FlightEvent> tail = flight.tail();
  ASSERT_EQ(tail.size(), 4u);
  EXPECT_EQ(tail[0].cat, FlightCategory::kFault);
  EXPECT_EQ(tail[1].cat, FlightCategory::kDetector);
  EXPECT_EQ(tail[2].cat, FlightCategory::kFault);
  EXPECT_EQ(tail[3].cat, FlightCategory::kLease);
}

TEST(TraceRecorder, OpenSpansAreBegunButNotEnded) {
  TraceRecorder trace(64);
  TraceContext root{trace.new_trace_id(), 0};
  const std::uint64_t open =
      trace.begin_span(1.0, TraceCategory::kTask, "task.life", root);
  TraceContext closed_ctx{root.trace_id, 0};
  closed_ctx.span_id =
      trace.begin_span(2.0, TraceCategory::kTask, "leg.exec", root);
  trace.end_span(3.0, TraceCategory::kTask, "leg.exec", closed_ctx);

  const std::vector<TraceRecorder::Event> spans = trace.open_spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].span_id, open);
  EXPECT_STREQ(spans[0].name, "task.life");
}

IncidentBundle sample_bundle() {
  IncidentBundle b;
  b.seed = 42;
  b.captured_at = 0.1 + 0.2;  // not exactly representable: %.17g territory
  b.trigger = "task-conservation";
  b.flight_recorded = 12;
  b.flight_overwritten = 3;
  b.broker = 5;
  b.pending = 2;
  b.violations.push_back(
      {59.0, "task-conservation", "task \"lost\"\n\r\x01", 84});
  b.flight.push_back({50.7175, 9, "fault", "fault.broker.crash", 0, 0, 0.0});
  b.flight.push_back(
      {58.0, 10, "detector", "detector.evict", 0, 1, 7.282512345678901});
  b.windows.push_back({10.0, 15.5, -3.25, 900.125, 400.0, false});
  b.open_spans.push_back({42.0, "task", "task.life", 84, 394});
  b.workers.push_back({3, true, false});
  b.workers.push_back({4, false, true});
  b.tasks.push_back({84, "crash_recovering", 12.5, 30.0, 10.0, 0, 84});
  b.objects.push_back({1, 3});
  b.replicas.push_back({1, 7, 3, true, false});
  b.graphs.push_back({2, false, false, 1});
  b.dag_nodes.push_back({2, 0, true, false, 0});
  return b;
}

TEST(IncidentBundle, RoundTripIsBitIdentical) {
  const IncidentBundle original = sample_bundle();
  std::stringstream first;
  write_incident_bundle(original, first);

  IncidentBundle parsed;
  std::string error;
  std::stringstream in(first.str());
  ASSERT_TRUE(parse_incident_bundle(in, parsed, &error)) << error;

  std::stringstream second;
  write_incident_bundle(parsed, second);
  EXPECT_EQ(first.str(), second.str());

  EXPECT_EQ(parsed.seed, 42u);
  EXPECT_EQ(parsed.trigger, "task-conservation");
  ASSERT_EQ(parsed.violations.size(), 1u);
  EXPECT_EQ(parsed.violations[0].detail, "task \"lost\"\n\r\x01");
  ASSERT_EQ(parsed.flight.size(), 2u);
  EXPECT_EQ(parsed.flight[1].name, "detector.evict");
  ASSERT_EQ(parsed.workers.size(), 2u);
  EXPECT_TRUE(parsed.workers[0].crashed);
  EXPECT_TRUE(parsed.workers[1].tracked);
}

TEST(IncidentBundle, ParserRejectsMissingMetaAndUnknownRecords) {
  IncidentBundle out;
  std::string error;
  std::stringstream no_meta("{\"rec\":\"flight\"}\n");
  EXPECT_FALSE(parse_incident_bundle(no_meta, out, &error));
  EXPECT_FALSE(error.empty());

  std::stringstream valid;
  write_incident_bundle(sample_bundle(), valid);
  std::stringstream unknown(valid.str() + "{\"rec\":\"mystery\"}\n");
  EXPECT_FALSE(parse_incident_bundle(unknown, out, &error));
}

TEST(IncidentBundle, FlightTailCopyOwnsNames) {
  FlightRecorder flight(4);
  flight.record(1.0, FlightCategory::kQuorum, "quorum.write.failed", 8, 2,
                1.0);
  IncidentBundle b;
  append_flight_tail(b, flight.tail());
  ASSERT_EQ(b.flight.size(), 1u);
  EXPECT_EQ(b.flight[0].cat, "quorum");
  EXPECT_EQ(b.flight[0].name, "quorum.write.failed");
  EXPECT_EQ(b.flight[0].a, 8u);
}

}  // namespace
}  // namespace vcl::obs

namespace vcl::core {
namespace {

ChaosScenarioConfig failing_config() {
  // Same fixture as chaos_test.cpp's seeded-bug test: the requeue bug
  // trips task-conservation on nearly every seed; pin the first that does.
  ChaosScenarioConfig cfg;
  cfg.vehicles = 20;
  cfg.duration = 40.0;
  cfg.drain = 20.0;
  cfg.inject_requeue_bug = true;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    cfg.seed = seed;
    if (!run_chaos_episode(cfg).ok()) return cfg;
  }
  ADD_FAILURE() << "seeded bug never tripped the oracle";
  return cfg;
}

TEST(IncidentCapture, CleanEpisodeHasNoBundle) {
  ChaosScenarioConfig cfg;
  cfg.seed = 5;
  cfg.vehicles = 20;
  cfg.duration = 40.0;
  cfg.drain = 20.0;
  const ChaosEpisode episode = run_chaos_episode(cfg);
  ASSERT_TRUE(episode.ok());
  EXPECT_EQ(episode.incident, nullptr);
}

TEST(IncidentCapture, ViolationProducesCausallyOrderedBundle) {
  const ChaosScenarioConfig cfg = failing_config();
  const ChaosEpisode episode = run_chaos_episode(cfg);
  ASSERT_FALSE(episode.ok());
  ASSERT_NE(episode.incident, nullptr);
  const obs::IncidentBundle& b = *episode.incident;

  EXPECT_EQ(b.seed, cfg.seed);
  ASSERT_FALSE(episode.violations.empty());
  // The snapshot is pinned to the FIRST violation...
  EXPECT_EQ(b.trigger, episode.violations[0].invariant);
  EXPECT_DOUBLE_EQ(b.captured_at, episode.violations[0].at);
  // ...and the violation list covers everything the oracle stored.
  EXPECT_EQ(b.violations.size(), episode.violations.size());

  // The causal chain must be present and ordered: an injected fault, then
  // the detector eviction it caused, then the violation.
  double first_fault = -1.0;
  double first_evict = -1.0;
  for (const obs::IncidentFlightEvent& e : b.flight) {
    if (first_fault < 0.0 && e.cat == "fault") first_fault = e.t;
    if (first_evict < 0.0 && e.name == "detector.evict") first_evict = e.t;
  }
  ASSERT_GE(first_fault, 0.0) << "no injected fault in the flight tail";
  ASSERT_GE(first_evict, 0.0) << "no detector eviction in the flight tail";
  EXPECT_LE(first_fault, first_evict);
  EXPECT_LE(first_evict, b.captured_at);

  // The state snapshot is populated: membership and the in-flight tasks
  // the conservation check was looking at.
  EXPECT_FALSE(b.workers.empty());
  EXPECT_FALSE(b.tasks.empty());
  EXPECT_GT(b.flight_recorded, 0u);
}

// The `--jobs` contract: the bundle serializes to the same bytes whether
// the episode ran serially or interleaved with others on a thread pool —
// capture reads only sim-state, never wall-clock or scheduling order.
TEST(IncidentCapture, BundleBytesIdenticalSerialVsThreadPool) {
  const ChaosScenarioConfig cfg = failing_config();

  std::stringstream serial;
  {
    const ChaosEpisode episode = run_chaos_episode(cfg);
    ASSERT_NE(episode.incident, nullptr);
    obs::write_incident_bundle(*episode.incident, serial);
  }

  // Eight concurrent replicas of the same episode: every bundle must be
  // byte-identical to the serial one.
  std::vector<std::string> pooled(8);
  {
    exp::ThreadPool pool(8);
    std::vector<std::future<void>> futures;
    futures.reserve(pooled.size());
    for (std::size_t i = 0; i < pooled.size(); ++i) {
      futures.push_back(pool.submit([&, i] {
        const ChaosEpisode episode = run_chaos_episode(cfg);
        if (episode.incident == nullptr) return;
        std::stringstream ss;
        obs::write_incident_bundle(*episode.incident, ss);
        pooled[i] = ss.str();
      }));
    }
    for (auto& f : futures) f.get();
  }
  for (const std::string& bytes : pooled) {
    EXPECT_EQ(bytes, serial.str());
  }
}

}  // namespace
}  // namespace vcl::core
