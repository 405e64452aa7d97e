#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/system.h"
#include "exp/campaign.h"
#include "exp/replicator.h"
#include "exp/sweep.h"
#include "util/rng.h"

namespace vcl::exp {
namespace {

// ---- Seed derivation ------------------------------------------------------

TEST(RepSeed, RepZeroKeepsBaseSeed) {
  EXPECT_EQ(rep_seed(1234, 0), 1234u);
  EXPECT_EQ(rep_seed(0, 0), 0u);
}

TEST(RepSeed, MatchesRngForkDerivation) {
  for (const std::uint64_t base : {5ULL, 44ULL, 1234ULL}) {
    for (std::size_t r = 1; r < 5; ++r) {
      EXPECT_EQ(rep_seed(base, r), Rng(base).fork(r).seed());
    }
  }
}

TEST(RepSeed, DistinctAcrossReps) {
  std::set<std::uint64_t> seen;
  for (std::size_t r = 0; r < 64; ++r) seen.insert(rep_seed(11, r));
  EXPECT_EQ(seen.size(), 64u);
}

// ---- replicate ------------------------------------------------------------

RepReport stochastic_rep(const RepContext& ctx) {
  Rng rng(ctx.seed);
  RepReport rep;
  for (int i = 0; i < 16; ++i) rep.value("x", rng.uniform());
  rep.value("rep_index", static_cast<double>(ctx.rep));
  return rep;
}

TEST(Replicate, AggregateBitIdenticalAcrossJobCounts) {
  const ReplicateOptions opts{/*reps=*/8, /*base_seed=*/99, /*out_dir=*/{}};
  ThreadPool pool(8);
  const auto a = replicate(opts, stochastic_rep);
  const auto b = replicate(opts, stochastic_rep, &pool);
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [name, sa] : a) {
    const Summary& sb = b.at(name);
    EXPECT_EQ(sa.n(), sb.n());
    EXPECT_EQ(sa.mean(), sb.mean());      // bit-identical, not just close
    EXPECT_EQ(sa.stddev(), sb.stddev());
    EXPECT_EQ(sa.ci95(), sb.ci95());
    EXPECT_EQ(sa.across.min(), sb.across.min());
    EXPECT_EQ(sa.across.max(), sb.across.max());
  }
}

RepReport tailed_rep(const RepContext& ctx) {
  Rng rng(ctx.seed);
  RepReport rep;
  auto& t = rep.tail("latency");
  for (int i = 0; i < 200; ++i) t.add(std::exp(rng.normal(-3.0, 1.5)));
  rep.value("rep_index", static_cast<double>(ctx.rep));
  return rep;
}

TEST(Replicate, TailSketchesBitIdenticalAcrossJobCounts) {
  // Tail sketches fold in fixed rep order regardless of which worker
  // finished first, and bucket-count merges are exact — so every quantile
  // (and even the order-sensitive sum) is bit-identical for any --jobs.
  const ReplicateOptions opts{/*reps=*/8, /*base_seed=*/99, /*out_dir=*/{}};
  ThreadPool pool(8);
  const auto a = replicate(opts, tailed_rep);
  const auto b = replicate(opts, tailed_rep, &pool);
  const Summary& sa = a.at("latency");
  const Summary& sb = b.at("latency");
  ASSERT_TRUE(sa.has_tail);
  ASSERT_TRUE(sb.has_tail);
  EXPECT_EQ(sa.tail.count(), sb.tail.count());
  EXPECT_EQ(sa.tail.count(), 8u * 200u);
  for (const double q : {0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(sa.tail.quantile(q), sb.tail.quantile(q)) << "q=" << q;
  }
  EXPECT_EQ(sa.tail.sum(), sb.tail.sum());
  EXPECT_EQ(sa.tail.min(), sb.tail.min());
}

TEST(Replicate, RepZeroSeesBaseSeedAndOthersDiffer) {
  ReplicateOptions opts{/*reps=*/4, /*base_seed=*/77, /*out_dir=*/{}};
  std::vector<std::uint64_t> seeds(4, 0);
  replicate(opts, [&](const RepContext& ctx) {
    seeds[ctx.rep] = ctx.seed;
    RepReport rep;
    rep.value("x", 0.0);
    return rep;
  });
  EXPECT_EQ(seeds[0], 77u);
  for (std::size_t r = 1; r < 4; ++r) EXPECT_NE(seeds[r], 77u);
}

TEST(Replicate, SummaryCi95MatchesHandComputation) {
  ReplicateOptions opts{/*reps=*/4, /*base_seed=*/0, /*out_dir=*/{}};
  const auto summary = replicate(opts, [](const RepContext& ctx) {
    RepReport rep;
    rep.value("v", static_cast<double>(ctx.rep));  // 0, 1, 2, 3
    return rep;
  });
  const Summary& s = summary.at("v");
  EXPECT_EQ(s.n(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 1.5);
  const double stddev = std::sqrt(5.0 / 3.0);
  EXPECT_DOUBLE_EQ(s.stddev(), stddev);
  EXPECT_DOUBLE_EQ(s.ci95(), student_t95(3) * stddev / 2.0);
}

TEST(Replicate, AcrossTakesOneMeanPerReplication) {
  ReplicateOptions opts{/*reps=*/3, /*base_seed=*/0, /*out_dir=*/{}};
  const auto summary = replicate(opts, [](const RepContext& ctx) {
    RepReport rep;
    rep.value("x", static_cast<double>(ctx.rep));
    rep.value("x", static_cast<double>(ctx.rep) + 10.0);
    return rep;
  });
  const Summary& s = summary.at("x");
  EXPECT_EQ(s.n(), 3u);  // one mean per replication: 5, 6, 7
  EXPECT_DOUBLE_EQ(s.across.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.across.max(), 7.0);
}

TEST(Replicate, FirstExceptionInRepOrderIsRethrown) {
  ThreadPool four(4);
  for (const std::size_t jobs : {1UL, 4UL}) {
    const ReplicateOptions opts{/*reps=*/6, /*base_seed=*/0, /*out_dir=*/{}};
    try {
      replicate(
          opts,
          [](const RepContext& ctx) -> RepReport {
            if (ctx.rep == 2 || ctx.rep == 4) {
              throw std::runtime_error("rep " + std::to_string(ctx.rep));
            }
            return {};
          },
          jobs > 1 ? &four : nullptr);
      FAIL() << "replicate() should have rethrown (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "rep 2") << "jobs=" << jobs;
    }
  }
}

TEST(Replicate, OutDirCreatesOneDirectoryPerReplication) {
  // The per-replication telemetry export path: rep k gets
  // "<out_dir>/rep<k>", pre-created before any parallel dispatch so the
  // replication fn can write into it without filesystem races.
  const std::string root =
      ::testing::TempDir() + "vcl_replicate_out/deep/tree";
  const ReplicateOptions opts{/*reps=*/3, /*base_seed=*/5, root};
  ThreadPool pool(2);
  replicate(
      opts,
      [](const RepContext& ctx) {
        EXPECT_FALSE(ctx.out_dir.empty());
        std::ofstream(ctx.out_dir + "/marker.txt") << ctx.rep << "\n";
        RepReport rep;
        rep.value("x", 0.0);
        return rep;
      },
      &pool);
  for (std::size_t r = 0; r < 3; ++r) {
    const std::string dir = root + "/rep" + std::to_string(r);
    EXPECT_TRUE(std::filesystem::is_directory(dir)) << dir;
    EXPECT_TRUE(std::filesystem::exists(dir + "/marker.txt")) << dir;
  }
  EXPECT_FALSE(std::filesystem::exists(root + "/rep3"));
}

TEST(Replicate, EmptyOutDirLeavesContextsPathless) {
  ReplicateOptions opts{/*reps=*/2, /*base_seed=*/5, /*out_dir=*/{}};
  replicate(opts, [](const RepContext& ctx) {
    EXPECT_TRUE(ctx.out_dir.empty());
    RepReport rep;
    rep.value("x", 0.0);
    return rep;
  });
}

// ---- Sweep ----------------------------------------------------------------

struct ToyConfig {
  int value = 0;
  std::string tag;
};

TEST(Sweep, CartesianGridFirstAxisSlowest) {
  Sweep<ToyConfig> sweep;
  sweep.axis("a")
      .point("a0", [](ToyConfig&) {})
      .point("a1", [](ToyConfig&) {});
  sweep.axis("b")
      .point("b0", [](ToyConfig&) {})
      .point("b1", [](ToyConfig&) {})
      .point("b2", [](ToyConfig&) {});
  const auto cells = sweep.cells();
  ASSERT_EQ(cells.size(), 6u);
  const std::vector<std::string> expect = {"a0/b0", "a0/b1", "a0/b2",
                                           "a1/b0", "a1/b1", "a1/b2"};
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].label(), expect[i]);
  }
}

TEST(Sweep, MutatorsApplyInAxisOrder) {
  Sweep<ToyConfig> sweep;
  sweep.axis("set").point("five", [](ToyConfig& c) { c.value = 5; });
  sweep.axis("scale").point("x3", [](ToyConfig& c) { c.value *= 3; });
  const auto cells = sweep.cells();
  ASSERT_EQ(cells.size(), 1u);
  ToyConfig base;
  base.value = 1;
  const ToyConfig made = cells[0].make(base);
  EXPECT_EQ(made.value, 15);  // set THEN scale, never the reverse
  EXPECT_EQ(base.value, 1);   // make() copies; the base is untouched
}

TEST(Sweep, EmptySweepHasNoCells) {
  Sweep<ToyConfig> sweep;
  EXPECT_TRUE(sweep.cells().empty());
}

// ---- Campaign -------------------------------------------------------------

// argv helper: Campaign scans a mutable char** like main() receives.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : strings_(std::move(args)) {
    for (auto& s : strings_) ptrs_.push_back(s.data());
  }
  [[nodiscard]] int argc() const { return static_cast<int>(ptrs_.size()); }
  [[nodiscard]] char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> strings_;
  std::vector<char*> ptrs_;
};

TEST(Campaign, ParsesRepsAndJobsFlags) {
  Argv args({"bench", "--reps", "4", "--jobs", "2"});
  Campaign campaign("bench", args.argc(), args.argv());
  EXPECT_EQ(campaign.reps(), 4u);
  EXPECT_EQ(campaign.jobs(), 2u);
}

TEST(Campaign, DefaultsToSingleRepAndRejectsZeroReps) {
  Argv plain({"bench"});
  Campaign a("bench", plain.argc(), plain.argv());
  EXPECT_EQ(a.reps(), 1u);
  EXPECT_EQ(a.jobs(), 1u);

  // Out of range is a usage error, not a silent clamp to one rep.
  Argv zero({"bench", "--reps", "0"});
  EXPECT_EXIT(Campaign("bench", zero.argc(), zero.argv()),
              ::testing::ExitedWithCode(2), "usage: bench");
}

TEST(Campaign, SingleRepJsonMatchesPlainReporterOutput) {
  // The compatibility contract: at --reps 1 a stat cell is indistinguishable
  // from the plain cell the pre-engine benches emitted.
  Argv args({"bench"});
  Campaign campaign("bench", args.argc(), args.argv());
  const auto summary = campaign.replicate(7, [](const RepContext&) {
    RepReport rep;
    rep.value("m", 2.5);
    return rep;
  });
  campaign.emit("t", {"label", "m"},
                {{Cell("row"), Cell(summary.at("m"), 1)}});

  Argv plain_args({"bench"});
  obs::BenchReporter plain("bench", plain_args.argc(), plain_args.argv());
  Table table("t", {"label", "m"});
  table.add_row({"row", Table::num(2.5, 1)});
  plain.add(table);

  const auto tables_part = [](const std::string& json) {
    return json.substr(json.find("\"tables\""));
  };
  EXPECT_EQ(tables_part(campaign.reporter().to_json()),
            tables_part(plain.to_json()));
}

TEST(Campaign, ReplicatedCellsCarryStatsInJson) {
  Argv args({"bench", "--reps", "3"});
  Campaign campaign("bench", args.argc(), args.argv());
  const auto summary = campaign.replicate(7, [](const RepContext& ctx) {
    RepReport rep;
    rep.value("m", static_cast<double>(ctx.rep));
    return rep;
  });
  campaign.emit("t", {"label", "m"},
                {{Cell("row"), Cell(summary.at("m"), 2)}});
  const std::string json = campaign.reporter().to_json();
  EXPECT_NE(json.find("\"mean\""), std::string::npos);
  EXPECT_NE(json.find("\"ci95\""), std::string::npos);
  EXPECT_NE(json.find("\"n\":3"), std::string::npos);
  EXPECT_NE(json.find("\"reps\":3"), std::string::npos);
}

TEST(Campaign, TelemetryDirRoutesEachReplicateCallToItsOwnCell) {
  const std::string root = ::testing::TempDir() + "vcl_campaign_tel";
  Argv args({"bench", "--reps", "2", "--telemetry-dir", root});
  Campaign campaign("bench", args.argc(), args.argv());
  EXPECT_EQ(campaign.telemetry_dir(), root);

  std::vector<std::string> seen;
  auto rep_fn = [&seen](const RepContext& ctx) {
    seen.push_back(ctx.out_dir);
    RepReport rep;
    rep.value("x", 0.0);
    return rep;
  };
  campaign.replicate(1, rep_fn);  // sweep cell 0
  campaign.replicate(2, rep_fn);  // sweep cell 1
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0], root + "/cell0/rep0");
  EXPECT_EQ(seen[1], root + "/cell0/rep1");
  EXPECT_EQ(seen[2], root + "/cell1/rep0");
  EXPECT_EQ(seen[3], root + "/cell1/rep1");
  for (const auto& dir : seen) {
    EXPECT_TRUE(std::filesystem::is_directory(dir)) << dir;
  }
}

TEST(Campaign, WithoutTelemetryDirReplicationsStayPathless) {
  Argv args({"bench", "--reps", "2"});
  Campaign campaign("bench", args.argc(), args.argv());
  EXPECT_TRUE(campaign.telemetry_dir().empty());
  campaign.replicate(1, [](const RepContext& ctx) {
    EXPECT_TRUE(ctx.out_dir.empty());
    RepReport rep;
    rep.value("x", 0.0);
    return rep;
  });
}

// ---- End-to-end determinism on the real system ----------------------------

// The acceptance property behind `bench --reps N --jobs J`: the emitted JSON
// document (modulo the wall_s scalar) is byte-identical for any job count,
// because replication seeds depend only on the rep index and reduction runs
// in replication order.
std::string run_mini_campaign(std::size_t jobs) {
  Argv args({"bench", "--reps", "6", "--jobs", std::to_string(jobs)});
  Campaign campaign("mini", args.argc(), args.argv());
  const auto summary = campaign.replicate(21, [](const RepContext& ctx) {
    core::SystemConfig cfg;
    cfg.scenario.vehicles = 15;
    cfg.scenario.seed = ctx.seed;
    core::VehicularCloudSystem system(cfg);
    system.start();
    vcloud::WorkloadGenerator workload({4.0, 1.0, 0.2, 30.0},
                                       system.scenario().fork_rng(9));
    auto& sim = system.scenario().simulator();
    sim.schedule_every(2.0, [&] {
      system.cloud().submit(workload.next(sim.now()));
    });
    system.run_for(40.0);
    const auto& st = system.cloud().stats();
    RepReport rep;
    rep.value("completed", static_cast<double>(st.completed));
    rep.value("members", static_cast<double>(system.cloud().member_count()));
    rep.value("latency", st.latency.mean());
    return rep;
  });
  campaign.emit("mini", {"completed", "members", "latency"},
                {{Cell(summary.at("completed"), 1),
                  Cell(summary.at("members"), 1),
                  Cell(summary.at("latency"), 3)}});
  const std::string json = campaign.reporter().to_json();
  return json.substr(json.find("\"tables\""));  // strips the wall_s scalar
}

TEST(Campaign, RealSystemJsonByteIdenticalForAnyJobCount) {
  const std::string serial = run_mini_campaign(1);
  const std::string parallel = run_mini_campaign(4);
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace vcl::exp
