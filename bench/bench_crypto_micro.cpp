// E14 — Crypto substrate microbenchmarks (google-benchmark).
//
// Measures the toy-group primitives' real wall-clock costs. These are NOT
// the latencies used by the in-sim experiments (crypto::cost charges
// production OBU-class figures, see crypto/cost_model.h); this bench exists
// to document the gap and to catch performance regressions in the substrate
// itself.
//
// Unlike the sim benches this one runs under google-benchmark, but it still
// speaks the shared `--json <path>` vcl-bench-v1 contract: a custom main
// captures every run off the console reporter and feeds one table
// (benchmark / real_ns / cpu_ns) through obs::BenchReporter, so
// scripts/collect_bench.sh validates it like any other bench.
//
// Each benchmark is repeated `--reps N` times (default 5; 1 disables) via
// google-benchmark's own repetition machinery, and the real_ns/cpu_ns cells
// carry cross-repetition {mean, ci95, n} annotations — the same CellStat
// form the experiment engine emits — so scripts/bench_diff.py can apply its
// CI-overlap rule to these machine-dependent wall-clock numbers instead of
// the bench being excluded with --skip-bench.
#include <benchmark/benchmark.h>

#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "access/abe.h"
#include "crypto/elgamal.h"
#include "crypto/merkle.h"
#include "crypto/schnorr.h"
#include "crypto/shamir.h"
#include "obs/bench_output.h"
#include "util/flags.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace vcl;
using namespace vcl::crypto;

void BM_Sha256_64B(benchmark::State& state) {
  Drbg drbg(std::uint64_t{1});
  const Bytes data = drbg.generate(64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::hash(data));
  }
}
BENCHMARK(BM_Sha256_64B);

void BM_Sha256_4KiB(benchmark::State& state) {
  Drbg drbg(std::uint64_t{2});
  const Bytes data = drbg.generate(4096);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::hash(data));
  }
}
BENCHMARK(BM_Sha256_4KiB);

void BM_HmacSha256(benchmark::State& state) {
  Drbg drbg(std::uint64_t{3});
  const Bytes key = drbg.generate(32);
  const Bytes msg = drbg.generate(256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmac_sha256(key, msg));
  }
}
BENCHMARK(BM_HmacSha256);

void BM_SchnorrSign(benchmark::State& state) {
  Drbg drbg(std::uint64_t{4});
  const Schnorr schnorr(default_group());
  const auto kp = schnorr.keygen(drbg);
  const Bytes msg = drbg.generate(128);
  for (auto _ : state) {
    benchmark::DoNotOptimize(schnorr.sign(kp.secret, msg, drbg));
  }
}
BENCHMARK(BM_SchnorrSign);

void BM_SchnorrVerify(benchmark::State& state) {
  Drbg drbg(std::uint64_t{5});
  const Schnorr schnorr(default_group());
  const auto kp = schnorr.keygen(drbg);
  const Bytes msg = drbg.generate(128);
  const auto sig = schnorr.sign(kp.secret, msg, drbg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(schnorr.verify(kp.pub, msg, sig));
  }
}
BENCHMARK(BM_SchnorrVerify);

void BM_ElGamalSeal_1KiB(benchmark::State& state) {
  Drbg drbg(std::uint64_t{6});
  const auto& g = default_group();
  const ElGamal eg(g);
  const std::uint64_t secret = drbg.next_scalar(g.q());
  const std::uint64_t pub = g.pow_g(secret);
  const Bytes plain = drbg.generate(1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eg.seal(pub, plain, drbg));
  }
}
BENCHMARK(BM_ElGamalSeal_1KiB);

void BM_ElGamalOpen_1KiB(benchmark::State& state) {
  Drbg drbg(std::uint64_t{7});
  const auto& g = default_group();
  const ElGamal eg(g);
  const std::uint64_t secret = drbg.next_scalar(g.q());
  const std::uint64_t pub = g.pow_g(secret);
  const auto ct = eg.seal(pub, drbg.generate(1024), drbg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eg.open(secret, ct));
  }
}
BENCHMARK(BM_ElGamalOpen_1KiB);

void BM_ShamirSplit(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  Drbg drbg(std::uint64_t{8});
  const Shamir shamir(default_group().q());
  for (auto _ : state) {
    benchmark::DoNotOptimize(shamir.split(12345, k, 2 * k, drbg));
  }
}
BENCHMARK(BM_ShamirSplit)->Arg(2)->Arg(5)->Arg(10);

void BM_ShamirReconstruct(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  Drbg drbg(std::uint64_t{9});
  const Shamir shamir(default_group().q());
  auto shares = shamir.split(12345, k, k, drbg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(shamir.reconstruct(shares));
  }
}
BENCHMARK(BM_ShamirReconstruct)->Arg(2)->Arg(5)->Arg(10);

access::Policy wide_policy(int leaves) {
  std::string text = "a0";
  for (int i = 1; i < leaves; ++i) text += " & a" + std::to_string(i);
  return *access::Policy::parse(text);
}

void BM_AbeEncrypt(benchmark::State& state) {
  const int leaves = static_cast<int>(state.range(0));
  access::AbeAuthority authority(1);
  Drbg drbg(std::uint64_t{10});
  OpCounts ops;
  const auto policy = wide_policy(leaves);
  const std::uint64_t m = default_group().pow_g(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(authority.encrypt(m, policy, drbg, ops));
  }
}
BENCHMARK(BM_AbeEncrypt)->Arg(1)->Arg(4)->Arg(16);

void BM_AbeDecrypt(benchmark::State& state) {
  const int leaves = static_cast<int>(state.range(0));
  access::AbeAuthority authority(1);
  Drbg drbg(std::uint64_t{11});
  OpCounts ops;
  const auto policy = wide_policy(leaves);
  access::AttributeSet attrs;
  for (int i = 0; i < leaves; ++i) {
    attrs.add(std::string("a").append(std::to_string(i)));
  }
  const auto key = authority.keygen(attrs);
  const std::uint64_t m = default_group().pow_g(7);
  const auto ct = authority.encrypt(m, policy, drbg, ops);
  for (auto _ : state) {
    benchmark::DoNotOptimize(access::AbeAuthority::decrypt(ct, key, attrs, ops));
  }
}
BENCHMARK(BM_AbeDecrypt)->Arg(1)->Arg(4)->Arg(16);

void BM_MerkleBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Drbg drbg(std::uint64_t{12});
  std::vector<Bytes> payloads;
  for (std::size_t i = 0; i < n; ++i) payloads.push_back(drbg.generate(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MerkleTree::from_payloads(payloads));
  }
}
BENCHMARK(BM_MerkleBuild)->Arg(16)->Arg(256);

void BM_MerkleProveVerify(benchmark::State& state) {
  Drbg drbg(std::uint64_t{13});
  std::vector<Bytes> payloads;
  for (int i = 0; i < 256; ++i) payloads.push_back(drbg.generate(64));
  const MerkleTree tree = MerkleTree::from_payloads(payloads);
  const Digest leaf = Sha256::hash(payloads[100]);
  for (auto _ : state) {
    const auto proof = tree.prove(100);
    benchmark::DoNotOptimize(MerkleTree::verify(tree.root(), leaf, proof));
  }
}
BENCHMARK(BM_MerkleProveVerify);

void BM_GroupDerivation(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SchnorrGroup::derive(seed++));
  }
}
BENCHMARK(BM_GroupDerivation);

// Captures each finished run while still printing the usual console table.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  std::vector<Run> runs;

  void ReportRuns(const std::vector<Run>& reports) override {
    runs.insert(runs.end(), reports.begin(), reports.end());
    ConsoleReporter::ReportRuns(reports);
  }
};

// One benchmark's repetition scatter, keyed by display name in first-seen
// order. Accumulators retain no samples: only mean/ci95 are reported.
struct RepStats {
  std::string name;
  vcl::Accumulator real_ns;
  vcl::Accumulator cpu_ns;
};

}  // namespace

int main(int argc, char** argv) {
  vcl::obs::BenchReporter reporter("bench_crypto_micro", argc, argv);

  // Repetitions: scan our own `--reps N` flag, then hand google-benchmark a
  // patched argv with --benchmark_repetitions so its machinery does the
  // repeating. --reps 1 keeps the old single-run behaviour (plain cells).
  int reps = 5;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) != "--reps") continue;
    if (!vcl::parse_flag(i + 1 < argc ? argv[i + 1] : nullptr, 1, 10000,
                         reps)) {
      std::cerr << "usage: " << argv[0]
                << " [--reps 1..10000] [--json FILE] [--benchmark_*]\n";
      return 2;
    }
  }
  std::vector<char*> patched(argv, argv + argc);
  std::string reps_flag = "--benchmark_repetitions=" + std::to_string(reps);
  patched.push_back(reps_flag.data());
  int patched_argc = static_cast<int>(patched.size());
  // benchmark::Initialize consumes only --benchmark_* flags; ours (--json,
  // --reps) pass through, so ReportUnrecognizedArguments is skipped.
  benchmark::Initialize(&patched_argc, patched.data());

  CapturingReporter console;
  benchmark::RunSpecifiedBenchmarks(&console);

  // Fold per-repetition runs (RT_Iteration) into one row per benchmark;
  // google-benchmark's own aggregate rows (_mean/_stddev...) are dropped in
  // favour of the house CellStat form.
  std::vector<RepStats> folded;
  for (const auto& run : console.runs) {
    if (run.error_occurred) continue;
    if (run.run_type != benchmark::BenchmarkReporter::Run::RT_Iteration) {
      continue;
    }
    const std::string name = run.benchmark_name();
    RepStats* slot = nullptr;
    for (auto& s : folded) {
      if (s.name == name) slot = &s;
    }
    if (slot == nullptr) {
      folded.emplace_back();
      slot = &folded.back();
      slot->name = name;
    }
    slot->real_ns.add(run.GetAdjustedRealTime());
    slot->cpu_ns.add(run.GetAdjustedCPUTime());
  }

  // Iteration counts are deliberately NOT a column: google-benchmark tunes
  // them per run, so they would read as spurious diffs downstream.
  vcl::Table table("E14: crypto substrate micro timings (this machine)",
                   {"benchmark", "real_ns", "cpu_ns"});
  vcl::obs::TableStats stats;
  for (const auto& s : folded) {
    table.add_row({s.name, vcl::Table::num(s.real_ns.mean(), 1),
                   vcl::Table::num(s.cpu_ns.mean(), 1)});
    std::vector<std::optional<vcl::obs::CellStat>> row(3);
    if (s.real_ns.count() > 1) {
      row[1] = vcl::obs::CellStat{s.real_ns.mean(),
                                  vcl::ci95_half_width(s.real_ns),
                                  s.real_ns.count()};
      row[2] = vcl::obs::CellStat{s.cpu_ns.mean(),
                                  vcl::ci95_half_width(s.cpu_ns),
                                  s.cpu_ns.count()};
    }
    stats.push_back(std::move(row));
  }
  reporter.add(table, std::move(stats));
  return reporter.finish();
}
