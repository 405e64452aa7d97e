// Seeded mutation tests of the file readers the tools run on user input:
// fault plans (vcl_chaos --repro), incident bundles (vcl_incident), trace
// JSONL (vcl_traceview, vcl_report) and vcl_report's metrics.csv and
// sketches.json loaders. Each reader gets documents written by the
// production writer, then truncated, byte-flipped, given overlong numbers,
// duplicate or unknown keys (columns, for the CSV) and shuffled lines. A
// mutated document must either parse or be refused with an error message;
// it must never crash (the sanitizer build runs this too).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "fault/chaos.h"
#include "obs/incident.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "obs/trace_analysis.h"
#include "util/quantile_sketch.h"
#include "util/rng.h"

namespace vcl {
namespace {

constexpr int kCasesPerReader = 1000;

// Lines of `doc`, each without its newline.
std::vector<std::string> lines_of(const std::string& doc) {
  std::vector<std::string> lines;
  std::istringstream is(doc);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

std::string join(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

bool numeric_char(char c) {
  return std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '.' ||
         c == '-' || c == '+' || c == 'e' || c == 'E';
}

// Replaces the number around one digit with a value no field can hold.
std::string overlong_number(std::string doc, Rng& rng) {
  std::vector<std::size_t> digits;
  for (std::size_t i = 0; i < doc.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(doc[i])) != 0) {
      digits.push_back(i);
    }
  }
  if (digits.empty()) return doc;
  std::size_t begin = digits[rng.index(digits.size())];
  std::size_t end = begin;
  while (begin > 0 && numeric_char(doc[begin - 1])) --begin;
  while (end < doc.size() && numeric_char(doc[end])) ++end;
  const std::vector<std::string> values = {
      std::string(400, '9'),   "1e400", "-1e400", "18446744073709551616",
      "-9223372036854775809",  "4294967296", "2147483648", "-2147483649",
      "1e-400",                "0." + std::string(400, '0') + "1",
      "-0",                    "1.5"};
  return doc.replace(begin, end - begin, rng.pick(values));
}

// Repeats one `"key":value` member right after itself (a value with a
// nested comma or brace repeats only up to it).
std::string duplicate_json_key(std::string doc, Rng& rng) {
  std::vector<std::size_t> starts;
  for (std::size_t i = 1; i < doc.size(); ++i) {
    if (doc[i] == '"' && (doc[i - 1] == '{' || doc[i - 1] == ',')) {
      starts.push_back(i);
    }
  }
  if (starts.empty()) return doc;
  const std::size_t begin = starts[rng.index(starts.size())];
  std::size_t end = begin + 1;
  bool in_string = true;
  for (; end < doc.size(); ++end) {
    const char c = doc[end];
    if (in_string) {
      if (c == '\\') {
        ++end;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == ',' || c == '}' || c == '\n') {
      break;
    }
  }
  const std::string member = doc.substr(begin, end - begin);
  return doc.insert(end, "," + member);
}

std::string unknown_json_key(std::string doc, Rng& rng) {
  std::vector<std::size_t> opens;
  for (std::size_t i = 0; i < doc.size(); ++i) {
    if (doc[i] == '{') opens.push_back(i);
  }
  if (opens.empty()) return doc;
  const std::vector<std::string> values = {
      "1", "\"x\"", "null", "true", "[1,[2]]", "{\"a\":{\"b\":1}}", "-1e400"};
  const std::string member = "\"zz_unknown\":" + rng.pick(values);
  const std::size_t at = opens[rng.index(opens.size())] + 1;
  const bool empty_object = at < doc.size() && doc[at] == '}';
  return doc.insert(at, empty_object ? member : member + ",");
}

// CSV keys are the header's column names: repeat one column, or add one
// the loader has never seen, with a cell in every row.
std::string csv_column(const std::string& doc, Rng& rng, bool duplicate) {
  std::vector<std::string> lines = lines_of(doc);
  if (lines.empty()) return doc;
  std::vector<std::string> header;
  std::istringstream hs(lines[0]);
  for (std::string cell; std::getline(hs, cell, ',');) header.push_back(cell);
  if (header.empty()) return doc;
  const std::size_t col = rng.index(header.size());
  lines[0] += ',';
  lines[0] += duplicate ? header[col] : std::string("zz_unknown");
  for (std::size_t i = 1; i < lines.size(); ++i) {
    std::vector<std::string> cells;
    std::istringstream rs(lines[i]);
    for (std::string cell; std::getline(rs, cell, ',');) cells.push_back(cell);
    lines[i] += ',';
    lines[i] += duplicate && col < cells.size() ? cells[col] : "1";
  }
  return join(lines);
}

std::string shuffle_lines(const std::string& doc, Rng& rng) {
  std::vector<std::string> lines = lines_of(doc);
  if (lines.empty()) return doc;
  const std::size_t i = rng.index(lines.size());
  const std::size_t j = rng.index(lines.size());
  switch (rng.index(3)) {
    case 0:
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i), lines[j]);
      break;
    case 1:
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    default:
      std::swap(lines[i], lines[j]);
      break;
  }
  return join(lines);
}

// One to three stacked mutations of `doc`.
std::string mutate(std::string doc, Rng& rng, bool csv) {
  const std::size_t rounds = 1 + rng.index(3);
  for (std::size_t r = 0; r < rounds; ++r) {
    switch (rng.index(6)) {
      case 0:
        doc.resize(doc.empty() ? 0 : rng.index(doc.size()));
        break;
      case 1:
        for (std::size_t k = 1 + rng.index(3); k > 0 && !doc.empty(); --k) {
          doc[rng.index(doc.size())] = static_cast<char>(rng.index(256));
        }
        break;
      case 2:
        doc = overlong_number(doc, rng);
        break;
      case 3:
        doc = csv ? csv_column(doc, rng, true) : duplicate_json_key(doc, rng);
        break;
      case 4:
        doc = csv ? csv_column(doc, rng, false) : unknown_json_key(doc, rng);
        break;
      default:
        doc = shuffle_lines(doc, rng);
        break;
    }
  }
  return doc;
}

// A reader under test: true when the document parsed, else false with
// `error` set.
using Reader = std::function<bool(const std::string& doc, std::string& error)>;

// Runs the seeded cases; the unmutated document must parse.
void run_cases(const std::string& doc, bool csv, std::uint64_t seed,
               const Reader& read) {
  std::string error;
  ASSERT_TRUE(read(doc, error)) << error;
  Rng rng(seed);
  int refused = 0;
  for (int c = 0; c < kCasesPerReader; ++c) {
    const std::string mutated = mutate(doc, rng, csv);
    error.clear();
    if (!read(mutated, error)) {
      ++refused;
      EXPECT_FALSE(error.empty()) << "case " << c << " refused silently:\n"
                                  << mutated;
    }
  }
  // The mutations reach the readers' error paths, not only their happy
  // path.
  EXPECT_GT(refused, kCasesPerReader / 10);
}

// ---- seed documents, written by the production writers ---------------------

std::string fault_plan_doc() {
  fault::FaultPlan plan;
  std::ifstream in(VCL_TEST_DATA_DIR "/storm_plan.jsonl");
  fault::FaultPlanMeta meta;
  std::string error;
  EXPECT_TRUE(fault::parse_fault_plan_jsonl(in, plan, meta, &error)) << error;
  meta.set("vehicles", 25);
  meta.set("intensity", 0.5);
  std::ostringstream os;
  fault::write_fault_plan_jsonl(plan, meta, os);
  return os.str();
}

std::string incident_doc() {
  obs::IncidentBundle b;
  b.seed = 7;
  b.captured_at = 12.25;
  b.trigger = "task-conservation";
  b.flight_recorded = 4;
  b.broker = 3;
  b.pending = 1;
  b.violations.push_back({12.25, "task-conservation", "task \"9\" lost", 9});
  b.flight.push_back({11.5, 1, "fault", "fault.crash", 3, 0, 0.0});
  b.flight.push_back({12.0, 2, "detector", "detector.evict", 3, 1, 2.5});
  b.windows.push_back({10.0, 14.0, 120.5, -40.0, 300.0, true});
  b.open_spans.push_back({8.0, "task", "task.life", 9, 17});
  b.workers.push_back({3, true, true});
  b.tasks.push_back({9, "running", 2.5, 10.0, 1.0, 3, 9});
  b.objects.push_back({1, 2});
  b.replicas.push_back({1, 3, 2, false, true});
  b.graphs.push_back({4, false, false, 2});
  b.dag_nodes.push_back({4, 1, true, false, 1});
  std::ostringstream os;
  obs::write_incident_bundle(b, os);
  return os.str();
}

std::string trace_doc() {
  obs::TraceRecorder trace;
  trace.record(0.5, obs::TraceCategory::kFault, "fault.window",
               {{"start", 0.5}, {"end", 2.0}, {"radius", 300.0}});
  obs::TraceContext task{trace.new_trace_id(), 0};
  task.span_id = trace.begin_span(1.0, obs::TraceCategory::kTask,
                                  "task.life", task, {{"task", 1.0}});
  obs::TraceContext leg{task.trace_id, 0};
  leg.span_id = trace.begin_span(1.25, obs::TraceCategory::kTask, "leg.exec",
                                 task, {{"worker", 4.0}});
  trace.record(1.5, obs::TraceCategory::kNet, "net.rx", leg,
               {{"dst", 4.0}, {"delay", 0.00125}});
  trace.end_span(3.0, obs::TraceCategory::kTask, "leg.exec", leg);
  trace.end_span(3.5, obs::TraceCategory::kTask, "task.life", task,
                 {{"outcome", obs::kOutcomeCompleted}});
  std::ostringstream os;
  trace.write_jsonl(os);
  return os.str();
}

// metrics.csv and sketches.json of a registry sampled three times.
struct MetricsDocs {
  std::string csv;
  std::string sketches;
};

MetricsDocs metrics_docs() {
  obs::MetricsRegistry registry;
  double submitted = 0.0;
  registry.gauge("cloud.task.submitted", [&submitted] { return submitted; });
  registry.gauge("net.dropped", [] { return 3.0; });
  QuantileSketch latency;
  registry.sketch_view("cloud.task.latency", latency);
  for (int t = 0; t < 3; ++t) {
    submitted += 2.0;
    latency.add(0.5 * (t + 1));
    latency.add(0.0);
    registry.sample(static_cast<double>(t));
  }
  MetricsDocs docs;
  std::ostringstream csv;
  registry.write_csv(csv);
  docs.csv = csv.str();
  std::ostringstream sketches;
  registry.write_sketches_json(sketches);
  docs.sketches = sketches.str();
  return docs;
}

// vcl_report's loaders read files: each case writes the one artifact into
// a fresh telemetry directory and builds the report from it.
class ReportDir {
 public:
  ReportDir()
      : dir_(std::filesystem::temp_directory_path() /
             ("vcl_parser_mutation_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()
                  ->current_test_info()
                  ->name())) {
    std::filesystem::create_directories(dir_);
  }
  ~ReportDir() { std::filesystem::remove_all(dir_); }
  ReportDir(const ReportDir&) = delete;
  ReportDir& operator=(const ReportDir&) = delete;

  bool read(const std::string& file, const std::string& doc,
            std::string& error) const {
    std::ofstream(dir_ / file, std::ios::binary | std::ios::trunc) << doc;
    obs::RunHealth health;
    return obs::build_run_health({dir_.string()}, health, &error);
  }

 private:
  std::filesystem::path dir_;
};

// ---- the readers -----------------------------------------------------------

TEST(ParserMutation, FaultPlanJsonl) {
  run_cases(fault_plan_doc(), false, 101,
            [](const std::string& doc, std::string& error) {
              std::istringstream is(doc);
              fault::FaultPlan plan;
              fault::FaultPlanMeta meta;
              return fault::parse_fault_plan_jsonl(is, plan, meta, &error);
            });
}

TEST(ParserMutation, IncidentBundle) {
  run_cases(incident_doc(), false, 202,
            [](const std::string& doc, std::string& error) {
              std::istringstream is(doc);
              obs::IncidentBundle bundle;
              return obs::parse_incident_bundle(is, bundle, &error);
            });
}

TEST(ParserMutation, TraceJsonl) {
  run_cases(trace_doc(), false, 303,
            [](const std::string& doc, std::string& error) {
              std::istringstream is(doc);
              std::vector<obs::ParsedEvent> events;
              obs::TraceMeta meta;
              return obs::parse_trace_jsonl(is, events, meta, &error);
            });
}

TEST(ParserMutation, ReportMetricsCsv) {
  const ReportDir dir;
  run_cases(metrics_docs().csv, true, 404,
            [&dir](const std::string& doc, std::string& error) {
              return dir.read("metrics.csv", doc, error);
            });
}

TEST(ParserMutation, ReportSketchesJson) {
  const ReportDir dir;
  run_cases(metrics_docs().sketches, false, 505,
            [&dir](const std::string& doc, std::string& error) {
              return dir.read("sketches.json", doc, error);
            });
}

}  // namespace
}  // namespace vcl
