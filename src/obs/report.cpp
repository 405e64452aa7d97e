#include "obs/report.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/json.h"
#include "util/table.h"

namespace vcl::obs {

namespace {

bool read_file(const std::string& path, std::string& out) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;
  std::ostringstream ss;
  ss << is.rdbuf();
  out = ss.str();
  return true;
}

bool fail(std::string* error, const std::string& why) {
  if (error != nullptr) *error = why;
  return false;
}

// ---- per-artifact loaders ---------------------------------------------------

// A CSV line's cells, empty ones included ("1,,2" has three).
std::vector<std::string> split_cells(const std::string& line) {
  std::vector<std::string> cells(1);
  for (const char c : line) {
    if (c == ',') {
      cells.emplace_back();
    } else {
      cells.back() += c;
    }
  }
  return cells;
}

// A metrics.csv value: one whole finite number, or the writer's `null`
// for a non-finite gauge reading (counted as 0).
bool parse_cell(const std::string& cell, double& out) {
  if (cell == "null") {
    out = 0.0;
    return true;
  }
  const char* end = cell.data() + cell.size();
  const auto [last, ec] = std::from_chars(cell.data(), end, out);
  return ec == std::errc{} && last == end && std::isfinite(out);
}

// Every row must match the header's width and hold only numbers; the final
// row's values are the run's end-of-run counters.
bool load_metrics_csv(const std::string& path, RunHealth& h,
                      std::string* error) {
  std::ifstream is(path);
  std::string header;
  if (!std::getline(is, header)) return fail(error, path + ": empty file");
  const std::vector<std::string> columns = split_cells(header);
  std::vector<double> last;
  std::string line;
  for (std::size_t n = 2; std::getline(is, line); ++n) {
    if (line.empty()) continue;
    const std::string where = path + ": line " + std::to_string(n) + ": ";
    const std::vector<std::string> cells = split_cells(line);
    if (cells.size() != columns.size()) {
      return fail(error, where + std::to_string(cells.size()) +
                             " cells, header has " +
                             std::to_string(columns.size()));
    }
    last.resize(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (!parse_cell(cells[i], last[i])) {
        return fail(error, where + "column " + columns[i] + ": '" + cells[i] +
                               "' is not a finite number");
      }
    }
  }
  // A header-only file (metrics registered, never sampled) adds nothing.
  for (std::size_t i = 0; i < last.size(); ++i) {
    if (columns[i] != "t") h.counters[columns[i]] += last[i];
  }
  return true;
}

bool load_sketches_json(const std::string& path, RunHealth& h,
                        std::string* error) {
  std::string text;
  if (!read_file(path, text)) return fail(error, path + ": unreadable");
  JsonValue doc;
  std::string why;
  if (!parse_json_object(text, doc, &why)) {
    return fail(error, path + ": " + why);
  }
  const JsonValue* sketches = doc.find("sketches");
  if (sketches == nullptr || sketches->kind != JsonValue::Kind::kArray) {
    return fail(error, path + ": no \"sketches\" array");
  }
  for (const JsonValue& s : sketches->items) {
    if (s.kind != JsonValue::Kind::kObject) {
      return fail(error, path + ": non-object sketch");
    }
    JsonFields f(s);
    const std::string name = f.str("name");
    if (name.empty()) return fail(error, path + ": sketch without a name");
    const std::string where = path + ": sketch " + name + ": ";
    const double alpha = f.number("relative_error", 0.01);
    const std::uint64_t max_buckets = f.u64("max_buckets", 2048);
    const std::uint64_t zero_count = f.u64("zero_count");
    if (!f.ok()) return fail(error, where + f.error());
    try {
      QuantileSketch sketch(alpha, max_buckets);
      sketch.add_zero(zero_count);
      if (const JsonValue* buckets = s.find("buckets"); buckets != nullptr) {
        for (const JsonValue& b : buckets->items) {
          std::int32_t index = 0;
          std::uint64_t count = 0;
          if (b.items.size() != 2 || !b.items[0].get(index) ||
              !b.items[1].get(count)) {
            return fail(error, where + "bucket is not [int32, uint64]");
          }
          sketch.add_bucket(index, count);
        }
      }
      auto [it, inserted] = h.sketches.try_emplace(name, sketch);
      if (!inserted) it->second.merge(sketch);
    } catch (const std::invalid_argument& e) {
      return fail(error, where + e.what());
    }
  }
  return true;
}

bool load_violations_jsonl(const std::string& path, RunHealth& h,
                           std::string* error) {
  std::ifstream is(path);
  const auto record = [&h](const JsonValue& obj, std::size_t,
                           std::string& why) {
    JsonFields f(obj);
    if (obj.find("meta") != nullptr) {
      h.checks_run += f.u64("checks_run");
      h.violation_count += f.u64("violations");
    } else {
      ReportViolation v;
      v.t = f.number("t");
      v.invariant = f.str("invariant", "?");
      v.detail = f.str("detail");
      v.task = f.number("task", -1.0);
      v.seed = f.u64("seed");
      if (f.ok()) h.violations.push_back(std::move(v));
    }
    why = f.error();
    return f.ok();
  };
  std::string why;
  if (!read_jsonl(is, record, &why)) return fail(error, path + ": " + why);
  return true;
}

bool load_trace_jsonl(const std::string& path, RunHealth& h,
                      std::string* error) {
  std::ifstream is(path);
  std::vector<ParsedEvent> events;
  TraceMeta meta;
  std::string why;
  if (!parse_trace_jsonl(is, events, meta, &why)) {
    return fail(error, path + ": " + why);
  }
  h.trace_meta = meta;
  if (meta.present) {
    h.trace_overwritten += meta.overwritten;
    h.trace_dropped_fields += meta.dropped_fields;
    if (!meta.complete()) ++h.traces_wrapped;
  }
  const TraceAnalysis analysis(events);
  for (const TaskBreakdown& t : analysis.tasks()) {
    ++h.tasks;
    if (t.outcome == "open") continue;
    ++h.tasks_closed;
    h.task_e2e_s += t.end_to_end();
    h.task_queue_s += t.queueing;
    h.task_network_s += t.network;
    h.task_compute_s += t.compute;
    h.task_recovery_s += t.recovery;
    h.task_other_s += t.other;
    h.task_storm_s += t.storm;
    h.task_e2e_tail.add(t.end_to_end());
  }
  for (const StorageOpBreakdown& op : analysis.storage_ops()) {
    ++h.storage_ops;
    h.storage_total_s += op.e2e();
    h.storage_storm_s += op.storm;
    if (op.in_storm) ++h.storage_in_storm;
    if (op.kind == "put") {
      h.put_tail.add(op.e2e());
      (op.in_storm ? h.put_storm_tail : h.put_clear_tail).add(op.e2e());
    } else if (op.kind == "get") {
      h.get_tail.add(op.e2e());
      (op.in_storm ? h.get_storm_tail : h.get_clear_tail).add(op.e2e());
    }
  }
  h.fault_windows += analysis.fault_windows().size();
  for (const FaultWindow& w : analysis.fault_windows()) {
    h.fault_window_s += w.end - w.start;
  }
  h.orphaned_spans += analysis.orphaned_spans();
  h.unmatched_ends += analysis.unmatched_ends();
  h.unknown_roots += analysis.unknown_roots();
  return true;
}

bool file_exists(const std::string& path) {
  return static_cast<bool>(std::ifstream(path));
}

// ---- output helpers ---------------------------------------------------------

void tail_row(Table& table, const std::string& name,
              const QuantileSketch& s) {
  table.add_row({name, std::to_string(s.count()), Table::num(s.mean(), 3),
                 Table::num(s.count() ? s.percentile(50) : 0.0, 3),
                 Table::num(s.count() ? s.percentile(99) : 0.0, 3),
                 Table::num(s.count() ? s.percentile(99.9) : 0.0, 3),
                 Table::num(s.max(), 3)});
}

void tail_json(JsonWriter& w, const char* key, const QuantileSketch& s) {
  w.key(key).begin_object();
  w.key("count").value(s.count());
  w.key("mean").value(s.mean());
  w.key("p50").value(s.count() ? s.percentile(50) : 0.0);
  w.key("p99").value(s.count() ? s.percentile(99) : 0.0);
  w.key("p999").value(s.count() ? s.percentile(99.9) : 0.0);
  w.key("min").value(s.min());
  w.key("max").value(s.max());
  w.end_object();
}

}  // namespace

bool build_run_health(const std::vector<std::string>& dirs, RunHealth& out,
                      std::string* error) {
  if (dirs.empty()) return fail(error, "no directories given");
  out.dirs = dirs;
  for (const std::string& dir : dirs) {
    const std::string trace = dir + "/trace.jsonl";
    const std::string metrics = dir + "/metrics.csv";
    const std::string sketches = dir + "/sketches.json";
    const std::string violations = dir + "/violations.jsonl";
    // Optional inputs note-and-continue: an absent artifact only empties
    // its section, but the note says so explicitly — "no storage table"
    // should never make a reader wonder whether the run or the report
    // dropped it.
    if (file_exists(trace)) {
      if (!load_trace_jsonl(trace, out, error)) return false;
      out.have_trace = true;
    } else {
      out.notes.push_back(dir + ": trace.jsonl absent (skipped)");
    }
    if (file_exists(metrics)) {
      if (!load_metrics_csv(metrics, out, error)) return false;
      out.have_metrics = true;
    } else {
      out.notes.push_back(dir + ": metrics.csv absent (skipped)");
    }
    if (file_exists(sketches)) {
      if (!load_sketches_json(sketches, out, error)) return false;
      out.have_sketches = true;
    } else {
      out.notes.push_back(dir + ": sketches.json absent (skipped)");
    }
    if (file_exists(violations)) {
      if (!load_violations_jsonl(violations, out, error)) return false;
      out.have_violations = true;
    } else {
      out.notes.push_back(dir + ": violations.jsonl absent (skipped)");
    }
  }
  if (out.trace_overwritten > 0) {
    out.warnings.push_back(
        "trace ring wrapped in " + std::to_string(out.traces_wrapped) +
        " director" + (out.traces_wrapped == 1 ? "y" : "ies") + ": " +
        std::to_string(out.trace_overwritten) +
        " events overwritten — oldest history lost, span pairing and every "
        "trace-derived table below are truncated (raise TraceRecorder "
        "capacity)");
  }
  if (out.trace_dropped_fields > 0) {
    out.warnings.push_back(
        std::to_string(out.trace_dropped_fields) +
        " trace event fields dropped (beyond the per-event field cap) — "
        "recorded events are missing payload columns");
  }
  if (!out.have_trace && !out.have_metrics && !out.have_sketches &&
      !out.have_violations) {
    return fail(error, "no telemetry artifacts found under the given "
                       "directories (expected trace.jsonl / metrics.csv / "
                       "sketches.json / violations.jsonl)");
  }
  return true;
}

void write_health_text(std::ostream& os, const RunHealth& h) {
  os << "vcl_report: run health over " << h.dirs.size() << " director"
     << (h.dirs.size() == 1 ? "y" : "ies") << "\n";
  os << "artifacts: trace " << (h.have_trace ? "yes" : "no") << ", metrics "
     << (h.have_metrics ? "yes" : "no") << ", sketches "
     << (h.have_sketches ? "yes" : "no") << ", violations "
     << (h.have_violations ? "yes" : "no") << "\n";
  for (const std::string& note : h.notes) os << "note: " << note << "\n";
  os << "\n";
  for (const std::string& warning : h.warnings) {
    os << "WARNING: " << warning << "\n";
  }
  if (!h.warnings.empty()) os << "\n";

  // Verdict first: the line a CI log reader needs.
  if (h.have_violations) {
    os << (h.violation_count == 0
               ? "oracle: CLEAN"
               : "oracle: " + std::to_string(h.violation_count) +
                     " VIOLATION(S)")
       << " (" << h.checks_run << " checks run)\n\n";
  }

  if (h.have_sketches && !h.sketches.empty()) {
    Table table("tail latency (merged sketches, seconds)",
                {"metric", "count", "mean", "p50", "p99", "p999", "max"});
    for (const auto& [name, sketch] : h.sketches) {
      tail_row(table, name, sketch);
    }
    table.print(os);
    os << "\n";
  }

  if (h.have_trace && h.tasks_closed > 0) {
    const double n = static_cast<double>(h.tasks_closed);
    os << "tasks: " << h.tasks << " traced, " << h.tasks_closed
       << " finished; mean seconds/task:\n"
       << "  e2e " << Table::num(h.task_e2e_s / n, 3) << " = queue "
       << Table::num(h.task_queue_s / n, 3) << " + network "
       << Table::num(h.task_network_s / n, 3) << " + compute "
       << Table::num(h.task_compute_s / n, 3) << " + recovery "
       << Table::num(h.task_recovery_s / n, 3) << " + other "
       << Table::num(h.task_other_s / n, 3) << "\n"
       << "  in-storm " << Table::num(h.task_storm_s / n, 3)
       << " + clear-sky "
       << Table::num((h.task_e2e_s - h.task_storm_s) / n, 3) << "\n\n";
  }

  if (h.have_trace && h.storage_ops > 0) {
    Table table("storage op latency, storm-attributed (seconds)",
                {"ops", "count", "mean", "p50", "p99", "p999", "max"});
    tail_row(table, "put (all)", h.put_tail);
    tail_row(table, "put (in-storm)", h.put_storm_tail);
    tail_row(table, "put (clear)", h.put_clear_tail);
    tail_row(table, "get (all)", h.get_tail);
    tail_row(table, "get (in-storm)", h.get_storm_tail);
    tail_row(table, "get (clear)", h.get_clear_tail);
    table.print(os);
    os << h.storage_ops << " storage ops, " << h.storage_in_storm
       << " in-storm; " << h.fault_windows << " fault windows covering "
       << Table::num(h.fault_window_s, 1) << " s\n\n";
  }

  if (h.have_metrics && !h.counters.empty()) {
    Table table("final counters (summed across directories)",
                {"metric", "value"});
    for (const auto& [name, value] : h.counters) {
      table.add_row({name, Table::num(value, 3)});
    }
    table.print(os);
    os << "\n";
  }

  if (!h.violations.empty()) {
    os << "violation records (" << h.violations.size() << " stored of "
       << h.violation_count << " total):\n";
    for (const ReportViolation& v : h.violations) {
      os << "  t=" << Table::num(v.t, 2) << " [" << v.invariant << "] "
         << v.detail << "\n";
    }
    os << "\n";
  }

  os << "diagnostics: " << h.orphaned_spans << " orphaned spans, "
     << h.unmatched_ends << " unmatched ends, " << h.unknown_roots
     << " unknown roots";
  if (h.trace_meta.present) {
    os << "; ring "
       << (h.traces_wrapped == 0
               ? "complete"
               : "WRAPPED (" + std::to_string(h.trace_overwritten) +
                     " events overwritten)");
    if (h.trace_dropped_fields > 0) {
      os << ", " << h.trace_dropped_fields << " fields dropped";
    }
  }
  os << "\n";
}

void write_health_json(std::ostream& os, const RunHealth& h) {
  JsonWriter w(os);
  w.begin_object();
  w.key("schema").value("vcl-report-v1");
  w.key("dirs").begin_array();
  for (const std::string& dir : h.dirs) w.value(dir);
  w.end_array();
  w.key("artifacts").begin_object();
  w.key("trace").value(h.have_trace);
  w.key("metrics").value(h.have_metrics);
  w.key("sketches").value(h.have_sketches);
  w.key("violations").value(h.have_violations);
  w.end_object();
  w.key("notes").begin_array();
  for (const std::string& note : h.notes) w.value(note);
  w.end_array();
  w.key("warnings").begin_array();
  for (const std::string& warning : h.warnings) w.value(warning);
  w.end_array();

  w.key("tails").begin_object();
  for (const auto& [name, sketch] : h.sketches) {
    tail_json(w, name.c_str(), sketch);
  }
  w.end_object();

  w.key("tasks").begin_object();
  w.key("traced").value(static_cast<std::uint64_t>(h.tasks));
  w.key("finished").value(static_cast<std::uint64_t>(h.tasks_closed));
  w.key("e2e_s").value(h.task_e2e_s);
  w.key("queue_s").value(h.task_queue_s);
  w.key("network_s").value(h.task_network_s);
  w.key("compute_s").value(h.task_compute_s);
  w.key("recovery_s").value(h.task_recovery_s);
  w.key("other_s").value(h.task_other_s);
  w.key("storm_s").value(h.task_storm_s);
  w.key("clear_s").value(h.task_e2e_s - h.task_storm_s);
  tail_json(w, "e2e_tail", h.task_e2e_tail);
  w.end_object();

  w.key("storage").begin_object();
  w.key("ops").value(static_cast<std::uint64_t>(h.storage_ops));
  w.key("in_storm_ops").value(static_cast<std::uint64_t>(h.storage_in_storm));
  w.key("op_time_s").value(h.storage_total_s);
  w.key("storm_time_s").value(h.storage_storm_s);
  w.key("put").begin_object();
  tail_json(w, "all", h.put_tail);
  tail_json(w, "in_storm", h.put_storm_tail);
  tail_json(w, "clear", h.put_clear_tail);
  w.end_object();
  w.key("get").begin_object();
  tail_json(w, "all", h.get_tail);
  tail_json(w, "in_storm", h.get_storm_tail);
  tail_json(w, "clear", h.get_clear_tail);
  w.end_object();
  w.end_object();

  w.key("fault_windows").begin_object();
  w.key("count").value(static_cast<std::uint64_t>(h.fault_windows));
  w.key("seconds").value(h.fault_window_s);
  w.end_object();

  w.key("counters").begin_object();
  for (const auto& [name, value] : h.counters) {
    w.key(name).value(value);
  }
  w.end_object();

  w.key("oracle").begin_object();
  w.key("checks_run").value(h.checks_run);
  w.key("violations").value(h.violation_count);
  w.key("records").begin_array();
  for (const ReportViolation& v : h.violations) {
    w.begin_object();
    w.key("t").value(v.t);
    w.key("invariant").value(v.invariant);
    w.key("detail").value(v.detail);
    if (v.task >= 0) w.key("task").value(v.task);
    w.key("seed").value(v.seed);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("diagnostics").begin_object();
  w.key("orphaned_spans").value(static_cast<std::uint64_t>(h.orphaned_spans));
  w.key("unmatched_ends").value(static_cast<std::uint64_t>(h.unmatched_ends));
  w.key("unknown_roots").value(static_cast<std::uint64_t>(h.unknown_roots));
  w.key("ring_complete").value(h.have_trace && h.traces_wrapped == 0);
  w.key("trace_overwritten").value(h.trace_overwritten);
  w.key("trace_dropped_fields").value(h.trace_dropped_fields);
  w.key("traces_wrapped").value(static_cast<std::uint64_t>(h.traces_wrapped));
  w.end_object();
  w.end_object();
  os << '\n';
}

}  // namespace vcl::obs
