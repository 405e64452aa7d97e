#include "obs/bench_output.h"

#include <fstream>
#include <iostream>
#include <sstream>

#include "obs/json.h"

namespace vcl::obs {

BenchReporter::BenchReporter(std::string bench_name, int argc, char** argv)
    : bench_name_(std::move(bench_name)),
      start_(std::chrono::steady_clock::now()) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      path_ = argv[i + 1];
      break;
    }
  }
}

void BenchReporter::add(const Table& table, TableStats stats) {
  tables_.push_back(TableCopy{table.title(), table.columns(), table.cells(),
                              std::move(stats)});
}

void BenchReporter::emit(const Table& table, TableStats stats) {
  table.print(std::cout);
  add(table, std::move(stats));
}

void BenchReporter::add_scalar(const std::string& key, double value) {
  scalars_[key] = value;
}

std::string BenchReporter::to_json() const {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.key("schema").value("vcl-bench-v1");
  w.key("bench").value(bench_name_);
  w.key("scalars").begin_object();
  auto scalars = scalars_;
  scalars.try_emplace(
      "wall_s", std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              start_)
                    .count());
  for (const auto& [key, value] : scalars) w.key(key).value(value);
  w.end_object();
  w.key("tables").begin_array();
  for (const TableCopy& t : tables_) {
    w.begin_object();
    w.key("title").value(t.title);
    w.key("columns").begin_array();
    for (const std::string& c : t.columns) w.value(c);
    w.end_array();
    w.key("rows").begin_array();
    for (std::size_t r = 0; r < t.rows.size(); ++r) {
      w.begin_array();
      for (std::size_t c = 0; c < t.rows[r].size(); ++c) {
        const std::optional<CellStat>* stat = nullptr;
        if (r < t.stats.size() && c < t.stats[r].size()) {
          stat = &t.stats[r][c];
        }
        if (stat != nullptr && stat->has_value() && (*stat)->has_tail) {
          w.begin_object();
          w.key("p50").value((*stat)->p50);
          w.key("p99").value((*stat)->p99);
          w.key("p999").value((*stat)->p999);
          w.key("n").value(static_cast<std::uint64_t>((*stat)->n));
          w.end_object();
        } else if (stat != nullptr && stat->has_value()) {
          w.begin_object();
          w.key("mean").value((*stat)->mean);
          w.key("ci95").value((*stat)->ci95);
          w.key("n").value(static_cast<std::uint64_t>((*stat)->n));
          w.end_object();
        } else {
          w.value_auto(t.rows[r][c]);
        }
      }
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
  return os.str();
}

int BenchReporter::finish() const {
  if (!enabled()) return 0;
  std::ofstream out(path_);
  out << to_json();
  return finish_output(out, path_);
}

int finish_output(std::ostream& os, const std::string& name) {
  if (os.flush()) return 0;
  std::cerr << "error: could not write " << name << "\n";
  return 1;
}

}  // namespace vcl::obs
