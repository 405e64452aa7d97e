// vcl_incident: renders a vcl-incident-v1 forensic bundle as a sim-time
// causal timeline (DESIGN.md §12).
//
// A bundle is what core::chaos snapshots at the instant the invariant
// oracle first objects: the flight-recorder tail, the blackout windows
// that were open, the spans still in flight and the membership / task /
// replica / DAG state at capture. This tool lines those up on one clock so
// the causal story reads top to bottom — injected fault, detector
// eviction, retries/repairs, violation — without replaying anything.
//
//   vcl_incident chaos-out/incident.jsonl
//   vcl_incident --json chaos-out/incident.jsonl   # machine-readable
//   vcl_chaos --repro chaos-out/repro.jsonl | ...  # produces the bundle
//
// Trace ids printed for open spans (and traced tasks) cross-link into the
// trace.jsonl written next to the bundle: feed it to vcl_traceview for the
// span tree, or vcl_report for run health.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "obs/bench_output.h"
#include "obs/incident.h"
#include "obs/json.h"

namespace {

using vcl::obs::IncidentBundle;

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [--json] <incident.jsonl | ->\n"
      << "  Renders a vcl-incident-v1 bundle (written by vcl_chaos next to\n"
      << "  the shrunk repro) as a sim-time causal timeline: injected\n"
      << "  faults, detector evictions, lease/quorum/DAG transitions, then\n"
      << "  the invariant violations they led to.\n"
      << "  --json   one vcl-incident-view-v1 JSON document for CI\n"
      << "exit codes:\n"
      << "  0  bundle parsed and a non-empty timeline rendered\n"
      << "  1  malformed bundle, nothing to render (empty timeline), or\n"
      << "     stdout could not be written\n"
      << "  2  usage error or unreadable input\n";
  return 2;
}

// One row of the merged timeline. `rank` breaks sim-time ties so the
// ordering is total and deterministic: window edges first (the cause),
// then flight events in recording order, then the violations they led to.
struct TimelineEntry {
  double t = 0.0;
  int rank = 0;
  std::uint64_t seq = 0;
  std::string kind;    // category column: fault / detector / ... / VIOLATION
  std::string name;
  std::string detail;
};

std::string fmt_time(double t) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", t);
  return buf;
}

std::string fmt_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

// Name-aware rendering of a flight event's (a, b, x) payload: the recorder
// keeps them as two ids and a double, the meaning is per event name.
std::string flight_detail(const vcl::obs::IncidentFlightEvent& e) {
  const std::string& n = e.name;
  if (n == "task.complete") {
    return "task " + std::to_string(e.a) + " on worker " +
           std::to_string(e.b) + ", latency " + fmt_num(e.x) + " s";
  }
  if (n == "task.expire") {
    return "task " + std::to_string(e.a) +
           (e.b != 0 ? " on worker " + std::to_string(e.b) : " (queued)");
  }
  if (n == "detector.evict") {
    return "worker " + std::to_string(e.a) +
           (e.b != 0 ? ", crashed " + fmt_num(e.x) + " s earlier"
                     : " (false positive: worker was alive)");
  }
  if (n == "lease.expire") {
    return "lease " + std::to_string(e.a) + " held by worker " +
           std::to_string(e.b);
  }
  if (n == "quorum.write.failed" || n == "quorum.read.failed" ||
      n == "quorum.read.degraded") {
    return "object " + std::to_string(e.a) + ", client " +
           std::to_string(e.b) + ", " + fmt_num(e.x) + " copies reached";
  }
  if (n == "dag.backup") {
    return "graph " + std::to_string(e.a) + " node " + std::to_string(e.b) +
           ": host predicted to leave, backup launched";
  }
  if (n == "dag.graph.fail") {
    return "graph " + std::to_string(e.a) + ", " + std::to_string(e.b) +
           " nodes had succeeded";
  }
  if (n == "fault.crash") return "vehicle " + std::to_string(e.a);
  if (n == "fault.broker.crash") return "broker " + std::to_string(e.a);
  if (n == "fault.rsu.outage") {
    return "rsu " + std::to_string(e.a) + ", repair in " + fmt_num(e.x) +
           " s";
  }
  if (n == "fault.rsu.repair") return "rsu " + std::to_string(e.a);
  if (n == "fault.blackout.start") {
    return "duration " + fmt_num(e.x) + " s";
  }
  if (n == "fault.blackout.end") return "window " + std::to_string(e.a);
  // Unknown (newer recorder): raw payload, never fatal.
  std::string d = "a=" + std::to_string(e.a) + " b=" + std::to_string(e.b);
  if (e.x != 0.0) d += " x=" + fmt_num(e.x);
  return d;
}

std::vector<TimelineEntry> build_timeline(const IncidentBundle& b) {
  std::vector<TimelineEntry> rows;
  for (const auto& w : b.windows) {
    TimelineEntry open;
    open.t = w.start;
    open.rank = 0;
    open.kind = "fault";
    open.name = "blackout.window.open";
    open.detail = "center (" + fmt_num(w.x) + ", " + fmt_num(w.y) +
                  "), radius " + fmt_num(w.radius) + ", until t=" +
                  fmt_time(w.end) + (w.active ? " [open at capture]" : "");
    rows.push_back(std::move(open));
    // A close edge after capture never happened from the incident's point
    // of view — the open edge already names the scheduled end.
    if (!w.active && w.end <= b.captured_at) {
      TimelineEntry close;
      close.t = w.end;
      close.rank = 0;
      close.kind = "fault";
      close.name = "blackout.window.close";
      close.detail = "opened t=" + fmt_time(w.start);
      rows.push_back(std::move(close));
    }
  }
  for (const auto& e : b.flight) {
    TimelineEntry row;
    row.t = e.t;
    row.rank = 1;
    row.seq = e.seq;
    row.kind = e.cat;
    row.name = e.name;
    row.detail = flight_detail(e);
    rows.push_back(std::move(row));
  }
  std::uint64_t vseq = 0;
  for (const auto& v : b.violations) {
    TimelineEntry row;
    row.t = v.t;
    row.rank = 2;
    row.seq = vseq++;
    row.kind = "VIOLATION";
    row.name = v.invariant;
    row.detail = v.detail;
    if (v.task != 0) row.detail += " [task " + std::to_string(v.task) + "]";
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(),
            [](const TimelineEntry& l, const TimelineEntry& r) {
              if (l.t != r.t) return l.t < r.t;
              if (l.rank != r.rank) return l.rank < r.rank;
              return l.seq < r.seq;
            });
  return rows;
}

void write_text(const IncidentBundle& b,
                const std::vector<TimelineEntry>& rows, std::ostream& os) {
  os << "incident: seed " << b.seed << ", trigger \"" << b.trigger
     << "\" at t=" << fmt_time(b.captured_at) << "\n";
  os << "violations: " << b.violations.size()
     << " stored (oracle caps storage, not the count)\n";
  os << "flight recorder: " << b.flight_recorded << " events recorded, "
     << b.flight_overwritten << " overwritten; timeline shows the retained "
     << b.flight.size() << "\n\n";

  os << "causal timeline (sim time):\n";
  std::size_t kind_w = 4;
  for (const TimelineEntry& r : rows) kind_w = std::max(kind_w, r.kind.size());
  for (const TimelineEntry& r : rows) {
    os << "  t=" << fmt_time(r.t) << "  [" << r.kind << "]"
       << std::string(kind_w - r.kind.size() + 1, ' ') << r.name;
    if (!r.detail.empty()) os << "  " << r.detail;
    os << "\n";
  }

  os << "\nstate at capture:\n";
  std::size_t crashed = 0;
  std::size_t tracked = 0;
  for (const auto& w : b.workers) {
    crashed += w.crashed ? 1 : 0;
    tracked += w.tracked ? 1 : 0;
  }
  os << "  cloud: broker "
     << (b.broker != 0 ? std::to_string(b.broker) : std::string("none"))
     << ", " << b.workers.size() << " workers (" << crashed
     << " crashed-undetected, " << tracked << " detector-tracked), "
     << b.pending << " tasks queued\n";
  if (!b.tasks.empty()) {
    os << "  in-flight tasks (" << b.tasks.size() << "):\n";
    for (const auto& t : b.tasks) {
      os << "    task " << t.id << " " << t.state << " progress "
         << fmt_num(t.progress) << "/" << fmt_num(t.work) << " ckpt "
         << fmt_num(t.checkpoint);
      if (t.worker != 0) os << " on worker " << t.worker;
      if (t.trace_id != 0) os << " trace " << t.trace_id;
      os << "\n";
    }
  }
  if (!b.objects.empty()) {
    std::size_t alive = 0;
    std::size_t leased = 0;
    for (const auto& r : b.replicas) {
      alive += r.alive ? 1 : 0;
      leased += r.lease_held ? 1 : 0;
    }
    os << "  storage: " << b.objects.size() << " objects, "
       << b.replicas.size() << " replicas (" << alive << " alive, " << leased
       << " leased)\n";
  }
  if (!b.graphs.empty()) {
    std::size_t terminal = 0;
    for (const auto& g : b.graphs) terminal += g.terminal ? 1 : 0;
    std::size_t stranded = 0;
    for (const auto& n : b.dag_nodes) {
      if (n.submitted && !n.succeeded && n.live_attempts == 0) ++stranded;
    }
    os << "  dag: " << b.graphs.size() << " graphs (" << terminal
       << " terminal), " << b.dag_nodes.size() << " nodes";
    if (stranded != 0) os << ", " << stranded << " STRANDED (no live attempt)";
    os << "\n";
  }
  if (!b.open_spans.empty()) {
    os << "  open spans (work in flight; trace ids match trace.jsonl — see\n"
       << "  vcl_traceview / vcl_report):\n";
    for (const auto& s : b.open_spans) {
      os << "    [" << s.cat << "] " << s.name << " since t="
         << fmt_time(s.begin) << " trace " << s.trace_id << " span "
         << s.span_id << "\n";
    }
  }
}

void write_json(const IncidentBundle& b,
                const std::vector<TimelineEntry>& rows, std::ostream& os) {
  vcl::obs::JsonWriter w(os);
  w.begin_object();
  w.key("meta").value("vcl-incident-view-v1");
  w.key("seed").value(static_cast<std::uint64_t>(b.seed));
  w.key("trigger").value(b.trigger);
  w.key("captured_at").value(b.captured_at);
  w.key("violations").value(static_cast<std::uint64_t>(b.violations.size()));
  w.key("flight_recorded").value(b.flight_recorded);
  w.key("flight_overwritten").value(b.flight_overwritten);
  w.key("broker").value(b.broker);
  w.key("pending").value(b.pending);
  w.key("workers").value(static_cast<std::uint64_t>(b.workers.size()));
  w.key("tasks").value(static_cast<std::uint64_t>(b.tasks.size()));
  w.key("objects").value(static_cast<std::uint64_t>(b.objects.size()));
  w.key("replicas").value(static_cast<std::uint64_t>(b.replicas.size()));
  w.key("graphs").value(static_cast<std::uint64_t>(b.graphs.size()));
  w.key("timeline").begin_array();
  for (const TimelineEntry& r : rows) {
    w.begin_object();
    w.key("t").value(r.t);
    w.key("kind").value(r.kind);
    w.key("name").value(r.name);
    w.key("detail").value(r.detail);
    w.end_object();
  }
  w.end_array();
  w.key("open_spans").begin_array();
  for (const auto& s : b.open_spans) {
    w.begin_object();
    w.key("begin").value(s.begin);
    w.key("cat").value(s.cat);
    w.key("name").value(s.name);
    w.key("trace").value(s.trace_id);
    w.key("span").value(s.span_id);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv[0]);
    } else if (path.empty()) {
      path = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (path.empty()) return usage(argv[0]);

  std::ifstream file;
  if (path != "-") {
    file.open(path);
    if (!file) {
      std::cerr << "error: cannot open " << path << "\n";
      return 2;
    }
  }
  std::istream& in = path == "-" ? std::cin : file;

  IncidentBundle bundle;
  std::string error;
  if (!vcl::obs::parse_incident_bundle(in, bundle, &error)) {
    std::cerr << "error: " << path << ": " << error << "\n";
    return 1;
  }

  const std::vector<TimelineEntry> rows = build_timeline(bundle);
  if (rows.empty()) {
    std::cerr << "error: " << path
              << ": bundle holds no timeline events or violations\n";
    return 1;
  }

  if (json) {
    write_json(bundle, rows, std::cout);
  } else {
    write_text(bundle, rows, std::cout);
  }
  return vcl::obs::finish_output(std::cout, "stdout");
}
