#include "obs/incident.h"

#include <istream>
#include <ostream>
#include <utility>

#include "obs/json.h"

namespace vcl::obs {

void append_flight_tail(IncidentBundle& bundle,
                        const std::vector<FlightEvent>& tail) {
  bundle.flight.reserve(bundle.flight.size() + tail.size());
  for (const FlightEvent& e : tail) {
    IncidentFlightEvent out;
    out.t = e.t;
    out.seq = e.seq;
    out.cat = to_string(e.cat);
    out.name = e.name;
    out.a = e.a;
    out.b = e.b;
    out.x = e.x;
    bundle.flight.push_back(std::move(out));
  }
}

void write_incident_bundle(const IncidentBundle& b, std::ostream& os) {
  {
    JsonWriter w(os);
    w.begin_object()
        .key("meta").value("vcl-incident-v1")
        .key("seed").value(b.seed)
        .key("captured_at").value_raw(exact_number(b.captured_at))
        .key("trigger").value(b.trigger)
        .key("flight_recorded").value(b.flight_recorded)
        .key("flight_overwritten").value(b.flight_overwritten)
        .key("broker").value(b.broker)
        .key("pending").value(b.pending)
        .end_object();
  }
  os << '\n';
  for (const IncidentViolation& v : b.violations) {
    JsonWriter w(os);
    w.begin_object()
        .key("rec").value("violation")
        .key("t").value_raw(exact_number(v.t))
        .key("invariant").value(v.invariant)
        .key("detail").value(v.detail)
        .key("task").value(v.task)
        .end_object();
    os << '\n';
  }
  for (const IncidentFlightEvent& e : b.flight) {
    JsonWriter w(os);
    w.begin_object()
        .key("rec").value("flight")
        .key("t").value_raw(exact_number(e.t))
        .key("seq").value(e.seq)
        .key("cat").value(e.cat)
        .key("name").value(e.name)
        .key("a").value(e.a)
        .key("b").value(e.b)
        .key("x").value_raw(exact_number(e.x))
        .end_object();
    os << '\n';
  }
  for (const IncidentWindow& win : b.windows) {
    JsonWriter w(os);
    w.begin_object()
        .key("rec").value("window")
        .key("start").value_raw(exact_number(win.start))
        .key("end").value_raw(exact_number(win.end))
        .key("x").value_raw(exact_number(win.x))
        .key("y").value_raw(exact_number(win.y))
        .key("radius").value_raw(exact_number(win.radius))
        .key("active").value(static_cast<std::uint64_t>(win.active ? 1 : 0))
        .end_object();
    os << '\n';
  }
  for (const IncidentOpenSpan& s : b.open_spans) {
    JsonWriter w(os);
    w.begin_object()
        .key("rec").value("span")
        .key("begin").value_raw(exact_number(s.begin))
        .key("cat").value(s.cat)
        .key("name").value(s.name)
        .key("trace").value(s.trace_id)
        .key("span").value(s.span_id)
        .end_object();
    os << '\n';
  }
  for (const IncidentWorker& wkr : b.workers) {
    JsonWriter w(os);
    w.begin_object()
        .key("rec").value("worker")
        .key("id").value(wkr.id)
        .key("crashed").value(static_cast<std::uint64_t>(wkr.crashed ? 1 : 0))
        .key("tracked").value(static_cast<std::uint64_t>(wkr.tracked ? 1 : 0))
        .end_object();
    os << '\n';
  }
  for (const IncidentTask& t : b.tasks) {
    JsonWriter w(os);
    w.begin_object()
        .key("rec").value("task")
        .key("id").value(t.id)
        .key("state").value(t.state)
        .key("progress").value_raw(exact_number(t.progress))
        .key("work").value_raw(exact_number(t.work))
        .key("checkpoint").value_raw(exact_number(t.checkpoint))
        .key("worker").value(t.worker)
        .key("trace").value(t.trace_id)
        .end_object();
    os << '\n';
  }
  for (const IncidentObject& o : b.objects) {
    JsonWriter w(os);
    w.begin_object()
        .key("rec").value("object")
        .key("id").value(o.id)
        .key("acked_version").value(o.acked_version)
        .end_object();
    os << '\n';
  }
  for (const IncidentReplica& r : b.replicas) {
    JsonWriter w(os);
    w.begin_object()
        .key("rec").value("replica")
        .key("object").value(r.object)
        .key("holder").value(r.holder)
        .key("version").value(r.version)
        .key("alive").value(static_cast<std::uint64_t>(r.alive ? 1 : 0))
        .key("lease").value(static_cast<std::uint64_t>(r.lease_held ? 1 : 0))
        .end_object();
    os << '\n';
  }
  for (const IncidentDagGraph& g : b.graphs) {
    JsonWriter w(os);
    w.begin_object()
        .key("rec").value("graph")
        .key("id").value(g.id)
        .key("terminal").value(static_cast<std::uint64_t>(g.terminal ? 1 : 0))
        .key("completed").value(
            static_cast<std::uint64_t>(g.completed ? 1 : 0))
        .key("intermediates").value(g.intermediates_held)
        .end_object();
    os << '\n';
  }
  for (const IncidentDagNode& n : b.dag_nodes) {
    JsonWriter w(os);
    w.begin_object()
        .key("rec").value("dagnode")
        .key("graph").value(n.graph)
        .key("node").value(n.node)
        .key("submitted").value(
            static_cast<std::uint64_t>(n.submitted ? 1 : 0))
        .key("succeeded").value(
            static_cast<std::uint64_t>(n.succeeded ? 1 : 0))
        .key("live").value(n.live_attempts)
        .end_object();
    os << '\n';
  }
}

bool parse_incident_bundle(std::istream& is, IncidentBundle& b,
                           std::string* error) {
  b = IncidentBundle{};
  bool have_meta = false;
  const auto record = [&](const JsonValue& obj, std::size_t,
                          std::string& why) {
    JsonFields f(obj);
    if (!have_meta) {
      if (f.str("meta") != "vcl-incident-v1") {
        why = "not a vcl-incident-v1 meta record";
        return false;
      }
      b.seed = f.u64("seed");
      b.captured_at = f.number("captured_at");
      b.trigger = f.str("trigger");
      b.flight_recorded = f.u64("flight_recorded");
      b.flight_overwritten = f.u64("flight_overwritten");
      b.broker = f.u64("broker");
      b.pending = f.u64("pending");
      have_meta = true;
    } else if (const std::string rec = f.str("rec"); rec == "violation") {
      IncidentViolation v;
      v.t = f.number("t");
      v.invariant = f.str("invariant");
      v.detail = f.str("detail");
      v.task = f.u64("task");
      b.violations.push_back(std::move(v));
    } else if (rec == "flight") {
      IncidentFlightEvent e;
      e.t = f.number("t");
      e.seq = f.u64("seq");
      e.cat = f.str("cat");
      e.name = f.str("name");
      e.a = f.u64("a");
      e.b = f.u64("b");
      e.x = f.number("x");
      b.flight.push_back(std::move(e));
    } else if (rec == "window") {
      IncidentWindow w;
      w.start = f.number("start");
      w.end = f.number("end");
      w.x = f.number("x");
      w.y = f.number("y");
      w.radius = f.number("radius");
      w.active = f.u64("active") != 0;
      b.windows.push_back(w);
    } else if (rec == "span") {
      IncidentOpenSpan s;
      s.begin = f.number("begin");
      s.cat = f.str("cat");
      s.name = f.str("name");
      s.trace_id = f.u64("trace");
      s.span_id = f.u64("span");
      b.open_spans.push_back(std::move(s));
    } else if (rec == "worker") {
      IncidentWorker w;
      w.id = f.u64("id");
      w.crashed = f.u64("crashed") != 0;
      w.tracked = f.u64("tracked") != 0;
      b.workers.push_back(w);
    } else if (rec == "task") {
      IncidentTask t;
      t.id = f.u64("id");
      t.state = f.str("state");
      t.progress = f.number("progress");
      t.work = f.number("work");
      t.checkpoint = f.number("checkpoint");
      t.worker = f.u64("worker");
      t.trace_id = f.u64("trace");
      b.tasks.push_back(std::move(t));
    } else if (rec == "object") {
      IncidentObject o;
      o.id = f.u64("id");
      o.acked_version = f.u64("acked_version");
      b.objects.push_back(o);
    } else if (rec == "replica") {
      IncidentReplica r;
      r.object = f.u64("object");
      r.holder = f.u64("holder");
      r.version = f.u64("version");
      r.alive = f.u64("alive") != 0;
      r.lease_held = f.u64("lease") != 0;
      b.replicas.push_back(r);
    } else if (rec == "graph") {
      IncidentDagGraph g;
      g.id = f.u64("id");
      g.terminal = f.u64("terminal") != 0;
      g.completed = f.u64("completed") != 0;
      g.intermediates_held = f.u64("intermediates");
      b.graphs.push_back(g);
    } else if (rec == "dagnode") {
      IncidentDagNode n;
      n.graph = f.u64("graph");
      n.node = f.u64("node");
      n.submitted = f.u64("submitted") != 0;
      n.succeeded = f.u64("succeeded") != 0;
      n.live_attempts = f.u64("live");
      b.dag_nodes.push_back(n);
    } else if (f.ok()) {
      why = "unknown record \"" + rec + "\"";
      return false;
    }
    why = f.error();
    return f.ok();
  };
  if (!read_jsonl(is, record, error)) return false;
  if (!have_meta) {
    if (error != nullptr) *error = "empty input (no meta record)";
    return false;
  }
  return true;
}

}  // namespace vcl::obs
