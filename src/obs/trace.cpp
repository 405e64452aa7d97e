#include "obs/trace.h"

#include <algorithm>
#include <unordered_map>

#include "obs/json.h"

namespace vcl::obs {

const char* to_string(TraceCategory c) {
  switch (c) {
    case TraceCategory::kSim: return "sim";
    case TraceCategory::kNet: return "net";
    case TraceCategory::kCloud: return "cloud";
    case TraceCategory::kTask: return "task";
    case TraceCategory::kFault: return "fault";
    case TraceCategory::kStorage: return "storage";
    case TraceCategory::kDag: return "dag";
  }
  return "unknown";
}

TraceRecorder::TraceRecorder() : ring_(kCapacity) {}

TraceRecorder::Event& TraceRecorder::push(
    SimTime t, TraceCategory cat, TracePhase phase, const char* name,
    std::initializer_list<Field> fields) {
  Event& ev = ring_[head_];
  ev.t = t;
  ev.cat = cat;
  ev.phase = phase;
  ev.name = name;
  ev.trace_id = 0;
  ev.span_id = 0;
  ev.parent_id = 0;
  ev.n_fields = 0;
  for (const Field& f : fields) {
    if (ev.n_fields == kMaxFields) {
      ++dropped_fields_;
      continue;
    }
    ev.fields[ev.n_fields++] = f;
  }
  head_ = (head_ + 1) % ring_.size();
  count_ = std::min(count_ + 1, ring_.size());
  ++recorded_;
  return ev;
}

void TraceRecorder::record(SimTime t, TraceCategory cat, const char* name,
                           std::initializer_list<Field> fields) {
  push(t, cat, TracePhase::kInstant, name, fields);
}

void TraceRecorder::record(SimTime t, TraceCategory cat, const char* name,
                           TraceContext ctx,
                           std::initializer_list<Field> fields) {
  Event& ev = push(t, cat, TracePhase::kInstant, name, fields);
  ev.trace_id = ctx.trace_id;
  ev.parent_id = ctx.span_id;
}

std::uint64_t TraceRecorder::begin_span(SimTime t, TraceCategory cat,
                                        const char* name, TraceContext parent,
                                        std::initializer_list<Field> fields) {
  Event& ev = push(t, cat, TracePhase::kBegin, name, fields);
  ev.trace_id = parent.trace_id;
  ev.span_id = next_span_id_++;
  ev.parent_id = parent.span_id;
  return ev.span_id;
}

void TraceRecorder::end_span(SimTime t, TraceCategory cat, const char* name,
                             TraceContext ctx,
                             std::initializer_list<Field> fields) {
  if (ctx.span_id == 0) return;
  Event& ev = push(t, cat, TracePhase::kEnd, name, fields);
  ev.trace_id = ctx.trace_id;
  ev.span_id = ctx.span_id;
}

std::vector<TraceRecorder::Event> TraceRecorder::events() const {
  std::vector<Event> out;
  out.reserve(count_);
  // Oldest retained event sits at head_ once the ring has wrapped.
  const std::size_t start = (head_ + ring_.size() - count_) % ring_.size();
  for (std::size_t i = 0; i < count_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

std::vector<TraceRecorder::Event> TraceRecorder::open_spans() const {
  // One linear pass over the retained window: collect begins in order,
  // erase each one its end closes. What survives is still open.
  std::vector<Event> open;
  const std::size_t start = (head_ + ring_.size() - count_) % ring_.size();
  for (std::size_t i = 0; i < count_; ++i) {
    const Event& e = ring_[(start + i) % ring_.size()];
    if (e.phase == TracePhase::kBegin) {
      open.push_back(e);
    } else if (e.phase == TracePhase::kEnd) {
      for (std::size_t j = open.size(); j > 0; --j) {
        if (open[j - 1].span_id == e.span_id) {
          open.erase(open.begin() + static_cast<std::ptrdiff_t>(j - 1));
          break;
        }
      }
    }
  }
  return open;
}

namespace {

const char* phase_label(TracePhase p) {
  switch (p) {
    case TracePhase::kInstant: return "i";
    case TracePhase::kBegin: return "B";
    case TracePhase::kEnd: return "E";
  }
  return "i";
}

}  // namespace

void TraceRecorder::write_jsonl(std::ostream& os) const {
  {
    // Metadata first: a consumer must be able to tell a wrapped ring (some
    // begins/ends lost) from a complete trace before trusting span pairing.
    JsonWriter w(os);
    w.begin_object();
    w.key("meta").value("vcl-trace-v1");
    w.key("capacity").value(static_cast<std::uint64_t>(ring_.size()));
    w.key("recorded").value(recorded_);
    w.key("retained").value(static_cast<std::uint64_t>(count_));
    w.key("overwritten").value(overwritten());
    w.key("dropped_fields").value(dropped_fields_);
    w.end_object();
    os << '\n';
  }
  for (const Event& ev : events()) {
    JsonWriter w(os);
    w.begin_object();
    w.key("t").value(ev.t);
    w.key("cat").value(to_string(ev.cat));
    w.key("name").value(ev.name);
    if (ev.phase != TracePhase::kInstant) {
      w.key("ph").value(phase_label(ev.phase));
    }
    if (ev.trace_id != 0) w.key("trace").value(ev.trace_id);
    if (ev.span_id != 0) w.key("span").value(ev.span_id);
    if (ev.parent_id != 0) w.key("parent").value(ev.parent_id);
    for (std::uint8_t i = 0; i < ev.n_fields; ++i) {
      w.key(ev.fields[i].key).value(ev.fields[i].value);
    }
    w.end_object();
    os << '\n';
  }
}

void TraceRecorder::write_chrome_trace(std::ostream& os) const {
  // Traced entities (trace ids) render as their own rows; instant events
  // with no context stay on the per-category tracks (tids 0..4).
  constexpr std::uint64_t kTraceTidBase = 1000;
  const std::vector<Event> evs = events();

  // Pair span begins with their ends so matched spans can be emitted as
  // complete "X" slices (Perfetto nests those into flame rows without
  // needing balanced B/E ordering).
  std::unordered_map<std::uint64_t, std::size_t> begin_of;  // span -> index
  std::unordered_map<std::uint64_t, std::size_t> end_of;
  for (std::size_t i = 0; i < evs.size(); ++i) {
    if (evs[i].phase == TracePhase::kBegin) begin_of[evs[i].span_id] = i;
    if (evs[i].phase == TracePhase::kEnd) end_of[evs[i].span_id] = i;
  }

  const auto emit_args = [](JsonWriter& w, const Event& ev,
                            const Event* end_ev) {
    w.key("args").begin_object();
    for (std::uint8_t i = 0; i < ev.n_fields; ++i) {
      w.key(ev.fields[i].key).value(ev.fields[i].value);
    }
    if (end_ev != nullptr) {
      for (std::uint8_t i = 0; i < end_ev->n_fields; ++i) {
        w.key(end_ev->fields[i].key).value(end_ev->fields[i].value);
      }
    }
    w.end_object();
  };
  const auto tid_of = [&](const Event& ev) {
    return ev.trace_id != 0 ? kTraceTidBase + ev.trace_id
                            : static_cast<std::uint64_t>(
                                  static_cast<std::uint8_t>(ev.cat));
  };

  JsonWriter w(os);
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  // Ring/drop accounting up front: a consumer must not treat a wrapped
  // ring as a complete trace.
  w.key("otherData").begin_object();
  w.key("recorded").value(recorded_);
  w.key("retained").value(static_cast<std::uint64_t>(count_));
  w.key("overwritten").value(overwritten());
  w.key("dropped_fields").value(dropped_fields_);
  w.end_object();
  w.key("traceEvents").begin_array();
  std::vector<std::uint64_t> trace_rows;  // distinct trace ids, first-seen
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const Event& ev = evs[i];
    if (ev.trace_id != 0 &&
        std::find(trace_rows.begin(), trace_rows.end(), ev.trace_id) ==
            trace_rows.end()) {
      trace_rows.push_back(ev.trace_id);
    }
    if (ev.phase == TracePhase::kEnd && begin_of.count(ev.span_id) > 0) {
      continue;  // folded into its begin's "X" slice below
    }
    w.begin_object();
    w.key("name").value(ev.name);
    w.key("cat").value(to_string(ev.cat));
    const Event* end_ev = nullptr;
    if (ev.phase == TracePhase::kInstant) {
      w.key("ph").value("i");
      w.key("s").value(ev.trace_id != 0 ? "t" : "g");
    } else if (ev.phase == TracePhase::kBegin) {
      auto end_it = end_of.find(ev.span_id);
      if (end_it != end_of.end()) {
        end_ev = &evs[end_it->second];
        w.key("ph").value("X");
        w.key("dur").value((end_ev->t - ev.t) * 1e6);
      } else {
        w.key("ph").value("B");  // orphaned: never closed before export
      }
    } else {
      w.key("ph").value("E");  // begin lost to the ring
    }
    w.key("ts").value(ev.t * 1e6);  // sim seconds -> trace microseconds
    w.key("pid").value(std::uint64_t{1});
    w.key("tid").value(tid_of(ev));
    emit_args(w, ev, end_ev);
    w.end_object();
  }
  // Name the tracks (metadata events): categories, then one row per trace.
  const auto thread_name = [&w](std::uint64_t tid, const std::string& name) {
    w.begin_object();
    w.key("name").value("thread_name");
    w.key("ph").value("M");
    w.key("pid").value(std::uint64_t{1});
    w.key("tid").value(tid);
    w.key("args").begin_object();
    w.key("name").value(name);
    w.end_object();
    w.end_object();
  };
  for (std::size_t c = 0; c < kTraceCategoryCount; ++c) {
    thread_name(c, to_string(static_cast<TraceCategory>(c)));
  }
  for (const std::uint64_t id : trace_rows) {
    thread_name(kTraceTidBase + id, "trace " + std::to_string(id));
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

}  // namespace vcl::obs
