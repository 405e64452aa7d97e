// TraceRecorder: sim-time structured event + causal span tracing
// (DESIGN.md §6, §8).
//
// Subsystems emit categorized instant events ("net.drop", "task.complete",
// "fault.blackout", ...) with up to four numeric fields, and *duration
// spans* carrying causal ids `{trace_id, span_id, parent_span_id}` so one
// task's whole lifecycle — submission, dispatch over the lossy channel,
// execution, crash recovery, completion — survives as a single tree even
// across vehicle crashes and radio blackouts. Events land in a
// fixed-capacity ring buffer so a long run overwrites its oldest history
// instead of growing without bound; `overwritten()` reports how much was
// lost. The ring holds 2^16 events and records every category; instrumented
// code holds a nullable `TraceRecorder*`, so a run with tracing off pays
// exactly one pointer test per would-be event or span.
//
// Exports:
//  * JSONL — a leading metadata record (`recorded`/`overwritten`/
//    `dropped_fields`, so consumers can tell a wrapped ring from a complete
//    trace), then one `{"t":..,"cat":..,"name":..,...}` object per line;
//    span events add `"ph":"B"|"E"` and `"trace"/"span"/"parent"` ids.
//    grep/jq/`tools/vcl_traceview`-friendly.
//  * Chrome trace_event JSON — loads directly in chrome://tracing and
//    Perfetto; sim seconds map to trace microseconds. Instant events map to
//    per-category tracks; matched span pairs are emitted as complete "X"
//    slices on one track per trace_id, so each task renders as its own
//    nested flame row.
#pragma once

#include <array>
#include <cstdint>
#include <ostream>
#include <vector>

#include "util/time.h"

namespace vcl::obs {

enum class TraceCategory : std::uint8_t {
  kSim = 0,    // kernel-level (run markers)
  kNet = 1,    // net.tx / net.rx / net.drop / net.broadcast
  kCloud = 2,  // cloud.form / cloud.member.* / cloud.broker.* / cloud.ckpt
  kTask = 3,   // task.submit / task.dispatch / task.complete / leg.* spans
  kFault = 4,  // fault.crash / fault.rsu.* / fault.blackout.*
  kStorage = 5,  // storage.put / storage.get / storage.repair + leg spans
  kDag = 6,      // dag.run spans + dag.node / dag.edge instants
};
inline constexpr std::size_t kTraceCategoryCount = 7;

[[nodiscard]] const char* to_string(TraceCategory c);

// Instant events vs the two halves of a duration span.
enum class TracePhase : std::uint8_t { kInstant = 0, kBegin = 1, kEnd = 2 };

// Causal context stamped on a traced entity (a task at submission) and
// propagated through everything done on its behalf: broker dispatch, the
// net::Message that carries it, worker execution, retries and recovery.
// `trace_id` names the causal tree; `span_id` the innermost live span (the
// parent for children begun under this context). Zero ids mean "untraced".
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;

  [[nodiscard]] bool valid() const { return trace_id != 0; }
};

// Outcome codes carried on a task root span's end event ("outcome" field);
// fields are numeric-only, so the terminal state is encoded, not spelled.
inline constexpr double kOutcomeCompleted = 0.0;
inline constexpr double kOutcomeExpired = 1.0;
inline constexpr double kOutcomeFailed = 2.0;

class TraceRecorder {
 public:
  static constexpr std::size_t kMaxFields = 4;
  // Events the ring retains before it overwrites the oldest.
  static constexpr std::size_t kCapacity = std::size_t{1} << 16;

  struct Field {
    const char* key;
    double value;
  };

  struct Event {
    SimTime t = 0.0;
    TraceCategory cat = TraceCategory::kSim;
    TracePhase phase = TracePhase::kInstant;
    std::uint8_t n_fields = 0;
    const char* name = "";
    // Causal ids; all zero for plain (context-free) instant events.
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;
    std::uint64_t parent_id = 0;
    std::array<Field, kMaxFields> fields{};
  };

  TraceRecorder();

  // Allocates a fresh trace id (the root of a new causal tree).
  [[nodiscard]] std::uint64_t new_trace_id() { return next_trace_id_++; }

  // Records an instant event; extra fields beyond kMaxFields are counted in
  // dropped_fields() (the event itself keeps the first kMaxFields).
  // Field keys and the event name must outlive the recorder (string
  // literals in practice — this keeps the hot path allocation-free).
  void record(SimTime t, TraceCategory cat, const char* name,
              std::initializer_list<Field> fields = {});
  // Instant event attached to a causal tree (e.g. net.tx for a dispatch).
  void record(SimTime t, TraceCategory cat, const char* name,
              TraceContext ctx, std::initializer_list<Field> fields = {});

  // Opens a duration span under `parent` (parent.span_id may be 0 for a
  // root span) and returns its span id (never 0) — keep it to close the
  // span later.
  std::uint64_t begin_span(SimTime t, TraceCategory cat, const char* name,
                           TraceContext parent,
                           std::initializer_list<Field> fields = {});
  // Closes the span `ctx.span_id` of tree `ctx.trace_id`; `name` should
  // match the begin (exports pair the two by span id, the name is for
  // humans reading the JSONL). A `ctx.span_id` of 0 (no span) is a no-op.
  void end_span(SimTime t, TraceCategory cat, const char* name,
                TraceContext ctx, std::initializer_list<Field> fields = {});

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }
  // Events lost to ring wrap-around (recorded - retained).
  [[nodiscard]] std::uint64_t overwritten() const {
    return recorded_ - count_;
  }
  // Fields passed beyond kMaxFields across all events (not silently lost).
  [[nodiscard]] std::uint64_t dropped_fields() const {
    return dropped_fields_;
  }

  // Retained events, oldest first.
  [[nodiscard]] std::vector<Event> events() const;
  // Begin events whose matching end has not been recorded yet, oldest
  // first — the work in flight at this instant. Best-effort on a wrapped
  // ring (an overwritten begin makes its end look unmatched, not open).
  // Incident bundles snapshot these (DESIGN.md §12).
  [[nodiscard]] std::vector<Event> open_spans() const;

  // Metadata record first ({"meta":"vcl-trace-v1","recorded":...}), then
  // one JSON object per line: {"t":1.5,"cat":"task","name":"task.submit",...}
  void write_jsonl(std::ostream& os) const;
  // Chrome trace_event format (chrome://tracing, Perfetto, speedscope).
  void write_chrome_trace(std::ostream& os) const;

 private:
  Event& push(SimTime t, TraceCategory cat, TracePhase phase,
              const char* name, std::initializer_list<Field> fields);

  std::vector<Event> ring_;  // kCapacity slots
  std::size_t head_ = 0;   // next write slot
  std::size_t count_ = 0;  // retained events (<= capacity)
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_fields_ = 0;
  std::uint64_t next_trace_id_ = 1;
  std::uint64_t next_span_id_ = 1;
};

}  // namespace vcl::obs
