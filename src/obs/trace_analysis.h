// Trace analysis: turn an exported trace JSONL back into per-task causal
// trees and a critical-path latency breakdown (DESIGN.md §8).
//
// The paper's dependability question (§V) is *where* a task's latency goes
// when the cloud churns underneath it: queueing at the broker, dispatch and
// result transfer over the lossy V2V channel, compute on the worker, or
// crash detection + recovery. The cloud emits contiguous `leg.*` spans that
// partition each task's lifetime; this module reassembles them per trace_id
// and reduces each tree to one breakdown row whose legs sum to the
// end-to-end latency. `tools/vcl_traceview` is a thin CLI over this.
//
// The JSONL the TraceRecorder writes (one object per line, a leading
// metadata record) reads back through the shared strict reader in
// obs/json.h.
#pragma once

#include <cstdint>
#include <istream>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace vcl::obs {

// One parsed JSONL line.
struct ParsedEvent {
  double t = 0.0;
  std::string cat;
  std::string name;
  char ph = 'i';  // 'i' instant, 'B' begin, 'E' end
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  std::map<std::string, double> fields;  // every other numeric key
};

// The leading metadata record: ring completeness accounting.
struct TraceMeta {
  bool present = false;
  std::uint64_t capacity = 0;
  std::uint64_t recorded = 0;
  std::uint64_t retained = 0;
  std::uint64_t overwritten = 0;
  std::uint64_t dropped_fields = 0;

  // A wrapped ring lost its oldest events: span pairing is best-effort.
  [[nodiscard]] bool complete() const { return present && overwritten == 0; }
};

// Parses recorder-shaped JSONL. Returns false (with `error` set) on a
// malformed line, including an id or meta count that is not an unsigned
// integer; unknown keys are kept as numeric fields when numeric and ignored
// otherwise (null included: json_number writes it for non-finite values).
bool parse_trace_jsonl(std::istream& is, std::vector<ParsedEvent>& out,
                       TraceMeta& meta, std::string* error = nullptr);

// A fault window [start, end] in absolute sim time, as stamped by the
// injector's "fault.window" annotation. Windows are the storm-attribution
// ground truth: any task/storage-op lifetime overlapping one counts as
// in-storm time.
struct FaultWindow {
  double start = 0.0;
  double end = 0.0;

  [[nodiscard]] bool contains(double t) const {
    return t >= start && t <= end;
  }
};

// Extracts fault windows from parsed events and merges overlaps: the
// result is sorted and disjoint (a union, so overlap accounting never
// double-counts concurrent storms).
[[nodiscard]] std::vector<FaultWindow> extract_fault_windows(
    const std::vector<ParsedEvent>& events);

// Seconds of [begin, end] covered by the (disjoint, sorted) window union.
[[nodiscard]] double storm_overlap(const std::vector<FaultWindow>& windows,
                                   double begin, double end);

// A reassembled duration span.
struct Span {
  std::string name;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  double begin = 0.0;
  double end = -1.0;  // < 0: orphaned (no end retained)
  std::map<std::string, double> fields;  // begin fields, end fields merged in

  [[nodiscard]] bool closed() const { return end >= 0.0; }
  [[nodiscard]] double duration() const { return closed() ? end - begin : 0.0; }
};

// Critical-path latency decomposition of one task's causal tree. The four
// legs partition [submit, finish]; `other` catches any uncovered remainder
// (nonzero only when the ring wrapped or the run ended mid-task).
struct TaskBreakdown {
  std::uint64_t trace_id = 0;
  double task = -1.0;  // task id (root span field), -1 when absent
  std::string outcome = "open";  // completed / expired / failed / open
  double submit = 0.0;
  double finish = 0.0;   // == submit while the root span is still open
  double queueing = 0.0;  // broker queue (incl. post-recovery requeues)
  double network = 0.0;   // dispatch ack wait + input transfer + result return
  double compute = 0.0;   // execution on the worker (input time excluded)
  double recovery = 0.0;  // crash -> declared dead -> requeued, migrations
  double other = 0.0;     // lifetime not covered by any closed leg span
  int retries = 0;        // task.retry instants in the tree
  int crashes = 0;        // exec legs ended by a worker crash
  int migrations = 0;     // migration legs
  double storm = 0.0;     // lifetime seconds inside injected fault windows
  std::size_t orphaned_spans = 0;  // begun, never closed
  std::vector<Span> spans;         // the tree, in begin order

  [[nodiscard]] double end_to_end() const { return finish - submit; }
  // Lifetime outside every fault window (e2e == storm + clear_sky).
  [[nodiscard]] double clear_sky() const { return end_to_end() - storm; }
  [[nodiscard]] double legs_sum() const {
    return queueing + network + compute + recovery + other;
  }
};

// One storage operation's causal tree, reduced. Roots named
// "storage.put" / "storage.get" / "storage.repair" route here instead of
// the task breakdown; attempt legs partition the op's virtual timeline
// (legs == e2e for closed ops), and the replica instants in the tree
// carry the holder set the op touched.
struct StorageOpBreakdown {
  std::uint64_t trace_id = 0;
  std::string kind;        // "put" / "get" / "repair"
  double object = -1.0;    // object id (root span field), -1 when absent
  double begin = 0.0;
  double end = 0.0;
  bool closed = false;     // root span end retained
  bool ok = false;         // put acked / get answered / repair always true
  bool degraded = false;   // stale-risk get
  int attempts = 0;        // storage.leg.attempt spans seen
  double legs = 0.0;       // summed closed attempt-leg durations
  double storm = 0.0;      // op seconds inside injected fault windows
  bool in_storm = false;   // overlaps a window (true for zero-length ops
                           // that *start* inside one, e.g. repair cycles)
  std::vector<std::uint64_t> replicas;  // holders, ascending, deduplicated

  [[nodiscard]] double e2e() const { return end - begin; }
};

// One DAG node's reduced latency inside a dag.run tree. The winning
// (successful) attempt's leg spans are classified exactly like a
// standalone task's — queue / network / compute / recovery partition the
// attempt's task.life lifetime, `other` catches whatever no closed leg
// covers. For a complete trace |other| ~ 0 for every completed node; that
// is the partition invariant `vcl_traceview --dag` asserts.
struct DagNodeBreakdown {
  std::size_t node = 0;   // node index within the graph
  double task = -1.0;     // winning attempt's task id, -1 when none seen
  int attempts = 0;       // dag.node submission instants for this node
  std::string outcome = "open";  // completed / expired / failed / open
  double submit = 0.0;    // winning attempt's task.life begin
  double finish = 0.0;    // == submit while still open
  double queueing = 0.0;
  double network = 0.0;
  double compute = 0.0;
  double recovery = 0.0;
  double other = 0.0;     // lifetime not covered by any closed leg span
  int crashes = 0;        // exec legs (any attempt) ended by a crash
  bool on_critical_path = false;

  [[nodiscard]] double end_to_end() const { return finish - submit; }
  [[nodiscard]] double legs_sum() const {
    return queueing + network + compute + recovery + other;
  }
};

// One DAG run's causal tree, reduced: the dag.run root span, its per-node
// winning-attempt breakdowns, the dependency edges (from dag.edge
// instants), and the measured critical path — the dependency chain whose
// summed node end-to-end latencies is longest. This is the *true* critical
// path of the run as executed (retries, backup attempts and storms
// included), not the static critical weight of the graph.
struct DagRunBreakdown {
  std::uint64_t trace_id = 0;
  double graph = -1.0;    // graph id (root span field), -1 when absent
  std::string outcome = "open";  // completed / failed / open
  double begin = 0.0;
  double end = 0.0;       // last event time while the root is still open
  bool closed = false;    // root span end retained
  std::size_t nodes_declared = 0;  // "nodes" field on the root span
  std::vector<DagNodeBreakdown> nodes;  // indexed by node id
  // Dependency edges (from, to) reconstructed from dag.edge instants.
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  std::vector<std::size_t> critical_path;  // node ids, source -> sink
  double critical_len = 0.0;  // summed node e2e along critical_path
  // max |other| over completed nodes: 0 for a complete, clean trace.
  double partition_max_dev = 0.0;
  double storm = 0.0;     // run seconds inside injected fault windows

  [[nodiscard]] double makespan() const { return end - begin; }
};

// Groups span/instant events by trace_id and reduces each tree: task roots
// (task.life) to TaskBreakdowns, storage roots to StorageOpBreakdowns,
// dag.run roots to DagRunBreakdowns. Trees with any other root name are
// skipped and counted in unknown_roots() — a newer recorder never crashes
// an older analyzer.
class TraceAnalysis {
 public:
  explicit TraceAnalysis(const std::vector<ParsedEvent>& events);

  // One breakdown per trace_id, ordered by trace_id.
  [[nodiscard]] const std::vector<TaskBreakdown>& tasks() const {
    return tasks_;
  }
  [[nodiscard]] const std::vector<StorageOpBreakdown>& storage_ops() const {
    return storage_ops_;
  }
  // One breakdown per dag.run tree, ordered by trace_id.
  [[nodiscard]] const std::vector<DagRunBreakdown>& dags() const {
    return dags_;
  }
  // Injected fault windows (sorted, disjoint) the breakdowns were
  // attributed against.
  [[nodiscard]] const std::vector<FaultWindow>& fault_windows() const {
    return windows_;
  }

  // Diagnostics across all trees.
  [[nodiscard]] std::size_t orphaned_spans() const { return orphaned_; }
  // End events whose begin was overwritten by the ring.
  [[nodiscard]] std::size_t unmatched_ends() const { return unmatched_ends_; }
  // Trees whose root span name is neither task.life nor storage.* —
  // skipped, not fatal.
  [[nodiscard]] std::size_t unknown_roots() const { return unknown_roots_; }

  // Human-readable report: per-task table, aggregate legs, diagnostics.
  void write_report(std::ostream& os, const TraceMeta& meta) const;
  // Per-object storage breakdown (put/get/repair latency, storm split).
  void write_storage_report(std::ostream& os, const TraceMeta& meta) const;
  // Per-DAG-run breakdown: node table, measured critical path, partition
  // deviation (vcl_traceview --dag).
  void write_dag_report(std::ostream& os, const TraceMeta& meta) const;
  // Machine-readable equivalent (one JSON document: tasks + storage ops +
  // fault windows + diagnostics).
  void write_json(std::ostream& os, const TraceMeta& meta) const;

 private:
  void write_diagnostics(std::ostream& os, const TraceMeta& meta) const;
  void reduce_dag(std::uint64_t trace_id, const std::vector<Span>& spans,
                  const std::vector<const ParsedEvent*>& evs,
                  const Span* root, double last_t);

  std::vector<TaskBreakdown> tasks_;
  std::vector<StorageOpBreakdown> storage_ops_;
  std::vector<DagRunBreakdown> dags_;
  std::vector<FaultWindow> windows_;
  std::size_t orphaned_ = 0;
  std::size_t unmatched_ends_ = 0;
  std::size_t unknown_roots_ = 0;
};

}  // namespace vcl::obs
