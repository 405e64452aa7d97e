#include "obs/trace_analysis.h"

#include <algorithm>
#include <cmath>

#include "obs/json.h"
#include "util/table.h"

namespace vcl::obs {

namespace {

std::string outcome_label(double code) {
  if (code == kOutcomeCompleted) return "completed";
  if (code == kOutcomeExpired) return "expired";
  if (code == kOutcomeFailed) return "failed";
  return "unknown";
}

}  // namespace

bool parse_trace_jsonl(std::istream& is, std::vector<ParsedEvent>& out,
                       TraceMeta& meta, std::string* error) {
  const auto record = [&](const JsonValue& obj, std::size_t,
                          std::string& why) {
    JsonFields f(obj);
    if (obj.find("meta") != nullptr) {
      meta.present = true;
      meta.capacity = f.u64("capacity");
      meta.recorded = f.u64("recorded");
      meta.retained = f.u64("retained");
      meta.overwritten = f.u64("overwritten");
      meta.dropped_fields = f.u64("dropped_fields");
      why = f.error();
      return f.ok();
    }
    ParsedEvent ev;
    ev.t = f.number("t");
    ev.cat = f.str("cat");
    ev.name = f.str("name");
    const std::string ph = f.str("ph");
    if (!ph.empty()) ev.ph = ph[0];
    ev.trace_id = f.u64("trace");
    ev.span_id = f.u64("span");
    ev.parent_id = f.u64("parent");
    // Every other numeric member is a payload field; null (a non-finite
    // value at export) and non-numeric members carry nothing.
    for (const auto& [key, value] : obj.members) {
      if (value.kind != JsonValue::Kind::kNumber || key == "t" ||
          key == "trace" || key == "span" || key == "parent") {
        continue;
      }
      ev.fields[key] = f.number(key);
    }
    why = f.error();
    if (f.ok()) out.push_back(std::move(ev));
    return f.ok();
  };
  return read_jsonl(is, record, error);
}

TraceAnalysis::TraceAnalysis(const std::vector<ParsedEvent>& events) {
  // Fault windows first: both task and storage breakdowns are attributed
  // against them below.
  windows_ = extract_fault_windows(events);

  // Group by trace id, preserving event order within each tree.
  std::map<std::uint64_t, std::vector<const ParsedEvent*>> by_trace;
  for (const ParsedEvent& ev : events) {
    if (ev.trace_id != 0) by_trace[ev.trace_id].push_back(&ev);
  }

  for (const auto& [trace_id, evs] : by_trace) {
    TaskBreakdown task;
    task.trace_id = trace_id;
    std::vector<std::uint64_t> replica_holders;

    // Reassemble spans: begins open, ends close (by span id).
    std::map<std::uint64_t, std::size_t> open;  // span id -> index in spans
    for (const ParsedEvent* ev : evs) {
      if (ev->ph == 'B') {
        Span span;
        span.name = ev->name;
        span.span_id = ev->span_id;
        span.parent_id = ev->parent_id;
        span.begin = ev->t;
        span.fields = ev->fields;
        open[span.span_id] = task.spans.size();
        task.spans.push_back(std::move(span));
      } else if (ev->ph == 'E') {
        auto it = open.find(ev->span_id);
        if (it == open.end()) {
          ++unmatched_ends_;  // begin lost to the ring
          continue;
        }
        Span& span = task.spans[it->second];
        span.end = ev->t;
        for (const auto& [k, v] : ev->fields) span.fields[k] = v;
        open.erase(it);
      } else if (ev->name == "task.retry") {
        ++task.retries;
      } else if (ev->name.rfind("storage.replica.", 0) == 0 ||
                 ev->name == "storage.repair.replica") {
        const auto h = ev->fields.find("holder");
        if (h != ev->fields.end()) {
          replica_holders.push_back(static_cast<std::uint64_t>(h->second));
        }
      }
    }

    // Root span: the parentless one. task.life roots (and rootless trees —
    // ring wrap) reduce to a task breakdown; storage.* roots to a storage
    // op; anything else is a newer recorder's category — skip and count.
    const Span* root = nullptr;
    for (const Span& s : task.spans) {
      if (s.parent_id == 0) {
        root = &s;
        break;
      }
    }
    double last_t = evs.empty() ? 0.0 : evs.back()->t;

    if (root != nullptr && root->name.rfind("storage.", 0) == 0) {
      StorageOpBreakdown op;
      op.trace_id = trace_id;
      op.kind = root->name.substr(8);
      const auto obj = root->fields.find("object");
      if (obj != root->fields.end()) op.object = obj->second;
      op.begin = root->begin;
      op.closed = root->closed();
      op.end = op.closed ? root->end : std::max(last_t, root->begin);
      const auto field_of = [&root](const char* key) {
        const auto it = root->fields.find(key);
        return it == root->fields.end() ? 0.0 : it->second;
      };
      if (op.kind == "put") {
        op.ok = field_of("acked") > 0.0;
      } else if (op.kind == "get") {
        op.ok = field_of("ok") > 0.0;
        op.degraded = field_of("degraded") > 0.0;
      } else {
        op.ok = true;  // a repair cycle that ran is a repair cycle that ran
      }
      for (const Span& s : task.spans) {
        if (&s == root) continue;
        if (!s.closed()) {
          // Orphaned leg (run ended mid-op): attempted, but no duration.
          if (s.name == "storage.leg.attempt") ++op.attempts;
          ++orphaned_;
          continue;
        }
        if (s.name == "storage.leg.attempt") {
          ++op.attempts;
          op.legs += s.duration();
        }
      }
      std::sort(replica_holders.begin(), replica_holders.end());
      replica_holders.erase(
          std::unique(replica_holders.begin(), replica_holders.end()),
          replica_holders.end());
      op.replicas = std::move(replica_holders);
      op.storm = storm_overlap(windows_, op.begin, op.end);
      op.in_storm = op.storm > 0.0;
      for (const FaultWindow& w : windows_) {
        if (w.contains(op.begin)) op.in_storm = true;
      }
      storage_ops_.push_back(std::move(op));
      continue;
    }
    if (root != nullptr && root->name == "dag.run") {
      reduce_dag(trace_id, task.spans, evs, root, last_t);
      continue;
    }
    if (root != nullptr && root->name != "task.life") {
      ++unknown_roots_;  // skip-and-count: never fatal, never misfiled
      continue;
    }
    if (root != nullptr) {
      task.submit = root->begin;
      auto it = root->fields.find("task");
      if (it != root->fields.end()) task.task = it->second;
      if (root->closed()) {
        task.finish = root->end;
        auto oc = root->fields.find("outcome");
        task.outcome =
            oc != root->fields.end() ? outcome_label(oc->second) : "unknown";
      } else {
        task.finish = std::max(last_t, task.submit);
        task.outcome = "open";
      }
    } else {
      task.submit = evs.empty() ? 0.0 : evs.front()->t;
      task.finish = last_t;
      task.outcome = "open";
    }

    for (const Span& s : task.spans) {
      if (!s.closed()) {
        if (&s != root) ++task.orphaned_spans;
        continue;
      }
      if (s.parent_id == 0) continue;  // the root itself
      const double dur = s.duration();
      if (s.name == "leg.queue") {
        task.queueing += dur;
      } else if (s.name == "leg.dispatch" || s.name == "leg.result") {
        task.network += dur;
      } else if (s.name == "leg.exec") {
        // The exec leg starts with the input transfer (its planned length
        // rides the span as "input_s"); that slice is network, the rest is
        // compute. A crash can end the leg mid-transfer, hence the clamp.
        double input = 0.0;
        auto it = s.fields.find("input_s");
        if (it != s.fields.end()) input = std::min(it->second, dur);
        task.network += input;
        task.compute += dur - input;
      } else if (s.name == "leg.recover" || s.name == "leg.migrate") {
        task.recovery += dur;
        if (s.name == "leg.migrate") ++task.migrations;
      }
      // Any other span name falls into the residual below.
      auto crashed = s.fields.find("crashed");
      if (crashed != s.fields.end() && crashed->second > 0.0) ++task.crashes;
    }
    // Residual lifetime no classified leg covers (ring wrap, still-open
    // legs): keeps legs_sum() == end_to_end() by construction.
    task.other = task.end_to_end() - (task.queueing + task.network +
                                      task.compute + task.recovery);
    task.storm = storm_overlap(windows_, task.submit, task.finish);
    orphaned_ += task.orphaned_spans;
    tasks_.push_back(std::move(task));
  }
}

void TraceAnalysis::reduce_dag(std::uint64_t trace_id,
                               const std::vector<Span>& spans,
                               const std::vector<const ParsedEvent*>& evs,
                               const Span* root, double last_t) {
  DagRunBreakdown run;
  run.trace_id = trace_id;
  const auto root_field = [&root](const char* key) {
    const auto it = root->fields.find(key);
    return it == root->fields.end() ? -1.0 : it->second;
  };
  run.graph = root_field("graph");
  const double declared = root_field("nodes");
  if (declared > 0.0) run.nodes_declared = static_cast<std::size_t>(declared);
  run.begin = root->begin;
  run.closed = root->closed();
  run.end = run.closed ? root->end : std::max(last_t, run.begin);
  if (run.closed) {
    const auto oc = root->fields.find("outcome");
    run.outcome =
        oc != root->fields.end() ? outcome_label(oc->second) : "unknown";
  }

  // dag.node instants join task ids to node indices; dag.edge instants
  // rebuild the dependency structure the scheduler walked.
  std::map<double, std::size_t> task_to_node;
  std::map<std::size_t, int> attempts_of;
  std::size_t max_node = 0;
  bool any_node = false;
  for (const ParsedEvent* ev : evs) {
    if (ev->name == "dag.node") {
      const auto n = ev->fields.find("node");
      const auto t = ev->fields.find("task");
      if (n == ev->fields.end()) continue;
      const auto node = static_cast<std::size_t>(n->second);
      if (t != ev->fields.end()) task_to_node[t->second] = node;
      ++attempts_of[node];
      max_node = std::max(max_node, node);
      any_node = true;
    } else if (ev->name == "dag.edge") {
      const auto f = ev->fields.find("from");
      const auto to = ev->fields.find("to");
      if (f == ev->fields.end() || to == ev->fields.end()) continue;
      const auto from = static_cast<std::size_t>(f->second);
      const auto dest = static_cast<std::size_t>(to->second);
      run.edges.emplace_back(from, dest);
      max_node = std::max(max_node, std::max(from, dest));
      any_node = true;
    }
  }
  const std::size_t n_nodes =
      std::max(run.nodes_declared, any_node ? max_node + 1 : 0);
  run.nodes.resize(n_nodes);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    run.nodes[i].node = i;
    const auto a = attempts_of.find(i);
    if (a != attempts_of.end()) run.nodes[i].attempts = a->second;
  }

  // Per node, pick the *winning* attempt: the task.life child that closed
  // with outcome completed (the scheduler commits exactly one). Its legs
  // become the node's breakdown; a node with no winner keeps its latest
  // attempt's timings so failed runs still report where time went.
  std::map<std::uint64_t, const Span*> by_id;
  for (const Span& s : spans) by_id[s.span_id] = &s;
  const auto owning_life = [&by_id](const Span& s) -> const Span* {
    const Span* cur = &s;
    for (int hops = 0; hops < 64 && cur->parent_id != 0; ++hops) {
      const auto it = by_id.find(cur->parent_id);
      if (it == by_id.end()) return nullptr;  // parent lost to the ring
      cur = it->second;
      if (cur->name == "task.life") return cur;
    }
    return nullptr;
  };

  std::map<std::size_t, const Span*> winner_of;  // node -> winning task.life
  for (const Span& s : spans) {
    if (s.name != "task.life") continue;
    const auto t = s.fields.find("task");
    if (t == s.fields.end()) continue;
    const auto node_it = task_to_node.find(t->second);
    if (node_it == task_to_node.end()) continue;
    const std::size_t node = node_it->second;
    if (node >= run.nodes.size()) continue;
    const auto oc = s.fields.find("outcome");
    const bool completed = s.closed() && oc != s.fields.end() &&
                           oc->second == kOutcomeCompleted;
    auto& slot = winner_of[node];
    const auto slot_oc =
        slot != nullptr ? slot->fields.find("outcome") : s.fields.end();
    const bool slot_completed = slot != nullptr && slot->closed() &&
                                slot_oc != slot->fields.end() &&
                                slot_oc->second == kOutcomeCompleted;
    if (slot == nullptr || (completed && !slot_completed) ||
        (completed == slot_completed && s.begin > slot->begin)) {
      slot = &s;
    }
  }
  for (const auto& [node, life] : winner_of) {
    DagNodeBreakdown& nb = run.nodes[node];
    const auto t = life->fields.find("task");
    if (t != life->fields.end()) nb.task = t->second;
    nb.submit = life->begin;
    if (life->closed()) {
      nb.finish = life->end;
      const auto oc = life->fields.find("outcome");
      nb.outcome =
          oc != life->fields.end() ? outcome_label(oc->second) : "unknown";
    } else {
      nb.finish = std::max(last_t, nb.submit);
    }
  }

  // Leg classification, winning attempt only — same rules as the per-task
  // reduction, so each node's legs partition its winning attempt's e2e.
  for (const Span& s : spans) {
    if (s.name.rfind("leg.", 0) != 0) continue;
    const Span* life = owning_life(s);
    if (life == nullptr) continue;
    const auto t = life->fields.find("task");
    if (t == life->fields.end()) continue;
    const auto node_it = task_to_node.find(t->second);
    if (node_it == task_to_node.end() || node_it->second >= run.nodes.size()) {
      continue;
    }
    DagNodeBreakdown& nb = run.nodes[node_it->second];
    const auto crashed = s.fields.find("crashed");
    if (crashed != s.fields.end() && crashed->second > 0.0) ++nb.crashes;
    const auto win = winner_of.find(node_it->second);
    if (win == winner_of.end() || win->second != life) continue;
    if (!s.closed()) continue;
    const double dur = s.duration();
    if (s.name == "leg.queue") {
      nb.queueing += dur;
    } else if (s.name == "leg.dispatch" || s.name == "leg.result") {
      nb.network += dur;
    } else if (s.name == "leg.exec") {
      double input = 0.0;
      const auto in = s.fields.find("input_s");
      if (in != s.fields.end()) input = std::min(in->second, dur);
      nb.network += input;
      nb.compute += dur - input;
    } else if (s.name == "leg.recover" || s.name == "leg.migrate") {
      nb.recovery += dur;
    }
  }
  for (auto& nb : run.nodes) {
    nb.other = nb.end_to_end() -
               (nb.queueing + nb.network + nb.compute + nb.recovery);
    if (nb.outcome == "completed") {
      run.partition_max_dev =
          std::max(run.partition_max_dev, std::abs(nb.other));
    }
  }

  // Measured critical path: longest dependency chain by summed node e2e,
  // via DP in topological order over the reconstructed edges.
  const std::size_t n = run.nodes.size();
  if (n > 0) {
    std::vector<std::vector<std::size_t>> children(n);
    std::vector<std::size_t> indeg(n, 0);
    for (const auto& [from, to] : run.edges) {
      if (from >= n || to >= n) continue;
      children[from].push_back(to);
      ++indeg[to];
    }
    std::vector<double> dist(n, 0.0);
    std::vector<std::size_t> pred(n, n);  // n == "no predecessor"
    std::vector<std::size_t> order;
    order.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (indeg[i] == 0) order.push_back(i);
    }
    for (std::size_t i = 0; i < n; ++i) dist[i] = run.nodes[i].end_to_end();
    for (std::size_t qi = 0; qi < order.size(); ++qi) {
      const std::size_t u = order[qi];
      for (const std::size_t v : children[u]) {
        const double through = dist[u] + run.nodes[v].end_to_end();
        if (through > dist[v]) {
          dist[v] = through;
          pred[v] = u;
        }
        if (--indeg[v] == 0) order.push_back(v);
      }
    }
    std::size_t sink = 0;
    for (std::size_t i = 1; i < n; ++i) {
      if (dist[i] > dist[sink]) sink = i;
    }
    run.critical_len = dist[sink];
    for (std::size_t cur = sink; cur != n; cur = pred[cur]) {
      run.critical_path.push_back(cur);
      if (run.critical_path.size() > n) break;  // cycle guard (bad trace)
    }
    std::reverse(run.critical_path.begin(), run.critical_path.end());
    for (const std::size_t i : run.critical_path) {
      run.nodes[i].on_critical_path = true;
    }
  }

  run.storm = storm_overlap(windows_, run.begin, run.end);
  for (const Span& s : spans) {
    if (!s.closed() && &s != root) ++orphaned_;
  }
  dags_.push_back(std::move(run));
}

std::vector<FaultWindow> extract_fault_windows(
    const std::vector<ParsedEvent>& events) {
  std::vector<FaultWindow> raw;
  bool have_annotations = false;
  for (const ParsedEvent& ev : events) {
    if (ev.name == "fault.window") {
      const auto s = ev.fields.find("start");
      const auto e = ev.fields.find("end");
      if (s != ev.fields.end() && e != ev.fields.end() &&
          e->second > s->second) {
        raw.push_back({s->second, e->second});
        have_annotations = true;
      }
    }
  }
  if (!have_annotations) {
    // Pre-annotation trace: reconstruct blackout windows from the start
    // events' planned duration.
    for (const ParsedEvent& ev : events) {
      if (ev.name != "fault.blackout.start") continue;
      const auto d = ev.fields.find("duration");
      if (d != ev.fields.end() && d->second > 0.0) {
        raw.push_back({ev.t, ev.t + d->second});
      }
    }
  }
  std::sort(raw.begin(), raw.end(), [](const FaultWindow& a,
                                       const FaultWindow& b) {
    return a.start < b.start;
  });
  std::vector<FaultWindow> merged;
  for (const FaultWindow& w : raw) {
    if (!merged.empty() && w.start <= merged.back().end) {
      merged.back().end = std::max(merged.back().end, w.end);
    } else {
      merged.push_back(w);
    }
  }
  return merged;
}

double storm_overlap(const std::vector<FaultWindow>& windows, double begin,
                     double end) {
  double covered = 0.0;
  for (const FaultWindow& w : windows) {
    covered += std::max(0.0, std::min(end, w.end) - std::max(begin, w.start));
  }
  return covered;
}

const TaskBreakdown* TraceAnalysis::find(std::uint64_t trace_id) const {
  for (const TaskBreakdown& t : tasks_) {
    if (t.trace_id == trace_id) return &t;
  }
  return nullptr;
}

void TraceAnalysis::write_diagnostics(std::ostream& os,
                                      const TraceMeta& meta) const {
  os << "\ndiagnostics:\n";
  if (meta.present) {
    os << "  ring: " << meta.recorded << " recorded, " << meta.overwritten
       << " overwritten"
       << (meta.complete() ? " (complete trace)" : " (RING WRAPPED: pairing is best-effort)")
       << ", " << meta.dropped_fields << " dropped fields\n";
  } else {
    os << "  ring: no metadata record (pre-metadata trace or truncated file)\n";
  }
  os << "  orphaned spans (begun, never closed): " << orphaned_ << "\n"
     << "  unmatched ends (begin overwritten): " << unmatched_ends_ << "\n"
     << "  unknown root categories (skipped): " << unknown_roots_ << "\n"
     << "  fault windows: " << windows_.size() << "\n";
}

void TraceAnalysis::write_report(std::ostream& os,
                                 const TraceMeta& meta) const {
  Table table("per-task critical-path latency breakdown (seconds)",
              {"trace", "task", "outcome", "e2e", "queue", "network",
               "compute", "recovery", "other", "storm", "retries",
               "crashes"});
  double sum_e2e = 0, sum_q = 0, sum_n = 0, sum_c = 0, sum_r = 0, sum_o = 0;
  double sum_storm = 0;
  std::size_t closed = 0;
  for (const TaskBreakdown& t : tasks_) {
    table.add_row({std::to_string(t.trace_id),
                   t.task >= 0 ? Table::num(t.task, 0) : "?", t.outcome,
                   Table::num(t.end_to_end(), 3), Table::num(t.queueing, 3),
                   Table::num(t.network, 3), Table::num(t.compute, 3),
                   Table::num(t.recovery, 3), Table::num(t.other, 3),
                   Table::num(t.storm, 3), std::to_string(t.retries),
                   std::to_string(t.crashes)});
    if (t.outcome != "open") {
      sum_e2e += t.end_to_end();
      sum_q += t.queueing;
      sum_n += t.network;
      sum_c += t.compute;
      sum_r += t.recovery;
      sum_o += t.other;
      sum_storm += t.storm;
      ++closed;
    }
  }
  table.print(os);
  if (closed > 0) {
    const double n = static_cast<double>(closed);
    os << "\naggregate over " << closed
       << " finished tasks (mean seconds/task):\n"
       << "  e2e " << Table::num(sum_e2e / n, 3) << " = queue "
       << Table::num(sum_q / n, 3) << " + network " << Table::num(sum_n / n, 3)
       << " + compute " << Table::num(sum_c / n, 3) << " + recovery "
       << Table::num(sum_r / n, 3) << " + other " << Table::num(sum_o / n, 3)
       << "\n"
       << "  in-storm " << Table::num(sum_storm / n, 3) << " + clear-sky "
       << Table::num((sum_e2e - sum_storm) / n, 3) << " ("
       << windows_.size() << " fault windows)\n";
  }
  write_diagnostics(os, meta);
}

void TraceAnalysis::write_storage_report(std::ostream& os,
                                         const TraceMeta& meta) const {
  // Per-object aggregation of the storage op breakdowns.
  struct ObjectAgg {
    std::size_t puts = 0, gets = 0, repairs = 0;
    std::size_t acked = 0, degraded = 0;
    double put_s = 0, put_max = 0, get_s = 0, get_max = 0;
    std::size_t storm_ops = 0;
    double storm_s = 0, total_s = 0;
  };
  std::map<double, ObjectAgg> objects;
  for (const StorageOpBreakdown& op : storage_ops_) {
    ObjectAgg& agg = objects[op.object];
    if (op.kind == "put") {
      ++agg.puts;
      agg.acked += op.ok ? 1 : 0;
      agg.put_s += op.e2e();
      agg.put_max = std::max(agg.put_max, op.e2e());
    } else if (op.kind == "get") {
      ++agg.gets;
      agg.degraded += op.degraded ? 1 : 0;
      agg.get_s += op.e2e();
      agg.get_max = std::max(agg.get_max, op.e2e());
    } else {
      ++agg.repairs;
    }
    if (op.in_storm) ++agg.storm_ops;
    agg.storm_s += op.storm;
    agg.total_s += op.e2e();
  }

  Table table("per-object storage op breakdown (seconds)",
              {"object", "puts", "acked", "put_mean", "put_max", "gets",
               "degraded", "get_mean", "get_max", "repairs", "storm_ops"});
  for (const auto& [object, agg] : objects) {
    table.add_row(
        {object >= 0 ? Table::num(object, 0) : "?", std::to_string(agg.puts),
         std::to_string(agg.acked),
         Table::num(agg.puts ? agg.put_s / static_cast<double>(agg.puts) : 0.0,
                    3),
         Table::num(agg.put_max, 3), std::to_string(agg.gets),
         std::to_string(agg.degraded),
         Table::num(agg.gets ? agg.get_s / static_cast<double>(agg.gets) : 0.0,
                    3),
         Table::num(agg.get_max, 3), std::to_string(agg.repairs),
         std::to_string(agg.storm_ops)});
  }
  table.print(os);
  double storm_s = 0, total_s = 0;
  std::size_t in_storm = 0;
  for (const StorageOpBreakdown& op : storage_ops_) {
    storm_s += op.storm;
    total_s += op.e2e();
    in_storm += op.in_storm ? 1 : 0;
  }
  os << "\n" << storage_ops_.size() << " storage ops, " << in_storm
     << " overlapping a fault window (" << windows_.size() << " windows); "
     << "op time " << Table::num(total_s, 3) << " s total, "
     << Table::num(storm_s, 3) << " s in-storm, "
     << Table::num(total_s - storm_s, 3) << " s clear-sky\n";
  write_diagnostics(os, meta);
}

void TraceAnalysis::write_dag_report(std::ostream& os,
                                     const TraceMeta& meta) const {
  if (dags_.empty()) {
    os << "no dag.run trees in this trace (was the DAG scheduler enabled "
          "and the dag category unmasked?)\n";
    write_diagnostics(os, meta);
    return;
  }
  for (const DagRunBreakdown& run : dags_) {
    os << "dag run: trace " << run.trace_id << ", graph "
       << (run.graph >= 0 ? Table::num(run.graph, 0) : "?") << ", "
       << run.outcome << ", makespan " << Table::num(run.makespan(), 3)
       << " s, " << run.nodes.size() << " nodes, " << run.edges.size()
       << " edges, in-storm " << Table::num(run.storm, 3) << " s\n";
    Table table("per-node winning-attempt breakdown (seconds)",
                {"node", "task", "attempts", "outcome", "e2e", "queue",
                 "network", "compute", "recovery", "other", "crit"});
    for (const DagNodeBreakdown& nb : run.nodes) {
      table.add_row({std::to_string(nb.node),
                     nb.task >= 0 ? Table::num(nb.task, 0) : "?",
                     std::to_string(nb.attempts), nb.outcome,
                     Table::num(nb.end_to_end(), 3),
                     Table::num(nb.queueing, 3), Table::num(nb.network, 3),
                     Table::num(nb.compute, 3), Table::num(nb.recovery, 3),
                     Table::num(nb.other, 3),
                     nb.on_critical_path ? "*" : ""});
    }
    table.print(os);
    os << "critical path:";
    for (std::size_t i = 0; i < run.critical_path.size(); ++i) {
      os << (i == 0 ? " " : " -> ") << run.critical_path[i];
    }
    os << " (" << Table::num(run.critical_len, 3)
       << " s of node time on the path)\n"
       << "leg partition max deviation: "
       << Table::num(run.partition_max_dev, 9) << " s\n\n";
  }
  write_diagnostics(os, meta);
}

void TraceAnalysis::write_json(std::ostream& os, const TraceMeta& meta) const {
  JsonWriter w(os);
  w.begin_object();
  w.key("schema").value("vcl-traceview-v1");
  w.key("meta").begin_object();
  w.key("present").value(meta.present);
  w.key("recorded").value(meta.recorded);
  w.key("overwritten").value(meta.overwritten);
  w.key("dropped_fields").value(meta.dropped_fields);
  w.key("complete").value(meta.complete());
  w.end_object();
  w.key("tasks").begin_array();
  for (const TaskBreakdown& t : tasks_) {
    w.begin_object();
    w.key("trace").value(t.trace_id);
    w.key("task").value(t.task);
    w.key("outcome").value(t.outcome);
    w.key("e2e").value(t.end_to_end());
    w.key("queue").value(t.queueing);
    w.key("network").value(t.network);
    w.key("compute").value(t.compute);
    w.key("recovery").value(t.recovery);
    w.key("other").value(t.other);
    w.key("storm").value(t.storm);
    w.key("clear").value(t.clear_sky());
    w.key("retries").value(static_cast<std::uint64_t>(
        t.retries < 0 ? 0 : t.retries));
    w.key("crashes").value(static_cast<std::uint64_t>(
        t.crashes < 0 ? 0 : t.crashes));
    w.key("migrations").value(static_cast<std::uint64_t>(
        t.migrations < 0 ? 0 : t.migrations));
    w.key("orphaned_spans").value(
        static_cast<std::uint64_t>(t.orphaned_spans));
    w.end_object();
  }
  w.end_array();
  w.key("storage").begin_array();
  for (const StorageOpBreakdown& op : storage_ops_) {
    w.begin_object();
    w.key("trace").value(op.trace_id);
    w.key("kind").value(op.kind);
    w.key("object").value(op.object);
    w.key("begin").value(op.begin);
    w.key("end").value(op.end);
    w.key("e2e").value(op.e2e());
    w.key("closed").value(op.closed);
    w.key("ok").value(op.ok);
    w.key("degraded").value(op.degraded);
    w.key("attempts").value(
        static_cast<std::uint64_t>(op.attempts < 0 ? 0 : op.attempts));
    w.key("legs").value(op.legs);
    w.key("storm").value(op.storm);
    w.key("in_storm").value(op.in_storm);
    w.key("replicas").begin_array();
    for (const std::uint64_t holder : op.replicas) w.value(holder);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("dags").begin_array();
  for (const DagRunBreakdown& run : dags_) {
    w.begin_object();
    w.key("trace").value(run.trace_id);
    w.key("graph").value(run.graph);
    w.key("outcome").value(run.outcome);
    w.key("makespan").value(run.makespan());
    w.key("closed").value(run.closed);
    w.key("storm").value(run.storm);
    w.key("critical_len").value(run.critical_len);
    w.key("partition_max_dev").value(run.partition_max_dev);
    w.key("critical_path").begin_array();
    for (const std::size_t i : run.critical_path) {
      w.value(static_cast<std::uint64_t>(i));
    }
    w.end_array();
    w.key("nodes").begin_array();
    for (const DagNodeBreakdown& nb : run.nodes) {
      w.begin_object();
      w.key("node").value(static_cast<std::uint64_t>(nb.node));
      w.key("task").value(nb.task);
      w.key("attempts").value(
          static_cast<std::uint64_t>(nb.attempts < 0 ? 0 : nb.attempts));
      w.key("outcome").value(nb.outcome);
      w.key("e2e").value(nb.end_to_end());
      w.key("queue").value(nb.queueing);
      w.key("network").value(nb.network);
      w.key("compute").value(nb.compute);
      w.key("recovery").value(nb.recovery);
      w.key("other").value(nb.other);
      w.key("critical").value(nb.on_critical_path);
      w.end_object();
    }
    w.end_array();
    w.key("edges").begin_array();
    for (const auto& [from, to] : run.edges) {
      w.begin_object();
      w.key("from").value(static_cast<std::uint64_t>(from));
      w.key("to").value(static_cast<std::uint64_t>(to));
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("fault_windows").begin_array();
  for (const FaultWindow& win : windows_) {
    w.begin_object();
    w.key("start").value(win.start);
    w.key("end").value(win.end);
    w.end_object();
  }
  w.end_array();
  w.key("diagnostics").begin_object();
  w.key("orphaned_spans").value(static_cast<std::uint64_t>(orphaned_));
  w.key("unmatched_ends").value(static_cast<std::uint64_t>(unmatched_ends_));
  w.key("unknown_roots").value(static_cast<std::uint64_t>(unknown_roots_));
  w.end_object();
  w.end_object();
  os << '\n';
}

}  // namespace vcl::obs
