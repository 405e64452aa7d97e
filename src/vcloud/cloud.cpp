#include "vcloud/cloud.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "cluster/cluster_manager.h"
#include "vcloud/admission.h"
#include "vcloud/invariant_oracle.h"

namespace vcl::vcloud {

namespace {
// Membership, broker and dispatch round.
constexpr SimTime kRefreshPeriod = 1.0;
// run_started sentinel while a task is assigned but not yet executing
// (dispatch ack outstanding, or its worker crashed): no progress accrues.
constexpr SimTime kNeverStarted = std::numeric_limits<double>::infinity();
// Control-plane descriptor size for dispatch/result envelopes; the bulk
// input/output transfer is charged separately as bandwidth time.
constexpr std::size_t kControlBytes = 512;
// Worker -> broker heartbeat payload.
constexpr std::size_t kHeartbeatBytes = 64;
// Speculation launches a replica only while more than this many idle
// workers remain: it must not starve the queue.
constexpr std::size_t kMinSpareWorkers = 1;

// Bitwise, so a memo never treats -0.0 as 0.0 or differs from a fresh read.
bool same_region(const CloudRegion& a, const CloudRegion& b) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  return bits(a.center.x) == bits(b.center.x) &&
         bits(a.center.y) == bits(b.center.y) &&
         bits(a.radius) == bits(b.radius);
}

bool by_id(const WorkerView& view, VehicleId v) { return view.id < v; }
}  // namespace

// ---- VehicularCloud ---------------------------------------------------------

VehicularCloud::VehicularCloud(CloudId id, net::Network& net,
                               MembershipFn membership, RegionFn region,
                               std::unique_ptr<Scheduler> scheduler,
                               CloudConfig config, Rng rng)
    : id_(id),
      net_(net),
      membership_fn_(std::move(membership)),
      region_fn_(std::move(region)),
      scheduler_(std::move(scheduler)),
      config_(config),
      rng_(rng),
      detector_(config.dependability.detector) {}

void VehicularCloud::attach() {
  net_.simulator().schedule_every(
      kRefreshPeriod, [this] { refresh(); }, -1.0, "cloud.refresh");
  if (config_.dependability.detector.enabled) {
    net_.simulator().schedule_every(
        kHeartbeatPeriod, [this] { heartbeat_round(); }, -1.0,
        "cloud.heartbeat");
  }
  if (config_.dependability.checkpoint.enabled) {
    net_.simulator().schedule_every(
        config_.dependability.checkpoint.period,
        [this] { checkpoint_round(); }, -1.0, "cloud.checkpoint");
  }
}

double VehicularCloud::worker_dwell(VehicleId v,
                                    const CloudRegion& region) const {
  if (region.radius <= 0.0) return 0.0;
  return estimate_dwell(net_.traffic(), v, region.center, region.radius,
                        config_.dwell_mode);
}

const std::vector<WorkerView>& VehicularCloud::views() const {
  // A dwell estimate reads the traffic state of one vehicle (or its
  // absence), the region and the fixed DwellMode, so the key (traffic
  // epoch, region) covers every input; worker_dwell() is the fresh read.
  const CloudRegion region = region_fn_();
  const std::uint64_t epoch = net_.traffic().epoch();
  const bool same_key = dwell_keyed_ && epoch == dwell_epoch_ &&
                        same_region(region, dwell_region_);
  for (std::size_t i = 0; i < views_.size(); ++i) {
    ViewSlot& slot = view_slots_[i];
    if (!same_key || !slot.dwell_fresh) {
      views_[i].dwell_seconds = worker_dwell(views_[i].id, region);
      slot.dwell_fresh = true;
      ++dwell_estimates_;
    }
    views_[i].busy = slot.state->running.valid();
  }
  dwell_keyed_ = true;
  dwell_epoch_ = epoch;
  dwell_region_ = region;
  return views_;
}

void VehicularCloud::add_worker(VehicleId v, const ResourceProfile& profile) {
  const auto [it, inserted] =
      workers_.emplace(v.value(), WorkerState{profile, TaskId{}});
  if (!inserted) return;
  const auto pos = std::lower_bound(views_.begin(), views_.end(), v, by_id);
  const auto i = pos - views_.begin();
  WorkerView view;
  view.id = v;
  view.profile = profile;
  views_.insert(pos, view);
  view_slots_.insert(view_slots_.begin() + i, ViewSlot{&it->second, false});
}

VehicularCloud::WorkerState VehicularCloud::remove_worker(VehicleId v) {
  const auto pos = std::lower_bound(views_.begin(), views_.end(), v, by_id);
  view_slots_.erase(view_slots_.begin() + (pos - views_.begin()));
  views_.erase(pos);
  const auto it = workers_.find(v.value());
  const WorkerState state = it->second;
  workers_.erase(it);
  return state;
}

std::vector<VehicleId> VehicularCloud::worker_ids() const {
  std::vector<VehicleId> out;
  out.reserve(views_.size());
  for (const WorkerView& view : views_) out.push_back(view.id);
  return out;
}

ResourcePool VehicularCloud::pool() const {
  ResourcePool pool;
  for (const auto& [vid, w] : workers_) pool.add(w.profile);
  return pool;
}

const Task* VehicularCloud::find_task(TaskId id) const {
  auto it = tasks_.find(id.value());
  return it == tasks_.end() ? nullptr : &it->second;
}

void VehicularCloud::for_each_task(
    const std::function<void(const Task&)>& fn) const {
  // Id order, so oracle reports are deterministic across runs.
  for (const Task* t : tasks_by_id_) fn(*t);
}

std::vector<TaskId> VehicularCloud::pending_ids() const {
  return {pending_.begin(), pending_.end()};
}

TaskId VehicularCloud::running_on(VehicleId v) const {
  auto it = workers_.find(v.value());
  return it == workers_.end() ? TaskId{} : it->second.running;
}

const ResourceProfile* VehicularCloud::worker_profile(VehicleId v) const {
  auto it = workers_.find(v.value());
  return it == workers_.end() ? nullptr : &it->second.profile;
}

double VehicularCloud::earned_progress(const Task& task,
                                       const ResourceProfile& profile,
                                       SimTime now) const {
  if (task.state != TaskState::kRunning || now <= task.run_started) {
    return task.progress;
  }
  return std::min(task.work,
                  task.progress + (now - task.run_started) * profile.compute);
}

// ---- causal span tracing ----------------------------------------------------
// The cloud keeps exactly one `leg.*` span open per live traced task;
// trace_open_leg closes the previous leg at the same instant, so the legs
// partition [submit, terminal] and a breakdown over them sums to the
// end-to-end latency by construction (DESIGN.md §8). No simulator events
// are scheduled for tracing — it only piggybacks on transitions that
// already happen, so the event ordering (and thus the run) is unchanged.

void VehicularCloud::trace_task_start(Task& task) {
  if (trace_ == nullptr) return;
  const SimTime now = net_.simulator().now();
  // A pre-stamped context (the DAG scheduler's dag.run root) makes this
  // task a child subtree of an existing trace; otherwise it roots its own.
  const std::uint64_t parent_span = task.trace.span_id;
  if (task.trace.trace_id == 0) task.trace.trace_id = trace_->new_trace_id();
  task.trace.span_id = trace_->begin_span(
      now, obs::TraceCategory::kTask, "task.life",
      obs::TraceContext{task.trace.trace_id, parent_span},
      {{"task", static_cast<double>(task.id.value())},
       {"work", task.work},
       {"deadline", task.deadline}});
  trace_open_leg(task, "leg.queue");
}

void VehicularCloud::trace_open_leg(
    Task& task, const char* name,
    std::initializer_list<obs::TraceRecorder::Field> fields) {
  if (trace_ == nullptr || !task.trace.valid()) return;
  trace_close_leg(task);
  task.open_leg =
      trace_->begin_span(net_.simulator().now(), obs::TraceCategory::kTask,
                         name, task.trace, fields);
  task.open_leg_name = name;
}

void VehicularCloud::trace_close_leg(
    Task& task, std::initializer_list<obs::TraceRecorder::Field> fields) {
  if (trace_ == nullptr || task.open_leg == 0) return;
  trace_->end_span(net_.simulator().now(), obs::TraceCategory::kTask,
                   task.open_leg_name,
                   obs::TraceContext{task.trace.trace_id, task.open_leg},
                   fields);
  task.open_leg = 0;
  task.open_leg_name = "";
}

void VehicularCloud::trace_task_end(Task& task, double outcome) {
  if (trace_ == nullptr || task.trace.span_id == 0) return;
  trace_close_leg(task);
  trace_->end_span(net_.simulator().now(), obs::TraceCategory::kTask,
                   "task.life", task.trace, {{"outcome", outcome}});
  // Keep trace_id for post-mortem lookup; zero the root span id so a
  // second terminal transition can never double-close the tree.
  task.trace.span_id = 0;
}

TaskId VehicularCloud::submit(Task spec) {
  spec.id = TaskId{next_task_id_++};
  spec.state = TaskState::kPending;
  if (spec.created == 0.0) spec.created = net_.simulator().now();
  const TaskId id = spec.id;
  tasks_by_id_.push_back(
      &tasks_.emplace(id.value(), std::move(spec)).first->second);
  task_epoch_[id.value()] = 0;
  pending_.push_back(id);
  ++stats_.submitted;
  if (trace_ != nullptr) {
    Task& t = tasks_.at(id.value());
    trace_task_start(t);
    trace_->record(net_.simulator().now(), obs::TraceCategory::kTask,
                   "task.submit", t.trace,
                   {{"task", static_cast<double>(id.value())},
                    {"work", t.work},
                    {"deadline", t.deadline}});
  }
  dispatch();
  return id;
}

void VehicularCloud::assign(Task& task, WorkerState& worker,
                            VehicleId worker_id, bool charge_input) {
  if (trace_ != nullptr) {
    trace_->record(net_.simulator().now(), obs::TraceCategory::kTask,
                   "task.dispatch", task.trace,
                   {{"task", static_cast<double>(task.id.value())},
                    {"worker", static_cast<double>(worker_id.value())},
                    {"progress", task.progress}});
  }
  task.state = TaskState::kRunning;
  task.worker = worker_id;
  worker.running = task.id;
  trace_open_leg(task, "leg.dispatch",
                 {{"worker", static_cast<double>(worker_id.value())}});
  const std::uint64_t epoch = ++task_epoch_[task.id.value()];
  if (config_.dependability.retry.enabled && charge_input) {
    // The dispatch must be acked over the lossy channel before execution
    // starts; no progress accrues until the worker confirms.
    task.run_started = kNeverStarted;
    attempt_dispatch_send(task.id, epoch, 1);
    return;
  }
  begin_execution(task, worker, charge_input, epoch);
}

void VehicularCloud::begin_execution(Task& task, WorkerState& worker,
                                     bool charge_input, std::uint64_t epoch) {
  const SimTime now = net_.simulator().now();
  const SimTime input_delay =
      charge_input
          ? task.input_mb * 8.0 / std::max(worker.profile.bandwidth_mbps, 0.1)
          : 0.0;
  task.state = TaskState::kRunning;
  task.run_started = now + input_delay;
  // The exec leg starts at the dispatch ack; the leading input transfer is
  // carried as `input_s` so the analyzer re-attributes it to the network.
  trace_open_leg(task, "leg.exec",
                 {{"worker", static_cast<double>(task.worker.value())},
                  {"input_s", input_delay}});

  const SimTime exec = task.remaining() / worker.profile.compute;
  const TaskId tid = task.id;
  net_.simulator().schedule_after(
      input_delay + exec, [this, tid, epoch] { on_complete(tid, epoch); },
      "cloud.task");
}

void VehicularCloud::attempt_dispatch_send(TaskId id, std::uint64_t epoch,
                                           int attempt) {
  auto it = tasks_.find(id.value());
  if (it == tasks_.end()) return;
  Task& task = it->second;
  if (task_epoch_[id.value()] != epoch || task.state != TaskState::kRunning) {
    return;
  }
  auto worker_it = workers_.find(task.worker.value());
  if (worker_it == workers_.end() || !(worker_it->second.running == id)) {
    return;
  }

  const VehicleId broker = broker_.current();
  net::Message msg;
  msg.id = net_.next_message_id();
  msg.kind = net::MessageKind::kTaskAssign;
  msg.src = net::Address::vehicle(broker.valid() ? broker : task.worker);
  msg.dst = net::Address::vehicle(task.worker);
  msg.size_bytes = kControlBytes;
  msg.trace = obs::TraceContext{
      task.trace.trace_id,
      task.open_leg != 0 ? task.open_leg : task.trace.span_id};
  if (net_.send(msg)) {
    begin_execution(task, worker_it->second, /*charge_input=*/true, epoch);
    return;
  }

  ++stats_.retries;
  if (trace_ != nullptr) {
    trace_->record(net_.simulator().now(), obs::TraceCategory::kTask,
                   "task.retry", task.trace,
                   {{"task", static_cast<double>(id.value())},
                    {"attempt", static_cast<double>(attempt)},
                    {"kind", 1.0}});  // 1 = dispatch, 2 = result
  }
  const SimTime delay =
      retry_backoff(config_.dependability.retry, attempt, rng_);
  if (attempt >= config_.dependability.retry.max_attempts) {
    // Unreachable worker (dead, partitioned, or unlucky): free it and
    // re-queue; the next dispatch round will try elsewhere.
    worker_it->second.running = TaskId{};
    ++task_epoch_[id.value()];
    requeue(task, TaskState::kPending);
    net_.simulator().schedule_after(delay, [this] { dispatch(); },
                                    "cloud.dispatch");
    return;
  }
  net_.simulator().schedule_after(
      delay,
      [this, id, epoch, attempt] { attempt_dispatch_send(id, epoch, attempt + 1); },
      "cloud.retry");
}

void VehicularCloud::attempt_result_send(TaskId id, std::uint64_t epoch,
                                         int attempt) {
  auto it = tasks_.find(id.value());
  if (it == tasks_.end()) return;
  Task& task = it->second;
  if (task_epoch_[id.value()] != epoch || task.state != TaskState::kRunning) {
    return;
  }
  // A worker that crashed while holding the result can never deliver it;
  // the failure detector (if any) will eventually trigger a re-execution.
  if (crashed_.count(task.worker.value()) > 0) return;

  const VehicleId broker = broker_.current();
  net::Message msg;
  msg.id = net_.next_message_id();
  msg.kind = net::MessageKind::kTaskResult;
  msg.src = net::Address::vehicle(task.worker);
  msg.dst = net::Address::vehicle(broker.valid() ? broker : task.worker);
  msg.size_bytes = kControlBytes;
  msg.trace = obs::TraceContext{
      task.trace.trace_id,
      task.open_leg != 0 ? task.open_leg : task.trace.span_id};
  if (net_.send(msg)) {
    finalize_completion(task);
    return;
  }

  ++stats_.retries;
  if (trace_ != nullptr) {
    trace_->record(net_.simulator().now(), obs::TraceCategory::kTask,
                   "task.retry", task.trace,
                   {{"task", static_cast<double>(id.value())},
                    {"attempt", static_cast<double>(attempt)},
                    {"kind", 2.0}});
  }
  // The worker holds the result and keeps retrying at capped backoff: the
  // task only completes once the broker hears about it.
  const int capped = std::min(attempt, config_.dependability.retry.max_attempts);
  const SimTime delay = retry_backoff(config_.dependability.retry, capped, rng_);
  net_.simulator().schedule_after(
      delay,
      [this, id, epoch, attempt] { attempt_result_send(id, epoch, attempt + 1); },
      "cloud.retry");
}

void VehicularCloud::dispatch() {
  if (net_.simulator().now() < dispatch_hold_until_) return;
  // Every pick reads views(): busy flags change within a round (assignment
  // and replication take workers, a dispatch send that exhausts its retries
  // frees one), while the dwell estimates stay memoized, since no simulated
  // time passes and no member joins or leaves inside a round.
  while (!pending_.empty()) {
    const TaskId tid = pending_.front();
    auto task_it = tasks_.find(tid.value());
    if (task_it == tasks_.end() || task_it->second.terminal()) {
      pending_.pop_front();
      continue;
    }
    Task& task = task_it->second;
    const VehicleId pick = scheduler_->pick(task, views(), rng_);
    if (!pick.valid()) return;  // no idle worker: stay queued
    auto worker_it = workers_.find(pick.value());
    if (worker_it == workers_.end() || worker_it->second.running.valid()) {
      return;  // scheduler picked a busy/gone worker: wait for refresh
    }
    pending_.pop_front();
    const SimTime queued = net_.simulator().now() - task.created;
    stats_.queue_delay.add(queued);
    stats_.queue_delay_tail.add(queued);
    assign(task, worker_it->second, pick, /*charge_input=*/true);
    maybe_replicate(task);
  }
}

void VehicularCloud::maybe_replicate(Task& task) {
  if (!config_.dependability.speculation.enabled || task.deadline <= 0.0) {
    return;
  }
  if (replicas_.find(task.id.value()) != replicas_.end()) return;
  if (!pending_.empty()) return;  // speculation must never starve the queue

  // Re-read: the primary's worker was just taken.
  const std::vector<WorkerView>& worker_views = views();
  std::size_t idle = 0;
  for (const WorkerView& w : worker_views) idle += w.busy ? 0 : 1;
  if (idle <= kMinSpareWorkers) return;

  const VehicleId pick = scheduler_->pick(task, worker_views, rng_);
  if (!pick.valid() || pick == task.worker) return;
  auto worker_it = workers_.find(pick.value());
  if (worker_it == workers_.end() || worker_it->second.running.valid()) return;

  const SimTime now = net_.simulator().now();
  WorkerState& worker = worker_it->second;
  ReplicaState replica;
  replica.worker = pick;
  replica.base_progress = task.progress;
  const SimTime input_delay =
      task.input_mb * 8.0 / std::max(worker.profile.bandwidth_mbps, 0.1);
  replica.run_started = now + input_delay;
  replica.epoch = next_replica_epoch_++;
  worker.running = task.id;
  replicas_[task.id.value()] = replica;
  ++stats_.replicas_launched;
  if (trace_ != nullptr) {
    trace_->record(now, obs::TraceCategory::kTask, "task.replica",
                   task.trace,
                   {{"task", static_cast<double>(task.id.value())},
                    {"worker", static_cast<double>(pick.value())}});
  }

  const SimTime exec =
      (task.work - replica.base_progress) / worker.profile.compute;
  const TaskId tid = task.id;
  const std::uint64_t epoch = replica.epoch;
  net_.simulator().schedule_after(
      input_delay + exec,
      [this, tid, epoch] { on_replica_complete(tid, epoch); }, "cloud.task");
}

// Work units a replica has produced by `now` (bounded by what it set out
// to compute).
double VehicularCloud::earned_by_replica(const ReplicaState& r,
                                         const ResourceProfile& profile,
                                         const Task& task, SimTime now) {
  if (now <= r.run_started) return 0.0;
  return std::min((now - r.run_started) * profile.compute,
                  task.work - r.base_progress);
}

void VehicularCloud::abort_replica(TaskId id) {
  auto rep = replicas_.find(id.value());
  if (rep == replicas_.end()) return;
  const ReplicaState replica = rep->second;
  replicas_.erase(rep);
  auto worker_it = workers_.find(replica.worker.value());
  if (worker_it == workers_.end() || !(worker_it->second.running == id)) {
    return;
  }
  auto task_it = tasks_.find(id.value());
  if (task_it != tasks_.end()) {
    stats_.redundant_work += earned_by_replica(
        replica, worker_it->second.profile, task_it->second,
        net_.simulator().now());
  }
  // A crashed holder stays "busy" — the cloud does not know it is gone.
  if (crashed_.count(replica.worker.value()) == 0) {
    worker_it->second.running = TaskId{};
  }
}

void VehicularCloud::on_replica_complete(TaskId id, std::uint64_t epoch) {
  auto rep = replicas_.find(id.value());
  if (rep == replicas_.end() || rep->second.epoch != epoch) return;
  const ReplicaState replica = rep->second;
  auto task_it = tasks_.find(id.value());
  if (task_it == tasks_.end()) {
    replicas_.erase(id.value());
    return;
  }
  Task& task = task_it->second;
  if (crashed_.count(replica.worker.value()) > 0) {
    // Computed into the void: a crashed worker cannot return its result.
    replicas_.erase(id.value());
    stats_.redundant_work += task.work - replica.base_progress;
    return;
  }
  replicas_.erase(id.value());
  const SimTime now = net_.simulator().now();
  if (task.terminal()) {
    auto worker_it = workers_.find(replica.worker.value());
    if (worker_it != workers_.end() && worker_it->second.running == id) {
      worker_it->second.running = TaskId{};
    }
    return;
  }

  // First finisher wins: the primary (if still assigned) lost the race and
  // its work is redundancy overhead.
  if (task.worker.valid() && task.worker != replica.worker) {
    auto primary_it = workers_.find(task.worker.value());
    if (primary_it != workers_.end()) {
      stats_.redundant_work += std::max(
          0.0,
          earned_progress(task, primary_it->second.profile, now) -
              task.progress);
      if (primary_it->second.running == id) {
        primary_it->second.running = TaskId{};
      }
    }
  }
  ++task_epoch_[id.value()];  // cancel the primary's completion event
  task.worker = replica.worker;
  task.state = TaskState::kRunning;
  finalize_completion(task);
}

void VehicularCloud::on_complete(TaskId id, std::uint64_t epoch) {
  auto it = tasks_.find(id.value());
  if (it == tasks_.end()) return;
  Task& task = it->second;
  if (task_epoch_[id.value()] != epoch) return;  // stale completion event
  if (task.state != TaskState::kRunning) return;
  // A crashed worker computes into the void: no result ever returns, and
  // without a failure detector nobody ever learns (§III's collapse case).
  if (crashed_.count(task.worker.value()) > 0) return;

  task.progress = task.work;
  if (config_.dependability.retry.enabled) {
    trace_open_leg(task, "leg.result");
    attempt_result_send(id, epoch, 1);
    return;
  }
  finalize_completion(task);
}

void VehicularCloud::finalize_completion(Task& task) {
  const SimTime now = net_.simulator().now();
  task.progress = task.work;
  task.completed_at = now;
  const bool late = task.deadline > 0.0 && now > task.deadline;
  // Last use of `task`: the terminal hook may submit follow-up tasks (DAG
  // children), rehashing tasks_ and invalidating the reference.
  retire(task, late ? TaskState::kExpired : TaskState::kCompleted, now);
  dispatch();
}

void VehicularCloud::retire(Task& task, TaskState state, SimTime now,
                            std::vector<TaskId>* deferred) {
  ++task_epoch_[task.id.value()];  // invalidate completion/migration events
  auto worker_it = workers_.find(task.worker.value());
  if (worker_it != workers_.end() && worker_it->second.running == task.id) {
    worker_it->second.running = TaskId{};
  }
  abort_replica(task.id);  // the losing replica, if one is still computing
  task.state = state;
  const double id = static_cast<double>(task.id.value());
  if (state == TaskState::kCompleted) {
    const SimTime latency = now - task.created;
    ++stats_.completed;
    stats_.latency.add(latency);
    stats_.latency_tail.add(latency);
    if (trace_ != nullptr) {
      trace_->record(now, obs::TraceCategory::kTask, "task.complete",
                     task.trace,
                     {{"task", id},
                      {"worker", static_cast<double>(task.worker.value())},
                      {"latency", latency}});
    }
    trace_task_end(task, obs::kOutcomeCompleted);
    if (flight_ != nullptr) {
      flight_->record(now, obs::FlightCategory::kTask, "task.complete",
                      task.id.value(), task.worker.value(), latency);
    }
  } else {
    ++stats_.expired;
    if (trace_ != nullptr) {
      trace_->record(now, obs::TraceCategory::kTask, "task.expire",
                     task.trace, {{"task", id}});
    }
    trace_task_end(task, obs::kOutcomeExpired);
    if (flight_ != nullptr) {
      flight_->record(now, obs::FlightCategory::kTask, "task.expire",
                      task.id.value(),
                      task.worker.valid() ? task.worker.value() : 0);
    }
  }
  if (oracle_ != nullptr) oracle_->on_terminal(task, now);
  if (!terminal_hook_) return;
  if (deferred != nullptr) {
    deferred->push_back(task.id);
  } else {
    terminal_hook_(task, now);
  }
}

void VehicularCloud::requeue(Task& task, TaskState state) {
  task.state = state;
  task.worker = VehicleId{};
  task.run_started = 0.0;
  if (state == TaskState::kPending ||
      seeded_bug_ != SeededBug::kCrashRequeue) {
    pending_.push_back(task.id);
  }  // else: the seeded bug — the crash-recovering task strands un-queued
  trace_open_leg(task, "leg.queue");
}

void VehicularCloud::interrupt_and_recover(Task& task,
                                           const WorkerState& departed) {
  const SimTime now = net_.simulator().now();
  // Progress earned so far on the departed worker — only when it was
  // actually executing. A task whose MIGRATION TARGET departed mid-transfer
  // is in kMigrating and earned nothing there (and its run_started still
  // refers to the previous worker).
  if (task.state == TaskState::kRunning && now > task.run_started) {
    task.progress = std::min(
        task.work, task.progress + (now - task.run_started) *
                                       departed.profile.compute);
  }
  ++task_epoch_[task.id.value()];  // invalidate the scheduled completion

  if (config_.handover.enabled) {
    // Migrate the encrypted checkpoint to the best idle member.
    const VehicleId target = scheduler_->pick(task, views(), rng_);
    auto target_it = target.valid() ? workers_.find(target.value())
                                    : workers_.end();
    if (target_it != workers_.end() && !target_it->second.running.valid()) {
      const SimTime latency =
          migration_latency(task, departed.profile, target_it->second.profile);
      task.state = TaskState::kMigrating;
      task.worker = target;
      ++task.migrations;
      ++stats_.migrations;
      target_it->second.running = task.id;  // reserve the target
      if (trace_ != nullptr) {
        trace_->record(now, obs::TraceCategory::kTask, "task.migrate",
                       task.trace,
                       {{"task", static_cast<double>(task.id.value())},
                        {"to", static_cast<double>(target.value())},
                        {"progress", task.progress}});
      }
      trace_open_leg(task, "leg.migrate",
                     {{"to", static_cast<double>(target.value())}});
      const TaskId tid = task.id;
      const std::uint64_t epoch = task_epoch_[tid.value()];
      net_.simulator().schedule_after(latency, [this, tid, epoch] {
        auto it = tasks_.find(tid.value());
        if (it == tasks_.end()) return;
        Task& t = it->second;
        if (task_epoch_[tid.value()] != epoch ||
            t.state != TaskState::kMigrating) {
          return;
        }
        auto w = workers_.find(t.worker.value());
        if (w == workers_.end()) {
          // Target vanished during the transfer: back to the queue with
          // progress preserved (the checkpoint still exists at the broker).
          requeue(t, TaskState::kPending);
          dispatch();
          return;
        }
        assign(t, w->second, t.worker, /*charge_input=*/false);
      });
      return;
    }
    // No target: keep the checkpoint, re-queue with progress preserved.
    requeue(task, TaskState::kPending);
    return;
  }

  // No handover: the paper's drop-and-recompute case. Periodic checkpoints
  // (when enabled) still provide a crash-survivable floor at the broker.
  const double resume = config_.dependability.checkpoint.enabled
                            ? std::min(task.checkpoint_progress, task.progress)
                            : 0.0;
  stats_.wasted_work += std::max(0.0, task.progress - resume);
  ++stats_.reallocations;
  task.progress = resume;
  requeue(task, TaskState::kPending);
}

void VehicularCloud::recover_from_crash(Task& task) {
  double resume = 0.0;
  if (task.state == TaskState::kMigrating) {
    // The in-flight checkpoint originated at the broker and survives the
    // target's loss.
    resume = task.progress;
  } else if (config_.dependability.checkpoint.enabled) {
    resume = std::min(task.checkpoint_progress, task.progress);
  }
  stats_.wasted_work += std::max(0.0, task.progress - resume);
  if (resume <= 0.0 && task.progress > 0.0) ++stats_.reallocations;
  task.progress = resume;
  // Ends the recover leg opened at the crash: the span's duration is the
  // crash -> declared-dead -> requeued detection latency.
  requeue(task, TaskState::kCrashRecovering);
}

void VehicularCloud::crash_worker(VehicleId v) {
  auto it = workers_.find(v.value());
  if (it == workers_.end() || crashed_.count(v.value()) > 0) return;
  const SimTime now = net_.simulator().now();
  crashed_.insert(v.value());
  crash_time_[v.value()] = now;

  if (!it->second.running.valid()) return;
  auto task_it = tasks_.find(it->second.running.value());
  if (task_it == tasks_.end() || task_it->second.terminal()) return;
  Task& task = task_it->second;
  auto rep = replicas_.find(task.id.value());
  if (rep != replicas_.end() && rep->second.worker == v) {
    // A crashed replica holder: its work to date is sunk redundancy. The
    // bookkeeping entry goes now (so the scheduled completion is inert);
    // the zombie worker itself stays until the detector notices.
    stats_.redundant_work +=
        earned_by_replica(rep->second, it->second.profile, task, now);
    replicas_.erase(rep);
    // If the primary was already lost (replica-inherit: kRunning with no
    // worker), the crashed replica was the task's ONLY executor — without
    // this requeue the task strands kRunning forever. Found by the chaos
    // oracle: broker crash kills the primary, a second broker crash lands
    // on the inheriting replica holder. The state check matters: a task
    // already re-queued (kPending/kCrashRecovering) must NOT be queued
    // again.
    if (task.state == TaskState::kRunning && !task.worker.valid()) {
      recover_from_crash(task);
    }
    return;
  }
  if (task.worker == v && task.state == TaskState::kRunning) {
    // Materialize the progress earned up to the crash instant so detection
    // latency does not credit work the dead worker never did.
    task.progress = earned_progress(task, it->second.profile, now);
    task.run_started = kNeverStarted;
    // The exec (or dispatch) leg dies with the worker; the recover leg runs
    // until the failure detector declares the zombie dead and requeues.
    trace_close_leg(task, {{"crashed", 1.0}});
    trace_open_leg(task, "leg.recover",
                   {{"worker", static_cast<double>(v.value())}});
  }
}

void VehicularCloud::handle_worker_loss(VehicleId v,
                                        const WorkerState& state,
                                        bool graceful) {
  if (!state.running.valid()) return;
  auto it = tasks_.find(state.running.value());
  if (it == tasks_.end() || it->second.terminal()) return;
  Task& task = it->second;
  const SimTime now = net_.simulator().now();

  auto rep = replicas_.find(task.id.value());
  if (rep != replicas_.end() && rep->second.worker == v) {
    // Lost a replica (departed or dead): discard its work; the primary
    // carries on. Only a replica-inherit task (kRunning, no worker) needs
    // the requeue — a task already back in the queue would end up queued
    // twice (chaos oracle).
    stats_.redundant_work +=
        earned_by_replica(rep->second, state.profile, task, now);
    replicas_.erase(rep);
    if (task.state == TaskState::kRunning && !task.worker.valid()) {
      recover_from_crash(task);  // it was the last executor
    }
    return;
  }
  if (task.worker != v) return;
  if (graceful) {
    interrupt_and_recover(task, state);
    return;
  }

  const double earned = earned_progress(task, state.profile, now);
  ++task_epoch_[task.id.value()];  // the primary's events are now stale
  if (replicas_.find(task.id.value()) != replicas_.end()) {
    // A replica is still computing: the dead primary's work is redundancy
    // and the replica inherits the task.
    stats_.redundant_work += std::max(0.0, earned - task.progress);
    task.worker = VehicleId{};
    task.run_started = kNeverStarted;
    return;
  }
  task.progress = earned;
  recover_from_crash(task);
}

void VehicularCloud::declare_dead(VehicleId v) {
  detector_.forget(v);
  auto it = workers_.find(v.value());
  if (it == workers_.end()) return;
  const SimTime now = net_.simulator().now();
  if (crashed_.erase(v.value()) > 0) {
    ++stats_.crash_kills;
    auto ct = crash_time_.find(v.value());
    if (ct != crash_time_.end()) {
      stats_.detection_latency.add(now - ct->second);
      if (trace_ != nullptr) {
        trace_->record(now, obs::TraceCategory::kCloud, "cloud.worker.dead",
                       {{"worker", static_cast<double>(v.value())},
                        {"crashed", 1.0},
                        {"latency", now - ct->second}});
      }
      if (flight_ != nullptr) {
        flight_->record(now, obs::FlightCategory::kDetector, "detector.evict",
                        v.value(), 1, now - ct->second);
      }
      crash_time_.erase(ct);
    }
  } else {
    if (trace_ != nullptr) {
      trace_->record(now, obs::TraceCategory::kCloud, "cloud.worker.dead",
                     {{"worker", static_cast<double>(v.value())},
                      {"crashed", 0.0}});
    }
    // The worker is alive — its beats were eaten by the channel. Killing
    // it anyway is the price of bounded detection latency.
    ++stats_.false_positive_kills;
    if (flight_ != nullptr) {
      flight_->record(now, obs::FlightCategory::kDetector, "detector.evict",
                      v.value(), 0);
    }
  }
  const WorkerState state = remove_worker(v);
  handle_worker_loss(v, state, /*graceful=*/false);
  dispatch();
}

void VehicularCloud::heartbeat_round() {
  if (!config_.dependability.detector.enabled) return;
  const SimTime now = net_.simulator().now();
  const VehicleId broker = broker_.current();
  if (!broker.valid()) return;
  // Sorted ids: heartbeat sends consume shared RNG, order must be stable.
  for (const VehicleId v : worker_ids()) {
    if (!detector_.tracked(v)) detector_.track(v, now);
    if (crashed_.count(v.value()) > 0) continue;  // dead radios do not beat
    if (v == broker) {
      detector_.observe(v, now);  // the broker trivially hears itself
      if (heartbeat_hook_) heartbeat_hook_(v, now);
      continue;
    }
    net::Message beat;
    beat.id = net_.next_message_id();
    beat.kind = net::MessageKind::kHeartbeat;
    beat.src = net::Address::vehicle(v);
    beat.dst = net::Address::vehicle(broker);
    beat.size_bytes = kHeartbeatBytes;
    if (net_.send(beat)) {
      detector_.observe(v, now);
      if (heartbeat_rtt_enabled_) {
        // Modeled round trip (beat + implicit ack) at the channel's hop
        // delay for this beat's size and the worker's local contention —
        // the same model bootstrap registration uses. Gated: the density
        // lookup is a spatial query undisturbed runs must not pay.
        const auto pos = net_.position_of(net::Address::vehicle(v));
        const std::size_t density =
            pos.has_value() ? net_.local_density(*pos) : 0;
        stats_.heartbeat_rtt_tail.add(
            2.0 * net_.channel().hop_delay(beat.size_bytes, density));
      }
      if (heartbeat_hook_) heartbeat_hook_(v, now);
    }
  }
  for (const VehicleId dead : detector_.sweep(now)) declare_dead(dead);
}

void VehicularCloud::checkpoint_round() {
  if (!config_.dependability.checkpoint.enabled) return;
  const SimTime now = net_.simulator().now();
  for (auto& [tid, task] : tasks_) {
    if (task.state != TaskState::kRunning || !task.worker.valid()) continue;
    if (crashed_.count(task.worker.value()) > 0) continue;  // silent worker
    auto worker_it = workers_.find(task.worker.value());
    if (worker_it == workers_.end()) continue;
    const double earned = earned_progress(task, worker_it->second.profile, now);
    if (earned <= task.checkpoint_progress) continue;
    task.checkpoint_progress = earned;
    ++stats_.checkpoints;
    if (trace_ != nullptr) {
      trace_->record(now, obs::TraceCategory::kCloud, "cloud.ckpt",
                     task.trace,
                     {{"task", static_cast<double>(tid)},
                      {"progress", earned}});
    }
    // Cost accounting reuses the handover checkpoint model: the snapshot
    // shipped to the broker grows with completed work.
    Task snapshot = task;
    snapshot.progress = earned;
    stats_.checkpoint_mb += checkpoint_mb(snapshot);
  }
}

void VehicularCloud::refresh() {
  const SimTime now = net_.simulator().now();
  const std::vector<VehicleId> members = membership_fn_();
  std::unordered_map<std::uint64_t, bool> present;
  for (const VehicleId v : members) present[v.value()] = true;

  // Departures first: their tasks need recovery before dispatch reuses the
  // freed capacity. Crashed workers are NOT departures — nobody told the
  // cloud they left; they stay as zombies until the failure detector (if
  // any) declares them dead.
  std::vector<std::uint64_t> departed;
  for (const auto& [vid, w] : workers_) {
    if (present.find(vid) != present.end()) continue;
    if (crashed_.count(vid) > 0) continue;
    departed.push_back(vid);
  }
  for (const std::uint64_t vid : departed) {
    const VehicleId v{vid};
    const WorkerState state = remove_worker(v);
    detector_.forget(v);
    if (trace_ != nullptr) {
      trace_->record(now, obs::TraceCategory::kCloud, "cloud.member.leave",
                     {{"worker", static_cast<double>(vid)},
                      {"members", static_cast<double>(workers_.size())}});
    }
    handle_worker_loss(v, state, /*graceful=*/true);
  }

  // Arrivals. With admission control wired, refresh consults the RSU-side
  // CRL view: a revoked-and-visible identity never re-enters membership.
  for (const VehicleId v : members) {
    if (workers_.find(v.value()) != workers_.end()) continue;
    const mobility::VehicleState* s = net_.traffic().find(v);
    if (s == nullptr) continue;
    if (admission_ != nullptr && !admission_->allow_arrival(v, now)) continue;
    add_worker(v, profile_for(s->automation));
    detector_.track(v, now);
    if (trace_ != nullptr) {
      trace_->record(now, obs::TraceCategory::kCloud, "cloud.member.join",
                     {{"worker", static_cast<double>(v.value())},
                      {"members", static_cast<double>(workers_.size())}});
    }
  }

  // Revocation eviction sweep: a member whose fresh CRL entry became
  // visible to the RSUs is evicted NOW — before broker election, so a
  // revoked broker is replaced in the same round. Held work re-queues
  // through the ordinary loss path (requeue, replica-inherit, checkpoint
  // floor), not lost.
  if (admission_ != nullptr) {
    for (const VehicleId v : worker_ids()) {
      const std::uint64_t vid = v.value();
      if (!admission_->should_evict(v, now)) continue;
      const WorkerState state = remove_worker(v);
      detector_.forget(v);
      crashed_.erase(vid);
      crash_time_.erase(vid);
      admission_->note_evicted(v, now);
      if (trace_ != nullptr) {
        trace_->record(now, obs::TraceCategory::kCloud,
                       "cloud.member.revoked",
                       {{"worker", static_cast<double>(vid)},
                        {"members", static_cast<double>(workers_.size())}});
      }
      if (seeded_bug_ != SeededBug::kRevokedRequeue) {
        handle_worker_loss(v, state, /*graceful=*/false);
      }  // else: the seeded bug — the held task strands kRunning
    }
  }

  // Broker re-election. A change means the new broker must re-sync the
  // queued/running task metadata: dispatch pauses for the configured
  // window and every worker gets a fresh heartbeat grace period.
  const VehicleId prev_broker = broker_.current();
  broker_.elect(views());
  if (prev_broker.valid() && broker_.current() != prev_broker) {
    ++stats_.broker_resyncs;
    if (trace_ != nullptr) {
      trace_->record(now, obs::TraceCategory::kCloud, "cloud.broker.change",
                     {{"from", static_cast<double>(prev_broker.value())},
                      {"to", static_cast<double>(broker_.current().value())}});
    }
    detector_.reset_all(now);
    const SimTime delay = config_.dependability.broker_resync_delay;
    if (delay > 0.0) {
      dispatch_hold_until_ = std::max(dispatch_hold_until_, now + delay);
      net_.simulator().schedule_after(delay, [this] { dispatch(); },
                                      "cloud.dispatch");
    }
  }

  // Expire pending tasks past their deadlines. Terminal-hook calls are
  // deferred past both expiry loops: the hook may submit follow-up tasks
  // (DAG children), which would invalidate the deque/map iterators here.
  // A queued entry can already be terminal (a replica completed the task
  // after it was re-queued); dispatch reaps it, it must not expire twice.
  std::vector<TaskId> reaped;
  for (auto it = pending_.begin(); it != pending_.end();) {
    auto task_it = tasks_.find(it->value());
    if (task_it != tasks_.end() && !task_it->second.terminal() &&
        task_it->second.deadline > 0.0 && now > task_it->second.deadline) {
      retire(task_it->second, TaskState::kExpired, now, &reaped);
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  // Abort running/migrating tasks past their deadlines: finishing them
  // late has no value and blocks the worker.
  for (auto& [tid, task] : tasks_) {
    if ((task.state == TaskState::kRunning ||
         task.state == TaskState::kMigrating) &&
        task.deadline > 0.0 && now > task.deadline) {
      retire(task, TaskState::kExpired, now, &reaped);
    }
  }
  for (const TaskId id : reaped) {
    const auto task_it = tasks_.find(id.value());
    if (task_it != tasks_.end()) terminal_hook_(task_it->second, now);
  }

  dispatch();
  // Post-round maintenance (storage lease bookkeeping + repair) runs after
  // membership and dispatch settle but before the oracle scan, so its
  // invariants (leases ⊆ membership) are quiesced by check time.
  if (refresh_hook_) refresh_hook_(now);
  // End-of-round scan: membership, broker election and deadline reaping
  // have all quiesced — this is the instant the structural invariants are
  // contractually true.
  if (oracle_ != nullptr) oracle_->check(*this, now);
}

bool VehicularCloud::offer_join(VehicleId v, bool fabricated) {
  const SimTime now = net_.simulator().now();
  if (workers_.find(v.value()) != workers_.end()) return true;
  if (admission_ != nullptr &&
      admission_->offer_claim(v, fabricated, now) !=
          AdmissionControl::ClaimOutcome::kAdmitted) {
    return false;  // quarantined or rejected: capacity, not correctness
  }
  const mobility::VehicleState* s = net_.traffic().find(v);
  // A fabricated identity has no vehicle behind it; the forged join
  // advertises a baseline profile.
  add_worker(v, s != nullptr
                    ? profile_for(s->automation)
                    : profile_for(mobility::AutomationLevel::kNoAutomation));
  detector_.track(v, now);
  if (trace_ != nullptr) {
    trace_->record(now, obs::TraceCategory::kCloud, "cloud.member.join",
                   {{"worker", static_cast<double>(v.value())},
                    {"claimed", 1.0},
                    {"members", static_cast<double>(workers_.size())}});
  }
  return true;
}

void VehicularCloud::replayed_heartbeat(VehicleId v) {
  auto it = workers_.find(v.value());
  if (it == workers_.end()) return;
  const SimTime now = net_.simulator().now();
  // The replayed beat is indistinguishable from a genuine one past the
  // (bypassed) freshness gate: it refreshes detector liveness — keeping a
  // crashed zombie off the detector's books — and fires the heartbeat hook
  // (lease renewals), exactly the §IV harm.
  if (detector_.tracked(v)) detector_.observe(v, now);
  if (heartbeat_hook_) heartbeat_hook_(v, now);
}

bool VehicularCloud::worker_in_traffic(VehicleId v) const {
  return net_.traffic().find(v) != nullptr;
}

void VehicularCloud::register_metrics(obs::MetricsRegistry& metrics) {
  metrics.gauge("cloud.member.count",
                [this] { return static_cast<double>(workers_.size()); });
  metrics.gauge("cloud.task.pending",
                [this] { return static_cast<double>(pending_.size()); });
  metrics.gauge("cloud.task.submitted",
                [this] { return static_cast<double>(stats_.submitted); });
  metrics.gauge("cloud.task.completed",
                [this] { return static_cast<double>(stats_.completed); });
  metrics.gauge("cloud.task.expired",
                [this] { return static_cast<double>(stats_.expired); });
  metrics.gauge("cloud.task.retries",
                [this] { return static_cast<double>(stats_.retries); });
  metrics.gauge("cloud.broker.changes",
                [this] { return static_cast<double>(broker_.changes()); });
  metrics.gauge("cloud.work.wasted", [this] { return stats_.wasted_work; });
  metrics.gauge("cloud.detect.latency_mean",
                [this] { return stats_.detection_latency.mean(); });
  metrics.gauge("cloud.queue.delay_mean",
                [this] { return stats_.queue_delay.mean(); });
  // Tail sketches: sampled as .count/.p50/.p99/.p999 columns and exported
  // in full to sketches.json.
  metrics.sketch_view("cloud.task.e2e", stats_.latency_tail);
  metrics.sketch_view("cloud.queue.delay", stats_.queue_delay_tail);
  metrics.sketch_view("cloud.heartbeat.rtt", stats_.heartbeat_rtt_tail);
  heartbeat_rtt_enabled_ = true;
}

// ---- architecture factories --------------------------------------------------

VehicularCloud::MembershipFn stationary_membership(
    const mobility::TrafficModel& traffic, geo::Vec2 center, double radius) {
  return [&traffic, center, radius] {
    std::vector<VehicleId> out;
    for (const auto& [vid, v] : traffic.vehicles()) {
      if (v.parked && geo::distance(v.pos, center) <= radius) {
        out.push_back(v.id);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  };
}

VehicularCloud::RegionFn fixed_region(geo::Vec2 center, double radius) {
  return [center, radius] { return CloudRegion{center, radius}; };
}

VehicularCloud::MembershipFn rsu_membership(const net::Network& net,
                                            RsuId rsu) {
  return [&net, rsu] {
    std::vector<VehicleId> out;
    const net::Rsu* r = net.rsus().find(rsu);
    if (r == nullptr || !r->online) return out;
    for (const auto& [vid, v] : net.traffic().vehicles()) {
      if (geo::distance(v.pos, r->pos) <= r->range) out.push_back(v.id);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
}

VehicularCloud::RegionFn rsu_region(const net::Network& net, RsuId rsu) {
  return [&net, rsu] {
    const net::Rsu* r = net.rsus().find(rsu);
    if (r == nullptr || !r->online) return CloudRegion{{0, 0}, 0.0};
    return CloudRegion{r->pos, r->range};
  };
}

namespace {

// The largest cluster's members; on a size tie the lowest head id wins
// (max_element keeps the first maximum). Null when there is no cluster.
const std::vector<VehicleId>* largest_cluster(
    const cluster::ClusterManager& manager) {
  const cluster::ClusterList& all = manager.clusters();
  const auto best = std::max_element(
      all.begin(), all.end(), [](const auto& a, const auto& b) {
        return a.second.size() < b.second.size();
      });
  return best == all.end() ? nullptr : &best->second;
}

}  // namespace

VehicularCloud::MembershipFn largest_cluster_membership(
    const cluster::ClusterManager& manager) {
  return [&manager] {
    const std::vector<VehicleId>* members = largest_cluster(manager);
    return members == nullptr ? std::vector<VehicleId>{} : *members;
  };
}

VehicularCloud::RegionFn largest_cluster_region(
    const mobility::TrafficModel& traffic,
    const cluster::ClusterManager& manager, double radius) {
  // The centroid reads the largest cluster's member list (fixed between
  // cluster-generation bumps) and those members' positions (fixed between
  // traffic-epoch bumps), so the pair keys it completely.
  struct Memo {
    bool valid = false;
    std::uint64_t epoch = 0;
    std::uint64_t generation = 0;
    CloudRegion region;
  };
  return [&traffic, &manager, radius, memo = Memo{}]() mutable {
    if (memo.valid && memo.epoch == traffic.epoch() &&
        memo.generation == manager.generation()) {
      return memo.region;
    }
    memo.valid = true;
    memo.epoch = traffic.epoch();
    memo.generation = manager.generation();
    memo.region = CloudRegion{{0, 0}, 0.0};
    const std::vector<VehicleId>* members = largest_cluster(manager);
    if (members == nullptr) return memo.region;
    geo::Vec2 centroid;
    std::size_t n = 0;
    for (const VehicleId v : *members) {
      const mobility::VehicleState* s = traffic.find(v);
      if (s == nullptr) continue;
      centroid += s->pos;
      ++n;
    }
    if (n > 0) {
      memo.region = CloudRegion{centroid / static_cast<double>(n), radius};
    }
    return memo.region;
  };
}

}  // namespace vcl::vcloud
