#!/usr/bin/env python3
"""Host-time benchmark of the vcl simulator and cloud control plane.

Builds perfbench/ (the vcl libraries from src/ plus the C++ runner in
runner.cpp) into .bench_build, runs one workload in a fresh process, checks
its correctness fingerprint and prints its metrics. The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all --trace 0|1   # each in turn
  python3 perfbench/run.py --self-test                  # short smoke run
  python3 perfbench/run.py --pin --workload NAME --seed N [--horizon H]

--trace 0 reports the end-to-end metrics of BENCHMARK.json from untraced
repetitions; --trace 1 alternates untraced and traced repetitions and
reports the per-layer metrics. Every timing is host time. --pin records
the fingerprint of (workload, horizon, seed) in fingerprints.json.

Correctness is self-consistency, since the model is unvalidated against
real vehicles: every repetition, traced or not, must digest its simulated
statistics to the same fingerprint, equal to the pinned one when the seed
is pinned, with counters matching the submitted load and no invariant
violations. "attempted" counts the operations the workload submitted
(tasks, storage operations, task graphs); "failed" counts all of them when
correctness fails and none otherwise. Failures the fault model causes on
purpose show in ok_ratio instead.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["dynamic_batch", "city_infra_large", "lot_dependable_services"]
# Short horizons (simulated seconds) for --self-test.
SMOKE_HORIZON = {"dynamic_batch": 8, "city_infra_large": 4,
                 "lot_dependable_services": 40}
FINGERPRINTS = HERE / "fingerprints.json"
LAYERS = HERE / "layers.json"

# Per-layer metrics read straight from the kernel profile: label, field.
PROFILE_METRICS = {
    "mobility.step_s": ("mobility.step", "wall_s"),
    "mobility.step_events": ("mobility.step", "events"),
    "mobility.spawn_s": ("mobility.spawn", "wall_s"),
    "net.beacon_s": ("net.beacon", "wall_s"),
    "net.deliver_s": ("net.deliver", "wall_s"),
    "net.deliver_events": ("net.deliver", "events"),
    "cluster.update_s": ("cluster.update", "wall_s"),
    "vcloud.refresh_s": ("cloud.refresh", "wall_s"),
    "vcloud.task_s": ("cloud.task", "wall_s"),
    "vcloud.dispatch_s": ("cloud.dispatch", "wall_s"),
    "vcloud.heartbeat_s": ("cloud.heartbeat", "wall_s"),
    "vcloud.retry_s": ("cloud.retry", "wall_s"),
    "vcloud.checkpoint_s": ("cloud.checkpoint", "wall_s"),
    "dag.check_s": ("dag.check", "wall_s"),
    "fault.event_s": ("fault.event", "wall_s"),
    "fault.events": ("fault.event", "events"),
}
# Per-call timings: metric prefix, runner call series.
CALL_METRICS = {
    "core.submit_workload_ms": "submit_workload_ms",
    "vcloud.submit_us": "submit_us",
    "storage.put_us": "put_us",
    "storage.get_us": "get_us",
    "dag.submit_graph_us": "submit_graph_us",
}
UNLABELED = "(unlabeled)"


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


# --- build --------------------------------------------------------------------

def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def cache_value(cache, key):
    for line in cache.read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def build():
    """Configures once, builds the runner, returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no vcl sources under {ROOT / 'src'}; run from a full checkout")
    out = build_dir()
    cache = out / "CMakeCache.txt"
    if not cache.is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    flags = " ".join(cache_value(cache, k) for k in (
        "CMAKE_CXX_FLAGS", "CMAKE_EXE_LINKER_FLAGS",
        "CMAKE_CXX_FLAGS_" + cache_value(cache, "CMAKE_BUILD_TYPE").upper()))
    if "-fsanitize" in flags:
        fail(f"refusing to time a sanitizer build ({out})", 3)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    cmd = ["cmake", "--build", str(out), "--target", "vcl_perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return out / "vcl_perfbench"


def run_binary(binary, workload, seed, seconds, trace, horizon=None):
    """One workload in a fresh process; returns the runner's JSON."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if horizon is not None:
        cmd += ["--horizon", str(horizon)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail(f"{workload}: runner exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --- correctness ----------------------------------------------------------------

def load_json(path):
    return json.loads(path.read_text()) if path.is_file() else {}


def horizon_key(horizon):
    return f"{horizon:g}"


def pinned_digest(run):
    table = load_json(FINGERPRINTS)
    return (table.get(run["workload"], {})
            .get(horizon_key(run["horizon"]), {})
            .get(str(run["seed"])))


def verdict(run, check_pin=True):
    """(correct, one-line verdict) for a run's repetitions."""
    reps = run["reps"]
    problems = sorted({p for r in reps for p in r["problems"]})
    if problems:
        return False, "FAIL: " + "; ".join(problems)
    digests = {r["digest"] for r in reps}
    if len(digests) != 1:
        kinds = {("traced" if r["traced"] else "untraced") + " " + r["digest"]
                 for r in reps}
        return False, "FAIL: repetitions disagree: " + ", ".join(sorted(kinds))
    digest = digests.pop()
    pinned = pinned_digest(run) if check_pin else None
    if pinned is None:
        return True, f"{digest} (seed not pinned; all repetitions agree)"
    if pinned != digest:
        return False, f"FAIL: {digest} differs from pinned {pinned}"
    return True, f"{digest} matches the pinned fingerprint"


def attempted(run):
    return sum(r["load"]["tasks"] + r["load"]["puts"] + r["load"]["gets"]
               + r["load"]["graphs"] for r in run["reps"])


# --- metrics --------------------------------------------------------------------

def percentile(xs, q):
    """Nearest-rank percentile, q in [0, 100]; 0 for no samples."""
    if not xs:
        return 0.0
    xs = sorted(xs)
    return xs[max(0, math.ceil(q / 100 * len(xs)) - 1)]


def step_tail(steps):
    """Highest percentile with at least ten steps beyond it: (value, p)."""
    xs = sorted(steps)
    k = max(0, len(xs) - 11)
    return xs[k], 100.0 * (k + 1) / len(xs)


def step_floor(reps):
    """Each step's fastest wall time over the repetitions, in ms.

    Every repetition of a run replays the same simulated work step by step,
    and a busy host only ever adds time, so a step's fastest time is its
    cost on a quiet host. On a shared host, medians over repetitions spread
    by up to 40% across ten runs, and step floors by 4-11%.
    """
    return [min(col) for col in zip(*(r["step_ms"] for r in reps))]


def ok_ratio(rep):
    """Share of submitted operations that did not fail or expire."""
    s = rep["stats"]
    load = rep["load"]
    ops = (s["cloud.submitted"] + load["puts"] + load["gets"]
           + s.get("dag.graphs_submitted", 0))
    failed = (s["cloud.failed"] + s["cloud.expired"]
              + s.get("storage.writes_failed", 0)
              + s.get("storage.reads_failed", 0)
              + s.get("dag.graphs_failed", 0))
    return 1.0 - failed / ops


def end_to_end(run):
    if run["peak_rss_kb"] <= 0:
        fail("the runner could not read its peak RSS from /proc/self/status")
    reps = [r for r in run["reps"] if not r["traced"]]
    setups = [r["construct_s"] + r["start_s"] + r["install_s"] for r in reps]
    floor = step_floor(reps)
    tail, p = step_tail(floor)
    notes = {
        "step_tail_ms": f"p{p:.1f} of {len(floor)} step floors of "
                        f"{run['step']:g} sim-s",
        "setup_s": f"median of {len(setups) + len(run['setups_s'])} set-ups",
        "sim_rate": f"{run['horizon']:g} sim-s over the sum of step floors, "
                    f"{len(reps)} repetitions",
    }
    values = {
        "setup_s": statistics.median(setups + run["setups_s"]),
        "sim_rate": run["horizon"] / (sum(floor) / 1e3),
        "step_tail_ms": tail,
        "peak_rss_mb": run["peak_rss_kb"] / 1024.0,
        "ok_ratio": ok_ratio(reps[0]),
    }
    return values, notes


def per_layer(run):
    untraced = [r for r in run["reps"] if not r["traced"]]
    traced = [r for r in run["reps"] if r["traced"]]

    def med(fn):
        return statistics.median(fn(r) for r in traced)

    def label(r, name, field):
        return r["profile"].get(name, {}).get(field, 0)

    def stat(r, name):
        return r["stats"].get(name, 0)

    def labelled_wall(r):
        return sum(e["wall_s"] for k, e in r["profile"].items()
                   if k != UNLABELED)

    values = {
        "core.construct_s": med(lambda r: r["construct_s"]),
        "core.start_s": med(lambda r: r["start_s"]),
        "sim.events": med(lambda r: r["events"]),
        "sim.events_per_s": med(lambda r: r["events"] / r["run_s"]),
        "sim.queue_high_water": med(lambda r: r["queue_high_water"]),
        "sim.self_s": med(lambda r: r["run_s"] - labelled_wall(r)),
        "sim.unlabeled_s": med(lambda r: label(r, UNLABELED, "wall_s")),
        "sim.trace_overhead": (
            statistics.median(r["run_s"] for r in traced)
            / statistics.median(r["run_s"] for r in untraced) - 1.0),
        "net.broadcast_receptions": med(
            lambda r: stat(r, "net.broadcast_receptions")),
        "net.unicast_sent": med(lambda r: stat(r, "net.unicast_sent")),
        "net.dropped": med(lambda r: stat(r, "net.dropped")),
        "vcloud.members_mean": med(lambda r: r["members_mean"]),
        "vcloud.completed": med(lambda r: stat(r, "cloud.completed")),
        "vcloud.completion_ratio": med(
            lambda r: stat(r, "cloud.completed") / stat(r, "cloud.submitted")
            if stat(r, "cloud.submitted") else 0.0),
        "vcloud.retries": med(lambda r: stat(r, "cloud.retries")),
        "vcloud.wall_share": med(
            lambda r: layer_walls(r).get("vcloud", 0.0) / r["run_s"]),
        "storage.write_ack_ratio": med(
            lambda r: stat(r, "storage.writes_acked") / r["load"]["puts"]
            if r["load"]["puts"] else 0.0),
        "storage.reads_degraded": med(
            lambda r: stat(r, "storage.reads_degraded")),
        "storage.repair_copies": med(
            lambda r: stat(r, "storage.repair_copies")),
        "dag.useful_attempt_ratio": med(
            lambda r: stat(r, "dag.nodes_succeeded")
            / stat(r, "dag.nodes_submitted")
            if stat(r, "dag.nodes_submitted") else 0.0),
        "dag.graphs_failed": med(lambda r: stat(r, "dag.graphs_failed")),
        "oracle.checks": med(lambda r: stat(r, "oracle.checks")),
        "oracle.violations": med(lambda r: stat(r, "oracle.violations")),
    }
    for metric, (name, field) in PROFILE_METRICS.items():
        values[metric] = med(lambda r: label(r, name, field))
    notes = {}
    for prefix, series in CALL_METRICS.items():
        samples = [x for r in traced for x in r["calls"][series]]
        for q in (50, 99):
            values[f"{prefix}_p{q}"] = percentile(samples, q)
        notes[f"{prefix}_p50"] = f"{len(samples)} calls"
        notes[f"{prefix}_p99"] = f"{len(samples)} calls"
    notes["sim.trace_overhead"] = (f"{len(traced)} traced vs "
                                   f"{len(untraced)} untraced repetitions")
    return values, notes


def layer_walls(r):
    """Wall seconds of one traced repetition by layer.

    Kernel labels map to layers by prefix ("cloud." is vcloud); the runner's
    timed public calls move out of its own "bench." arrival events into the
    layer they call; "sim" is kernel self time outside any event handler.
    """
    walls = {}
    for name, entry in r["profile"].items():
        layer = name.split(".")[0] if name != UNLABELED else "unlabeled"
        layer = {"cloud": "vcloud"}.get(layer, layer)
        walls[layer] = walls.get(layer, 0.0) + entry["wall_s"]
    calls = r["calls"]
    moved = {"vcloud": sum(calls["submit_us"]) / 1e6
             + sum(calls["submit_workload_ms"]) / 1e3,
             "storage": (sum(calls["put_us"]) + sum(calls["get_us"])) / 1e6,
             "dag": sum(calls["submit_graph_us"]) / 1e6}
    for layer, wall in moved.items():
        walls[layer] = walls.get(layer, 0.0) + wall
        walls["bench"] = walls.get("bench", 0.0) - wall
    walls["sim"] = r["run_s"] - sum(e["wall_s"] for e in r["profile"].values())
    return walls


def layer_shares(run):
    """Share of run wall per layer, median over traced repetitions."""
    traced = [r for r in run["reps"] if r["traced"]]
    walls = [layer_walls(r) for r in traced]
    layers = sorted({k for w in walls for k in w})
    return {k: statistics.median(w.get(k, 0.0) / r["run_s"]
                                 for w, r in zip(walls, traced))
            for k in layers}


# --- reporting ------------------------------------------------------------------

def spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    return json.loads(path.read_text())


def select(values, notes, declared):
    """Declared metrics with their units; a missing one is an error."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        fail("metrics not computed: " + ", ".join(missing))
    rows = []
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        rows.append(f"  {m['name']:<28} {values[m['name']]:>14.6g} "
                    f"{m['unit']:<9} {notes.get(m['name'], '')}".rstrip())
    return metrics, rows


def report(run, trace, bench):
    correct, line = verdict(run)
    host = run["host"]
    print(f"{run['workload']} seed {run['seed']}: {len(run['reps'])} "
          f"repetitions of {run['horizon']:g} sim-s; host nproc="
          f"{host['nproc']} compiler={host['compiler']} "
          f"build={host['build_type']}")
    print(f"  fingerprint {line}")
    if trace:
        values, notes = per_layer(run)
        metrics, rows = select(values, notes, bench["per_layer"])
        print("\n".join(rows))
        print("  wall share by layer (traced):")
        for k, v in sorted(layer_shares(run).items(), key=lambda kv: -kv[1]):
            print(f"    {k:<12} {100 * v:6.2f}%")
    else:
        values, notes = end_to_end(run)
        metrics, rows = select(values, notes, bench["end_to_end"])
        print("\n".join(rows))
    n = attempted(run)
    result = {"correct": correct, "attempted": n,
              "failed": 0 if correct else n, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return correct


def self_test(binary, bench):
    """Smoke run of every workload: metrics, units, fingerprints, inertness."""
    ok = True
    table = load_json(LAYERS)
    uncovered = [m["name"] for m in bench["per_layer"]
                 if table.get("metrics", {}).get(m["name"])
                 not in table.get("layers", {})]
    if uncovered:
        ok = False
        print("FAIL layers.json has no prediction for: " + ", ".join(uncovered))
    for workload in WORKLOADS:
        run = run_binary(binary, workload, 42, 0, True,
                         SMOKE_HORIZON[workload])
        checks = []
        correct, line = verdict(run)
        checks.append((correct and pinned_digest(run) is not None,
                       "fingerprint pinned and matched: " + line))
        kinds = {r["traced"]: r["digest"] for r in run["reps"]}
        checks.append((len(kinds) == 2 and len(set(kinds.values())) == 1,
                       "traced and untraced digests agree"))
        for declared, (values, _) in ((bench["end_to_end"], end_to_end(run)),
                                      (bench["per_layer"], per_layer(run))):
            metrics, _ = select(values, {}, declared)
            good = all(isinstance(v["value"], (int, float))
                       and math.isfinite(v["value"]) and v["unit"]
                       for v in metrics.values())
            checks.append((good, f"{len(metrics)} metrics print with units"))
        for good, what in checks:
            print(f"{'PASS' if good else 'FAIL'} {workload}: {what}")
            ok = ok and good
    print("self-test " + ("passed" if ok else "FAILED"))
    return ok


def pin(binary, workload, seed, horizon):
    run = run_binary(binary, workload, seed, 0, False, horizon)
    correct, line = verdict(run, check_pin=False)
    if not correct:
        fail(f"{workload}: {line}", 1)
    digest = run["reps"][0]["digest"]
    table = load_json(FINGERPRINTS)
    table.setdefault(workload, {}).setdefault(
        horizon_key(run["horizon"]), {})[str(seed)] = digest
    FINGERPRINTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"pinned {workload} horizon {run['horizon']:g} seed {seed}: {digest}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--horizon", type=float,
                        help="simulated seconds per repetition "
                             "(default: the workload's own)")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args()

    bench = spec()
    binary = build()
    if args.self_test:
        sys.exit(0 if self_test(binary, bench) else 1)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if args.pin:
        for workload in workloads:
            pin(binary, workload, args.seed, args.horizon)
        return
    correct = True
    for workload in workloads:
        run = run_binary(binary, workload, args.seed, args.seconds,
                         args.trace == 1, args.horizon)
        correct = report(run, args.trace == 1, bench) and correct
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
