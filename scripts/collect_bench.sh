#!/usr/bin/env bash
# Runs the figure-reproducing benches with --json and aggregates their
# vcl-bench-v1 documents into one BENCH_summary.json:
#
#   scripts/collect_bench.sh [--jobs N] [--reps N] [build_dir] [out_file]
#
# Defaults: build_dir=build, out_file=BENCH_summary.json, jobs=1, reps
# unset (each bench keeps its single-replication default). --jobs runs that
# many bench PROCESSES concurrently; --reps is passed through to every bench
# (each then reports mean ±95% CI cells). Every document is validated
# against the shared schema (schema/bench/scalars/tables keys, rectangular
# rows, well-formed {mean, ci95, n} stat cells) before it is merged.
#
# A missing binary, a bench exiting nonzero, or a malformed document fails
# the script with a nonzero exit — CI must never ship a partial summary.
set -euo pipefail

JOBS=1
REPS=""
positional=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --jobs)
      JOBS="${2:?--jobs needs a value}"
      shift 2
      ;;
    --reps)
      REPS="${2:?--reps needs a value}"
      shift 2
      ;;
    --help|-h)
      sed -n '2,15p' "$0"
      exit 0
      ;;
    *)
      positional+=("$1")
      shift
      ;;
  esac
done
BUILD_DIR="${positional[0]:-build}"
OUT="${positional[1]:-BENCH_summary.json}"

# The paper-figure benches plus the dependability experiment: the set CI
# tracks over time. Add a bench here once it matters for a figure.
# bench_crypto_micro reports wall-clock timings; since it repeats each
# benchmark (--reps, default 5) its cells carry {mean, ci95, n} stats, so
# bench_diff.py applies CI-overlap instead of exact comparison. Across
# truly unlike hardware --skip-bench bench_crypto_micro still applies. It
# runs each repetition for 0.05 s instead of google-benchmark's default
# 0.5 s: the summary tracks its cells across runs, and the default made it
# the longest bench of the collection by far.
BENCHES=(
  bench_fig1_resource_pool
  bench_fig2_cloud_comparison
  bench_fig3_secure_pipeline
  bench_fig4_architectures
  bench_fig5_auth_protocols
  bench_dependability
  bench_file_replication
  bench_crypto_micro
  bench_dag_workloads
  bench_adversary
)

if [[ ! -d "$BUILD_DIR" ]]; then
  echo "error: build dir '$BUILD_DIR' not found (run cmake first)" >&2
  exit 1
fi

# Fail fast on missing binaries BEFORE spending time running anything.
for bench in "${BENCHES[@]}"; do
  if [[ ! -x "$BUILD_DIR/bench/$bench" ]]; then
    echo "error: $BUILD_DIR/bench/$bench not built" >&2
    exit 1
  fi
done

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

extra_flags=()
if [[ -n "$REPS" ]]; then
  extra_flags+=(--reps "$REPS")
fi

# Launch each bench (at most $JOBS at a time), then reap every pid and fail
# on the first nonzero exit. Benches are independent processes, so this is
# safe concurrency regardless of each bench's internal --jobs setting.
pids=()
for bench in "${BENCHES[@]}"; do
  # Poll rather than `wait -n`: polling leaves every job un-reaped so the
  # collection loop below can read each bench's own exit status.
  while [[ "$(jobs -rp | wc -l)" -ge "$JOBS" ]]; do
    sleep 0.2
  done
  echo "running $bench ..." >&2
  bench_flags=("${extra_flags[@]}")
  if [[ "$bench" == bench_crypto_micro ]]; then
    bench_flags+=(--benchmark_min_time=0.05)
  fi
  "$BUILD_DIR/bench/$bench" --json "$tmpdir/$bench.json" \
    "${bench_flags[@]}" > "$tmpdir/$bench.log" 2>&1 &
  pids+=("$!")
done

failed=""
for i in "${!BENCHES[@]}"; do
  if ! wait "${pids[$i]}"; then
    echo "error: ${BENCHES[$i]} exited nonzero; log follows" >&2
    cat "$tmpdir/${BENCHES[$i]}.log" >&2 || true
    failed=1
  fi
done
if [[ -n "$failed" ]]; then
  exit 1
fi

python3 - "$tmpdir" "$OUT" "${BENCHES[@]}" <<'PY'
import json
import sys

tmpdir, out = sys.argv[1], sys.argv[2]
benches = sys.argv[3:]


def check_cell(bench, title, cell):
    """A cell is a plain number, a string, a {mean, ci95, n} stat object,
    or a {p50, p99, p999, n} tail object (quantile-sketch percentiles,
    emitted at any rep count since the sketch pools observations)."""
    if isinstance(cell, dict):
        if set(cell) == {"p50", "p99", "p999", "n"}:
            if not isinstance(cell["n"], int) or cell["n"] < 1:
                sys.exit(f"error: {bench}: tail cell with n={cell['n']!r} "
                         f"in table {title!r}")
            return
        if set(cell) != {"mean", "ci95", "n"}:
            sys.exit(f"error: {bench}: bad stat cell keys {sorted(cell)} "
                     f"in table {title!r}")
        if not isinstance(cell["n"], int) or cell["n"] < 2:
            sys.exit(f"error: {bench}: stat cell with n={cell['n']!r} "
                     f"in table {title!r} (plain cells must stay plain)")
    elif not isinstance(cell, (int, float, str)):
        sys.exit(f"error: {bench}: unsupported cell {cell!r} "
                 f"in table {title!r}")


docs = []
for bench in benches:
    with open(f"{tmpdir}/{bench}.json") as f:
        doc = json.load(f)
    for key in ("schema", "bench", "scalars", "tables"):
        if key not in doc:
            sys.exit(f"error: {bench}: missing '{key}' in document")
    if doc["schema"] != "vcl-bench-v1":
        sys.exit(f"error: {bench}: unexpected schema {doc['schema']!r}")
    if doc["bench"] != bench:
        sys.exit(f"error: {bench}: document names itself {doc['bench']!r}")
    for t in doc["tables"]:
        if any(len(row) != len(t["columns"]) for row in t["rows"]):
            sys.exit(f"error: {bench}: ragged rows in table {t['title']!r}")
        for row in t["rows"]:
            for cell in row:
                check_cell(bench, t["title"], cell)
    docs.append(doc)

with open(out, "w") as f:
    json.dump({"schema": "vcl-bench-summary-v1", "benches": docs}, f, indent=1)
    f.write("\n")
print(f"wrote {out}: {len(docs)} benches, "
      f"{sum(len(d['tables']) for d in docs)} tables")
PY
