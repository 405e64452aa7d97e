#!/usr/bin/env bash
# Byte-identity check between two builds of this repository, e.g. a parent
# commit and a change built with the same compiler and flags:
#
#   scripts/compare_outputs.sh [--keep DIR] <build_a> <build_b>
#
# In each build it runs:
#   - every bench except bench_crypto_micro, with --json;
#   - every example (examples take no flags, so stdout only);
#   - bench_fig2_cloud_comparison --reps 2 --telemetry-dir;
#   - bench_dependability --reps 1 --telemetry-dir (E22: the full-mitigation
#     dependability stack's trace and metrics);
#   - vcl_chaos soaks in all four modes (plain, --storage, --dag,
#     --adversary) at --episodes 20 --seed 1 --vehicles 25 --duration 60;
#   - the replays (vcl_chaos --repro) of the committed repros, one per
#     seeded bug: tests/data/incident_repro.jsonl (requeue) and
#     tests/data/repro_{repair,dag,revoked}.jsonl;
#   - the analysis tools on what those runs wrote: vcl_traceview (default
#     and --json) on fig2's telemetry/cell0/rep0/trace.jsonl, vcl_report
#     (text on stdout, JSON through --out) over telemetry/cell0/rep{0,1},
#     vcl_traceview --storage on the repair replay's trace, vcl_traceview
#     --dag on the dag replay's trace and vcl_incident on the requeue
#     replay's incident.jsonl.
# It then compares every stdout, exit code and output file byte for byte,
# and every bench JSON with the `wall_s` scalar masked. The only other
# tolerated differences are the host-timed cells of bench_access_control
# (enc_us(toy), dec_us(toy)) and bench_fig5_auth_protocols
# (lookup_us(measured)), which differ between two runs of one build; they
# are masked in both stdout and JSON.
#
# --keep DIR leaves the outputs in DIR/a and DIR/b (default: a temporary
# directory, removed on exit). Exit codes: 0 = identical, 1 = some output
# differs (each difference is listed), 2 = usage error.
set -euo pipefail

usage() {
  sed -n '2,33p' "$0" >&2
  exit 2
}

KEEP=""
positional=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --keep)
      [[ $# -ge 2 ]] || usage
      KEEP="$2"
      shift 2
      ;;
    --help|-h) usage ;;
    *)
      positional+=("$1")
      shift
      ;;
  esac
done
[[ ${#positional[@]} -eq 2 ]] || usage

REPO="$(cd "$(dirname "$0")/.." && pwd)"
builds=()
for b in "${positional[@]}"; do
  if [[ ! -x "$b/tools/vcl_chaos" || ! -d "$b/bench" || ! -d "$b/examples" ]]; then
    echo "error: '$b' is not a complete build tree (bench/, examples/," \
         "tools/vcl_chaos)" >&2
    exit 2
  fi
  builds+=("$(cd "$b" && pwd)")
done

if [[ -n "$KEEP" ]]; then
  mkdir -p "$KEEP"
  OUT="$(cd "$KEEP" && pwd)"
else
  OUT="$(mktemp -d)"
  trap 'rm -rf "$OUT"' EXIT
fi

# run <out_dir> <name> <cmd...>: stdout to <name>.stdout, exit code to
# <name>.rc; stderr is dropped (progress chatter). Runs inside <out_dir>,
# so relative output paths printed by a tool are the same in both builds.
run() {
  local dir="$1" name="$2"
  shift 2
  local rc=0
  (cd "$dir" && "$@" > "$name.stdout" 2> /dev/null) || rc=$?
  echo "$rc" > "$dir/$name.rc"
}

run_build() {
  local build="$1" out="$2"
  rm -rf "$out"
  mkdir -p "$out/bench" "$out/examples" "$out/chaos"
  local exe name
  for exe in "$build"/bench/bench_*; do
    [[ -f "$exe" && -x "$exe" ]] || continue
    name="$(basename "$exe")"
    [[ "$name" == bench_crypto_micro ]] && continue
    run "$out/bench" "$name" "$exe" --json "$name.json"
  done
  for exe in "$build"/examples/example_*; do
    [[ -f "$exe" && -x "$exe" ]] || continue
    run "$out/examples" "$(basename "$exe")" "$exe"
  done
  mkdir -p "$out/fig2"
  run "$out/fig2" fig2 "$build/bench/bench_fig2_cloud_comparison" \
    --reps 2 --telemetry-dir telemetry
  mkdir -p "$out/e22"
  run "$out/e22" e22 "$build/bench/bench_dependability" \
    --reps 1 --telemetry-dir telemetry
  local mode
  for mode in "" --storage --dag --adversary; do
    name="soak${mode:-_plain}"
    run "$out/chaos" "$name" "$build/tools/vcl_chaos" $mode --episodes 20 \
      --seed 1 --vehicles 25 --duration 60 --jobs 2 --out "$name-out"
  done
  run "$out/chaos" repro "$build/tools/vcl_chaos" \
    --repro "$REPO/tests/data/incident_repro.jsonl" --out repro-out
  local bug
  for bug in repair dag revoked; do
    run "$out/chaos" "repro_$bug" "$build/tools/vcl_chaos" \
      --repro "$REPO/tests/data/repro_$bug.jsonl" --out "repro_$bug-out"
  done
  local traceview="$build/tools/vcl_traceview"
  run "$out/fig2" traceview "$traceview" telemetry/cell0/rep0/trace.jsonl
  run "$out/fig2" traceview_json "$traceview" --json \
    telemetry/cell0/rep0/trace.jsonl
  run "$out/fig2" report "$build/tools/vcl_report" --out report.json \
    telemetry/cell0/rep0 telemetry/cell0/rep1
  run "$out/chaos" traceview_storage "$traceview" --storage \
    repro_repair-out/trace.jsonl
  run "$out/chaos" traceview_dag "$traceview" --dag repro_dag-out/trace.jsonl
  run "$out/chaos" incident "$build/tools/vcl_incident" \
    repro-out/incident.jsonl
}

for i in 0 1; do
  side=$([[ $i -eq 0 ]] && echo a || echo b)
  echo "running ${builds[$i]} -> $OUT/$side" >&2
  run_build "${builds[$i]}" "$OUT/$side"
done

python3 - "$OUT/a" "$OUT/b" <<'EOF'
import json
import os
import re
import sys

# Host-timed columns (wall-clock measurements on the running machine).
HOST_TIMED = {
    "bench_access_control": {"enc_us(toy)", "dec_us(toy)"},
    "bench_fig5_auth_protocols": {"lookup_us(measured)"},
}


def mask_json(doc, cols):
    doc.get("scalars", {}).pop("wall_s", None)
    for table in doc.get("tables", []):
        hidden = [i for i, c in enumerate(table.get("columns", [])) if c in cols]
        for row in table.get("rows", []):
            for i in hidden:
                if i < len(row):
                    row[i] = None
    return doc


def mask_text(text, cols):
    # Tables print a header, a dashed rule giving each column's width, then
    # rows up to a blank line; cells under a host-timed header become '#'.
    lines = text.split("\n")
    spans = []
    for i, line in enumerate(lines):
        if not line.strip():
            spans = []
        elif i > 0 and re.fullmatch(r" *-[- ]*", line):
            header = lines[i - 1]
            spans = [m.span() for m in re.finditer(r"-+", line)
                     if header[m.start():m.end()].strip() in cols]
        else:
            for s, e in spans:
                line = line[:s] + "#" * max(0, min(e, len(line)) - s) + line[e:]
            lines[i] = line
    return "\n".join(lines)


def tree(root):
    out = set()
    for d, _, files in os.walk(root):
        for f in files:
            out.add(os.path.relpath(os.path.join(d, f), root))
    return out


a, b = sys.argv[1], sys.argv[2]
files_a, files_b = tree(a), tree(b)
diffs = [f"only in one build: {f}" for f in sorted(files_a ^ files_b)]
for rel in sorted(files_a & files_b):
    with open(os.path.join(a, rel), "rb") as fa, open(os.path.join(b, rel), "rb") as fb:
        da, db = fa.read(), fb.read()
    if da == db:
        continue
    top, name = os.path.split(rel)
    bench, ext = os.path.splitext(name)
    cols = HOST_TIMED.get(bench, set())
    if top == "bench" and ext == ".json":
        if mask_json(json.loads(da), cols) == mask_json(json.loads(db), cols):
            continue
    elif top == "bench" and ext == ".stdout" and cols:
        if mask_text(da.decode(), cols) == mask_text(db.decode(), cols):
            continue
    diffs.append(f"differs: {rel}")

for d in diffs:
    print(d)
print(f"{len(files_a & files_b)} outputs compared, {len(diffs)} difference(s)")
sys.exit(1 if diffs else 0)
EOF
