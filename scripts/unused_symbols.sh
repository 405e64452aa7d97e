#!/usr/bin/env bash
# Test-only surface scan: which vcl:: library symbols does no shipped binary
# link?
#
#   scripts/unused_symbols.sh [build-dir]     (default: build-unused)
#
# It configures and builds the whole tree and the perfbench/ runner into
# build-dir with -O0 -g0 -ffunction-sections -fdata-sections, linked with
# -Wl,--gc-sections, so a binary keeps exactly the functions and data it
# reaches. It then compares `nm --defined-only` of the libvcl_*.a archives
# with `nm` of
#   - the production binaries: every bench, example and tool, plus the
#     perfbench runner (vcl_perfbench);
#   - the test binaries: every tests/test_*.
# Names are demangled and grouped by qualified name (parameters, template
# arguments and return types dropped); only names under `vcl::` count.
#
# It exits 1 (after listing each name) when
#   - a vcl:: symbol in the archives is linked by no binary at all;
#   - a symbol only test binaries link has no entry in the allowlist;
#   - an allowlist entry is stale: production now links every symbol it
#     names, or it names nothing any more.
# It exits 0 when none of these holds, and 2 on a usage or build error.
#
# The allowlist, scripts/unused_symbols.allow, holds one entry a line:
#   <qualified name> <category> <reason...>
# The entry covers the name and every member under it (`vcl::a::Cls`
# covers `vcl::a::Cls::f`). Categories:
#   accessor   state a test observes (no production reader yet);
#   test-data  a helper that builds test inputs or test vectors;
#   paper:E<n> a paper mechanism still waiting for a cell in bench E<n>.
# Anything else that only tests reach is deleted, or measured by a bench.
set -euo pipefail

if [[ $# -gt 1 || "${1:-}" == -* ]]; then
  sed -n '2,32p' "$0" >&2
  exit 2
fi
REPO="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$REPO/build-unused}"
ALLOW="$REPO/scripts/unused_symbols.allow"
JOBS="$(nproc 2>/dev/null || echo 2)"

generator=()
command -v ninja > /dev/null && generator=(-G Ninja)
flags=(
  -DCMAKE_BUILD_TYPE=Debug
  "-DCMAKE_CXX_FLAGS_DEBUG=-O0 -g0"
  "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
  "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"
)
build() {  # build(<source dir> <build dir> [targets...])
  local src="$1" out="$2"
  shift 2
  if [[ ! -f "$out/CMakeCache.txt" ]]; then
    cmake -S "$src" -B "$out" "${generator[@]}" "${flags[@]}" > /dev/null ||
      { echo "error: configure of $src failed" >&2; exit 2; }
  fi
  cmake --build "$out" -j"$JOBS" "$@" > "$out/unused_symbols_build.log" 2>&1 ||
    { tail -40 "$out/unused_symbols_build.log" >&2
      echo "error: build of $src failed" >&2; exit 2; }
}
build "$REPO" "$BUILD"
build "$REPO/perfbench" "$BUILD/perfbench" --target vcl_perfbench

exec python3 - "$BUILD" "$ALLOW" <<'PY'
import pathlib
import re
import subprocess
import sys

build, allow_path = pathlib.Path(sys.argv[1]), pathlib.Path(sys.argv[2])

def nm(paths, globals_only):
    """Demangled names of the symbols the files define."""
    out = subprocess.run(["nm", "--defined-only", "-C", *map(str, paths)],
                         check=True, capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        m = re.match(r"^[0-9a-f]+ (\w) (.*)$", line)
        if m and (not globals_only or m.group(1) not in "tdbr"):
            names.add(m.group(2))
    return names

def qualified(sig):
    """`R vcl::a::f<T>(args) const` -> `vcl::a::f`; None outside vcl::."""
    sig = re.sub(r"\[abi:\w+\]", "", sig).replace("(anonymous namespace)", "{anon}")
    name, depth, i = [], 0, 0
    while i < len(sig):
        if sig.startswith("operator", i) and depth == 0:
            m = re.match(r"operator(\(\)|[^(]+)", sig[i:])
            name.append(m.group(0))
            i += len(m.group(0))
            continue
        c = sig[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif depth == 0 and c == "(":
            break
        elif depth == 0 and c == " ":
            name = []  # what came before was the return type
        elif depth == 0:
            name.append(c)
        i += 1
    q = "".join(name)
    return q if q.startswith("vcl::") else None

def by_name(sigs):
    groups = {}
    for s in sigs:
        q = qualified(s)
        if q:
            groups.setdefault(q, set()).add(s)
    return groups

archives = sorted(build.glob("src/libvcl_*.a"))
production = sorted(
    [p for d in ("bench", "examples", "tools") for p in (build / d).iterdir()
     if p.is_file() and p.stat().st_mode & 0o111] +
    [build / "perfbench" / "vcl_perfbench"])
tests = sorted(p for p in (build / "tests").glob("test_*")
               if p.is_file() and p.stat().st_mode & 0o111)
if not archives or len(production) < 2 or not tests:
    sys.exit(f"error: no archives or binaries under {build}")

lib = by_name(nm(archives, globals_only=True))
prod_sigs, test_sigs = nm(production, False), nm(tests, False)

unlinked, test_only = {}, {}
for q, sigs in lib.items():
    for s in sigs - prod_sigs:
        (test_only if s in test_sigs else unlinked).setdefault(q, []).append(s)

allow, bad = {}, []
for n, line in enumerate(allow_path.read_text().splitlines(), 1):
    line = line.split("#", 1)[0].strip()
    if not line:
        continue
    parts = line.split(None, 2)
    if (len(parts) < 3 or not parts[0].startswith("vcl::") or
            not re.fullmatch(r"accessor|test-data|paper:E\d+", parts[1])):
        bad.append(f"{allow_path.name}:{n}: want '<vcl::name> "
                   f"<accessor|test-data|paper:E<n>> <reason>'")
    elif parts[0] in allow:
        bad.append(f"{allow_path.name}:{n}: duplicate entry {parts[0]}")
    else:
        allow[parts[0]] = 0

def covering(q):
    return [a for a in allow if q == a or q.startswith(a + "::")]

unlisted = []
for q in sorted(test_only):
    hits = covering(q)
    for a in hits:
        allow[a] += 1
    if not hits:
        unlisted.append(q)
stale = sorted(a for a, uses in allow.items() if uses == 0)

def section(title, names, detail=None):
    print(f"{title}: {len(names)}")
    for q in names:
        print(f"  {q}")
        for s in sorted(detail[q]) if detail else []:
            if s != q:
                print(f"      {s}")

print(f"vcl:: names in the archives: {len(lib)}; linked in full by "
      f"production: {len(lib) - len(set(unlinked) | set(test_only))}")
section("linked by no binary", sorted(unlinked), unlinked)
print(f"linked only by tests: {len(test_only)} "
      f"({len(test_only) - len(unlisted)} on the allowlist)")
section("test-only, not on the allowlist", unlisted, test_only)
section("stale allowlist entries", stale)
for b in bad:
    print(f"error: {b}")
sys.exit(1 if unlinked or unlisted or stale or bad else 0)
PY
