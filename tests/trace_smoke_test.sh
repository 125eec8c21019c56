#!/usr/bin/env bash
# Timeline-tracer smoke: trace the acceptance scenario (4-core H-CBA,
# max-contention) and a segmented mesh with real co-runners, validate
# the emitted Chrome trace JSON with tools/trace_check.py, and require
# stdout byte-identity with and without --trace (instrumentation must
# not perturb the simulation).
#
# Usage: trace_smoke_test.sh CBUS_SIM TRACE_CHECK_PY [PYTHON]
set -euo pipefail

sim="$1"
checker="$2"
python="${3:-python3}"

work="$(mktemp -d "${TMPDIR:-/tmp}/cbus-trace-XXXXXX")"
trap 'rm -rf "$work"' EXIT

args=(--kernel matrix --setup hcba --scenario con --cores 4 --runs 3)

"$sim" "${args[@]}" >"$work/bare.out"
"$sim" "${args[@]}" --trace "$work/trace.json" --trace-run 1 \
  >"$work/traced.out"

cmp -s "$work/bare.out" "$work/traced.out" || {
  echo "FAIL: --trace changed stdout"
  diff "$work/bare.out" "$work/traced.out" | head -10
  exit 1
}
echo "ok: stdout byte-identical with and without --trace"

"$python" "$checker" "$work/trace.json" --expect-masters 4
echo "ok: trace validates"

# The segmented topology adds bridge-queue counter tracks.
printf 'setup = hcba\ntopology = segmented:2\ncores = 4\n' >"$work/seg.cfg"
"$sim" --config "$work/seg.cfg" --kernel matrix --scenario con --runs 2 \
  --trace "$work/seg_trace.json" >/dev/null
"$python" "$checker" "$work/seg_trace.json" --expect-masters 4 \
  --expect-bridges 2
echo "ok: segmented trace has bridge-queue tracks"

# Real co-runners on a bounded mesh: the credit tracks read budgets
# behind the per-segment clocks, and tracing must not perturb the run.
{
  printf 'scenario = corun\nkernel = canrdr\ntopology = mesh:2x2\n'
  printf 'cores = 8\nsetup = hcba\narbiter = rr\nbridge_depth = 1\n'
  printf 'runs = 2\nmax_cycles = 60000\n'
  for m in 1 2 3 4 5 6 7; do printf 'core%d = stream:2\n' "$m"; done
} >"$work/mesh_corun.exp"
"$sim" --experiment "$work/mesh_corun.exp" --csv >"$work/mesh_bare.out"
"$sim" --experiment "$work/mesh_corun.exp" --csv \
  --trace "$work/mesh_trace.json" --trace-run 1 >"$work/mesh_traced.out"
cmp -s "$work/mesh_bare.out" "$work/mesh_traced.out" || {
  echo "FAIL: --trace changed a segmented corun's stdout"
  diff "$work/mesh_bare.out" "$work/mesh_traced.out" | head -10
  exit 1
}
"$python" "$checker" "$work/mesh_trace.json" --expect-masters 8 \
  --expect-bridges 8
echo "ok: segmented corun trace validates, stdout byte-identical"

# A window restricts capture without changing results.
"$sim" "${args[@]}" --trace "$work/window.json" --trace-window 100:200 \
  >"$work/window.out"
cmp -s "$work/bare.out" "$work/window.out" || {
  echo "FAIL: --trace-window changed stdout"; exit 1; }
"$python" "$checker" "$work/window.json" --expect-masters 4 \
  --max-ts 200
echo "ok: windowed trace validates"

echo "PASS"
