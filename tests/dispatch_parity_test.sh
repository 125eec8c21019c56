#!/usr/bin/env bash
# Dispatch-parity check: the same campaigns run under --simd native (the
# configured ISA), --simd scalar and --simd off (what a CBUS_SIMD=off
# build runs) must produce byte-identical output -- stdout, CSV and
# streaming JSON alike. Every campaign takes the quiescence-skipping path
# in all three modes; scalar and off only answer the vec kernels (the
# deficit-age argmax) with the portable code. The batch credit engine is
# off the campaign path, so engine-vs-classic parity lives in
# EngineParity.* (tests/test_vec.cpp) and perfbench's traced-vs-untraced
# check. This is the local half of the contract; the CI dispatch-parity
# leg repeats it across two separately configured builds (CBUS_SIMD=off
# vs the widest ISA) with cmp.
#
# Usage: dispatch_parity_test.sh CBUS_SIM SMOKE_EXP STREAM_EXP
set -euo pipefail

sim="$1"
smoke="$2"
stream="$3"

work="$(mktemp -d "${TMPDIR:-/tmp}/cbus-simd-XXXXXX")"
trap 'rm -rf "$work"' EXIT

for mode in native scalar off; do
  dir="$work/$mode"
  mkdir "$dir"
  cd "$dir"
  # Threads x batch exercises the sliced campaign path; batch 4 with 5
  # runs also covers the tail stripe (5 % 4 != 0).
  "$sim" --experiment "$smoke" --simd "$mode" --threads 2 --batch 4 \
    > stdout_smoke.txt
  "$sim" --experiment "$stream" --simd "$mode" --threads 2 \
    > stdout_stream.txt
done

for mode in scalar off; do
  for f in stdout_smoke.txt smoke.csv stdout_stream.txt stream_shard.json
  do
    if ! cmp -s "$work/native/$f" "$work/$mode/$f"; then
      echo "FAIL: $f differs between --simd native and --simd $mode"
      diff "$work/native/$f" "$work/$mode/$f" | head -20
      exit 1
    fi
  done
  echo "ok: --simd $mode byte-identical to native"
done

echo "PASS"
