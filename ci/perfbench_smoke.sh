#!/bin/sh
# The runtime's digest gate: runs every perfbench workload once at seed 1
# and checks that each result line says "correct": true, then that the
# `exec` and `cure` determinism digests equal perfbench/baseline.json
# (not `recure`: its committed digests are stale until the baseline is
# re-recorded).
#
# Usage: sh ci/perfbench_smoke.sh   (from the repository root; needs jq)
#
# Exits 1 on the first workload that is not correct or whose digest
# differs from the baseline.
set -e
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for w in exec cure recure; do
  out=$(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
    --workload "$w" --seed 1 --seconds 3 --trace 0)
  printf '%s\n' "$out" | tee "$tmp/perfbench-$w.out"
  printf '%s\n' "$out" | tail -n 1 | grep -q '"correct": true' \
    || { echo "perfbench $w: result is not correct"; exit 1; }
done

for w in exec cure; do
  want=$(jq -r ".workloads.$w.determinism_digests[\"1\"]" perfbench/baseline.json)
  got=$(sed -n 's/^# determinism digest=\([0-9a-f]*\).*/\1/p' "$tmp/perfbench-$w.out")
  echo "perfbench $w seed 1: digest $got, baseline $want"
  [ "$want" != null ] && [ -n "$got" ] && [ "$got" = "$want" ] \
    || { echo "perfbench $w: determinism digest differs from perfbench/baseline.json"; exit 1; }
done
