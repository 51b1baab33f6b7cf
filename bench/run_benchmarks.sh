#!/usr/bin/env bash
# Runs the simulator microbenchmarks plus representative sweeps (fig3
# micro-benchmark sweep, fig6 HPL group-size sweep, the sharded-DES scaling
# benches) and assembles a machine-readable perf snapshot. This is the file
# committed as BENCH_pr<N>.json to track the events/s trajectory across PRs.
#
# Usage: bench/run_benchmarks.sh [build-dir] [output.json]
#   build-dir   cmake build tree containing bench/ binaries   (default: build)
#   output.json snapshot destination       (default: bench_results/BENCH.json)
# Env: GBC_BENCH_MIN_TIME  seconds per microbenchmark case    (default: 2)
#      GBC_BENCH_REPS      full reruns; gate + snapshot use the per-entry
#                          median across them                 (default: 3)
#
# The whole suite runs GBC_BENCH_REPS times and both the committed snapshot
# and the regression gate use the per-entry *median* across the reruns: on a
# single-CPU box one sample swings with host load, and gating on it made the
# regression flag differ between otherwise-identical invocations (PR 9).
set -euo pipefail

BUILD=${1:-build}
# The default output lands in the git-ignored bench_results/, so a bare run
# never overwrites a committed snapshot; name a BENCH_pr<N>.json explicitly
# to commit one.
OUT=${2:-bench_results/BENCH.json}
MIN_TIME=${GBC_BENCH_MIN_TIME:-2}
REPS=${GBC_BENCH_REPS:-3}

for bin in simcore_microbench fig3_group_size fig6_hpl_groupsize shard_scaling scale_groupsize fig9_erasure ablation_erasure; do
  if [[ ! -x "$BUILD/bench/$bin" ]]; then
    echo "error: $BUILD/bench/$bin missing; build first: cmake --build $BUILD -j" >&2
    exit 1
  fi
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Provenance: every JSONL sweep record embeds the commit it was measured at
# (bench_util.hpp reads GBC_GIT_SHA), and the snapshot header repeats it.
GBC_GIT_SHA=$(git rev-parse HEAD 2>/dev/null || echo unknown)
export GBC_GIT_SHA

# One full pass of the suite: microbench JSON to $1, sweep JSONL to $2.
run_suite() {
  local micro_json=$1 sweeps_jsonl=$2

  echo "== microbenchmarks (--benchmark_min_time=$MIN_TIME) =="
  "$BUILD/bench/simcore_microbench" \
    --benchmark_min_time="$MIN_TIME" \
    --benchmark_format=json >"$micro_json"

  echo "== figure sweeps =="
  export GBC_BENCH_JSON="$sweeps_jsonl"
  GBC_BENCH_OUT="$tmp/csv" "$BUILD/bench/fig3_group_size"
  GBC_BENCH_OUT="$tmp/csv" "$BUILD/bench/fig6_hpl_groupsize"
  if [[ -x "$BUILD/bench/fig8_staging" ]]; then
    GBC_BENCH_OUT="$tmp/csv" "$BUILD/bench/fig8_staging"
  fi

  echo "== erasure tier =="
  # Clean-run phases carry the gated events/s records; the recovery phases
  # report TTS only (their SweepStats have no engine events). ablation_erasure
  # exits non-zero if its RS(4,2) acceptance row regresses.
  GBC_BENCH_OUT="$tmp/csv" "$BUILD/bench/fig9_erasure"
  GBC_BENCH_OUT="$tmp/csv" "$BUILD/bench/ablation_erasure"

  echo "== sharded-DES scaling =="
  # Full protocol stack under per-rank LP sharding: per-LP delivery split,
  # shard-0 event share, and the root service LP's delivery share
  # (service_shard0_share) at 1/2/4 shards (DESIGN.md §13/§15).
  GBC_BENCH_OUT="$tmp/csv" "$BUILD/bench/shard_scaling"
  # Full-stack group-size curve at 1k/4k ranks (the 16k point is left to
  # manual runs so the snapshot stays quick to regenerate).
  GBC_BENCH_OUT="$tmp/csv" "$BUILD/bench/scale_groupsize" --ranks 1024
  GBC_BENCH_OUT="$tmp/csv" "$BUILD/bench/scale_groupsize" --ranks 4096
}

# Assemble one snapshot: per-benchmark name/time/throughput from the
# google-benchmark JSON, plus the one-record-per-sweep JSONL the drivers
# appended via bench_util.hpp's report_sweep().
assemble() {
  local micro_json=$1 sweeps_jsonl=$2 out_json=$3
  awk -v sweeps="$sweeps_jsonl" -v sha="$GBC_GIT_SHA" '
    function num(l) { sub(/.*: */, "", l); sub(/,[ \t\r]*$/, "", l); return l }
    function str(l) { sub(/.*": *"/, "", l); sub(/".*/, "", l); return l }
    function flush_rec() {
      if (name == "") return
      printf "%s    {\"name\":\"%s\",\"real_time\":%s,\"time_unit\":\"%s\",\"items_per_second\":%s}", \
             (first ? "" : ",\n"), name, rt, tu, (ips == "" ? "null" : ips)
      first = 0; name = ""; rt = ""; tu = ""; ips = ""
    }
    BEGIN {
      in_bm = 0; first = 1
      print "{"
      printf "  \"git_sha\": \"%s\",\n", sha
      print "  \"benchmarks\": ["
    }
    /"benchmarks": \[/    { in_bm = 1; next }
    !in_bm                { next }
    /"name":/             { flush_rec(); name = str($0) }
    /"real_time":/        { rt = num($0) }
    /"time_unit":/        { tu = str($0) }
    /"items_per_second":/ { ips = num($0) }
    END {
      flush_rec()
      print ""
      print "  ],"
      print "  \"sweeps\": ["
      sfirst = 1
      while ((getline line < sweeps) > 0) {
        if (line == "") continue
        printf "%s    %s", (sfirst ? "" : ",\n"), line
        sfirst = 0
      }
      print ""
      print "  ]"
      print "}"
    }
  ' "$micro_json" >"$out_json"
}

snaps=()
for rep in $(seq 1 "$REPS"); do
  echo "==== bench rep $rep/$REPS ===="
  run_suite "$tmp/micro_$rep.json" "$tmp/sweeps_$rep.jsonl"
  assemble "$tmp/micro_$rep.json" "$tmp/sweeps_$rep.jsonl" "$tmp/snap_$rep.json"
  snaps+=("$tmp/snap_$rep.json")
done

# Regression gate: when a baseline snapshot exists (GBC_BENCH_BASELINE, or
# the highest-numbered committed BENCH_pr<N>.json other than $OUT), any
# matched entry whose *median* is more than 10% slower fails the run. The
# median snapshot is written to $OUT either way. The baseline goes by PR
# number, not mtime: a fresh checkout gives every snapshot the same mtime.
BASELINE=${GBC_BENCH_BASELINE:-}
if [[ -z "$BASELINE" ]]; then
  best=-1
  for f in BENCH_pr*.json; do
    n=${f#BENCH_pr}
    n=${n%.json}
    [[ -f "$f" && "$n" =~ ^[0-9]+$ ]] || continue
    [[ "$f" -ef "$OUT" ]] && continue
    if ((10#$n > best)); then best=$((10#$n)); BASELINE=$f; fi
  done
fi
mkdir -p "$(dirname "$OUT")"
if [[ -n "$BASELINE" && -f "$BASELINE" ]]; then
  echo "== regression check vs $BASELINE (median of $REPS rep(s)) =="
  python3 "$(dirname "$0")/../scripts/bench_compare.py" \
    "$BASELINE" "${snaps[@]}" --write-median "$OUT"
else
  echo "no baseline snapshot found; skipping regression check"
  python3 "$(dirname "$0")/../scripts/bench_compare.py" \
    - "${snaps[@]}" --write-median "$OUT"
fi
echo "wrote $OUT"
