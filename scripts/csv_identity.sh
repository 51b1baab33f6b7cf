#!/usr/bin/env bash
# Byte-identity check of the paper's figure outputs between two builds.
#
# Usage: scripts/csv_identity.sh <parent-build> <change-build> [work-dir]
#
# Runs every bench/fig* and bench/ablation* driver of each build, one after
# another at the default sweep pool width, into its own GBC_BENCH_OUT
# directory under work-dir (default: a fresh temporary directory). Then:
#   - cmp's every CSV of the two builds;
#   - diffs the stdout of fig2_schedule_trace and ablation_recovery (they
#     write no CSV), with [sweep] telemetry and host-time lines dropped;
#   - prints each build's figure-suite wall time.
# Exits 0 when every output matches, 1 on any difference, missing file or
# failed driver, 2 on bad arguments.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 3 ]]; then
  echo "usage: $0 <parent-build> <change-build> [work-dir]" >&2
  exit 2
fi
parent=$1
change=$2
work=${3:-$(mktemp -d)}
for b in "$parent" "$change"; do
  if [[ ! -d "$b/bench" ]]; then
    echo "$b/bench: no such directory (pass a configured, built tree)" >&2
    exit 2
  fi
done

status=0
fail() {
  echo "DIFF: $*"
  status=1
}

drivers() {
  find "$1/bench" -maxdepth 1 -type f -perm -u+x \
    \( -name 'fig*' -o -name 'ablation*' \) -printf '%f\n' | sort
}

# The drivers both builds must have: the union of their lists.
mapfile -t all_drivers < <({ drivers "$parent"; drivers "$change"; } | sort -u)
if [[ ${#all_drivers[@]} -eq 0 ]]; then
  echo "no bench/fig* or bench/ablation* binaries found" >&2
  exit 1
fi

# run_side <build> <out-dir>: runs every driver, prints the wall time.
run_side() {
  local build=$1 out=$2 d t0 t1
  rm -rf "$out"
  mkdir -p "$out/csv" "$out/stdout"
  t0=$(date +%s.%N)
  for d in "${all_drivers[@]}"; do
    if [[ ! -x "$build/bench/$d" ]]; then
      fail "$build/bench/$d is missing"
      continue
    fi
    if ! GBC_BENCH_OUT="$out/csv" "$build/bench/$d" \
        > "$out/stdout/$d.txt" 2>&1; then
      fail "$build/bench/$d exited non-zero (see $out/stdout/$d.txt)"
    fi
  done
  t1=$(date +%s.%N)
  awk -v a="$t0" -v b="$t1" -v n="${#all_drivers[@]}" -v w="$build" \
    'BEGIN { printf "figure suite (%d drivers) in %s: %.2f s wall\n", n, w, b - a }'
}

run_side "$parent" "$work/parent"
run_side "$change" "$work/change"

mapfile -t csvs < <({ ls "$work/parent/csv"; ls "$work/change/csv"; } |
                    grep '\.csv$' | sort -u)
same=0
for f in "${csvs[@]}"; do
  if [[ ! -f "$work/parent/csv/$f" || ! -f "$work/change/csv/$f" ]]; then
    fail "$f written by only one build"
  elif cmp -s "$work/parent/csv/$f" "$work/change/csv/$f"; then
    same=$((same + 1))
  else
    fail "$f differs"
  fi
done
echo "$same of ${#csvs[@]} CSVs byte-identical"

strip_host() { grep -v -E '^\[sweep\]|wall|host' "$1" || true; }
for d in fig2_schedule_trace ablation_recovery; do
  a="$work/parent/stdout/$d.txt"
  b="$work/change/stdout/$d.txt"
  if [[ ! -f "$a" || ! -f "$b" ]]; then
    fail "$d stdout missing"
  elif diff <(strip_host "$a") <(strip_host "$b") > "$work/$d.diff"; then
    echo "$d stdout identical"
  else
    fail "$d stdout differs (see $work/$d.diff)"
  fi
done

if [[ $status -eq 0 ]]; then
  echo "csv_identity: all outputs identical (outputs in $work)"
else
  echo "csv_identity: differences found (outputs in $work)"
fi
exit $status
