#!/usr/bin/env bash
# Builds the tree under ASan+UBSan and runs the tier-1 test suite. The sim
# memory pools degrade to plain new/delete in this configuration
# (GBC_POOLS_PASSTHROUGH), so recycling cannot mask use-after-free in the
# message/request/suspension lifetimes the pools serve.
#
# A second stage rebuilds under TSan and runs the tests that actually cross
# threads: the sweep pool (label `sweep`), the staging-tier suites
# (label `storage`, swept 8-wide by the fig8 determinism check), the
# sharded DES (label `shard`: the bus's per-shard outboxes and the round
# barrier exchange, the warm-wave allocation count, thread budget and its
# sweep x shards composition, the 4k-rank `gbcsim run` smoke and the
# group-size study's shard determinism), the
# full protocol stack under per-rank LP sharding (label `fullshard`:
# `gbcsim run --shards 4` byte-identity plus the multi-threaded SimCluster
# integration suite), the erasure tier
# (label `erasure`: the GF(256) codec, parity-group recovery, and the fig9
# shard-determinism run), and the federated service LPs (label `svcshard`:
# per-group coordinator dispatch, root-LP recovery of a dead coordinator,
# partitioned-ledger determinism and the same-shard fast-path stress —
# DESIGN.md §15).
#
# Both stages build RelWithDebInfo without -DNDEBUG, so every assert in
# src/ (lookahead preconditions, horizon progress, pool liveness, protocol
# bookkeeping) is live under the sanitizers; the default build compiles
# them out.
#
# Usage: scripts/sanitize_check.sh [build-dir] [tsan-build-dir]
#   build-dir       ASan/UBSan build tree (default: build-asan)
#   tsan-build-dir  TSan build tree       (default: build-tsan)
set -euo pipefail

BUILD=${1:-build-asan}
TSAN_BUILD=${2:-build-tsan}

# RelWithDebInfo's default flags are "-O2 -g -DNDEBUG"; drop -DNDEBUG.
ASSERT_FLAGS=(-DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g")

cmake -B "$BUILD" -S . -DGBC_SANITIZE=address,undefined "${ASSERT_FLAGS[@]}"
cmake --build "$BUILD" -j "$(nproc)"

# halt_on_error makes UBSan findings fail the run instead of just logging.
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
export ASAN_OPTIONS="detect_leaks=1"
ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)"

# Explicit ASan pass over the sharded full-stack suite: with the pools in
# passthrough, the per-rank LP hot path (pooled wire flights returned across
# shards, bus inbox functors, per-rank hook swaps) must be clean on its own.
ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)" -L fullshard

# Same for the erasure tier: the codec's table-driven GF math and the
# JoinSet-fanned chunk scatter/fetch paths get a dedicated ASan pass.
ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)" -L erasure

# And the service-LP federation: coordinator dispatch forks CycleContext
# across shards and the per-node ledger partitions hand pooled images
# between engines — exactly the lifetimes passthrough pools expose.
ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)" -L svcshard

echo "== thread sanitizer stage =="
cmake -B "$TSAN_BUILD" -S . -DGBC_SANITIZE=thread "${ASSERT_FLAGS[@]}"
cmake --build "$TSAN_BUILD" -j "$(nproc)"
export TSAN_OPTIONS="halt_on_error=1"
ctest --test-dir "$TSAN_BUILD" --output-on-failure -j "$(nproc)" \
      -L "sweep|storage|shard|fullshard|erasure|svcshard"

echo "sanitize check passed"
