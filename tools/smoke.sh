#!/usr/bin/env bash
# Smoke suite: the tier-1 test battery in the default configuration,
# then the crash/fault matrix (with the key store and version store
# suites, whose log rewrites are crash paths), the cross-shard stress
# battery, the
# shard-dispatch battery (routing, shard ids and secrets, manifest,
# fan-outs), the observability battery, the media-fault scrub/repair
# battery (with the bounded-window scans, the segment store and the
# backup suite), the
# env/group-commit batteries, the HTTP server battery, the
# verified-replication battery, the audit-transparency battery, the
# patient-driven-sharing consent battery, the crypto battery
# (SHA-256, AES and CRC-32C hardware kernels and the 16-lane AVX-512
# SHA-256 kernel against their scalar fallbacks, HMAC pads, WOTS/XMSS,
# Merkle, and the signature and audit pins re-run with
# MEDVAULT_FORCE_SCALAR=1, which also pins the lanes kernel to a loop
# of scalar calls) and the audit-history
# battery (pinned roots and proofs, read-back from audit.log, custody
# chains read back from provenance.log, index postings read back from
# index.log by concurrent searches, migration handover) and the
# signer.tree battery (signer_tree_test, labels crash and crypto:
# tampered, foreign, wrong-height and torn files, a power cut at every
# boundary of a first open, the upgrade of a layout without the file)
# and the fuzz battery (random and mutated bytes through every on-disk
# decoder and the HTTP request parser) and the vault battery (vault_test
# and record_table_test: the vault facade and the record table its
# per-record state is indexed by; `ctest -L
# "crash|stress|shard|obs|scrub|env|commit|serve|repl|transparency|consent|crypto|audit|fuzz|vault"`)
# rebuilt under AddressSanitizer and UndefinedBehaviorSanitizer, then the
# stress + shard + obs + scrub + commit + serve + repl + transparency +
# consent + audit + vault batteries under
# ThreadSanitizer — the shared cache / ingest-pool races, the parallel
# per-shard scrub-and-open, the lock-free
# metrics hot path, the group-commit leader/follower handoff, the
# acceptor/worker socket hand-off, the cut-under-exclusive-lock vs
# apply-pool interplay, the proof-serving-vs-concurrent-append
# interleaving, and audit read-back reading the file while appends run
# only surface instrumented.
# The bench_compare fixture self-test runs once up front (pure python,
# no build needed), then the perfbench self-test: ctest never compiles
# perfbench/, so this is where a src/ header change that breaks the
# service benchmark's build (or its request streams) shows up.
# Usage: tools/smoke.sh [build-dir-prefix]
set -euo pipefail

cd "$(dirname "$0")/.."
prefix="${1:-build}"
jobs="$(nproc 2>/dev/null || echo 4)"

python3 tools/bench_compare.py --self-test
python3 perfbench/run.py --selftest

run_config() {
  local dir="$1" sanitize="$2" label="$3"
  local flags=()
  [ -n "$sanitize" ] && flags+=("-DMEDVAULT_SANITIZE=${sanitize}")
  echo "=== ${dir} (sanitize='${sanitize:-none}', tests: ${label:-all}) ==="
  cmake -B "$dir" -S . "${flags[@]}" >/dev/null
  cmake --build "$dir" -j "$jobs" >/dev/null
  if [ -n "$label" ]; then
    ctest --test-dir "$dir" -L "$label" --output-on-failure -j "$jobs"
  else
    ctest --test-dir "$dir" --output-on-failure -j "$jobs"
  fi
}

run_config "$prefix" "" ""
run_config "${prefix}-asan" address "crash|stress|shard|obs|scrub|env|commit|serve|repl|transparency|consent|crypto|audit|fuzz|vault"
run_config "${prefix}-ubsan" undefined "crash|stress|shard|obs|scrub|env|commit|serve|repl|transparency|consent|crypto|audit|fuzz|vault"
run_config "${prefix}-tsan" thread "stress|shard|obs|scrub|commit|serve|repl|transparency|consent|audit|vault"

echo "smoke suite passed"
