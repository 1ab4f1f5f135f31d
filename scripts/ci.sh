#!/usr/bin/env bash
# Local CI gate: formatting, lints, release build, tests.
#
# Run from the repo root. Mirrors the checks a PR must pass; keep this in
# sync with the acceptance criteria in ROADMAP.md.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Panic-hygiene gate for library/binary code only (tests are exempt:
# --lib --bins skips test targets, and #[cfg(test)] modules are not
# compiled without --tests). Denied, not warned — every surviving expect
# carries an #[allow(clippy::expect_used)] with a §11 justification
# (DESIGN.md §11), which fingers-lint separately audits below.
echo "==> cargo clippy (unwrap/expect gate, lib+bins only)"
cargo clippy --workspace --lib --bins -- \
  -D clippy::unwrap_used -D clippy::expect_used

# Hot-path hygiene + concurrency-discipline lint: no per-embedding
# allocation and no unchecked indexing in annotated hot-path modules
# without a reasoned waiver, every unwrap/expect allow must cite the §11
# policy, every atomic Ordering:: site carries an `ord:` justification
# tag (Relaxed only inside the allowlist), `.lock()` sites in
# lock-order-marked files respect the declared ranking, and `unsafe`
# stays inside the two audited islands (DESIGN.md §12/§16 for the
# grammars). The binary exits non-zero on any violation — this is the
# -D-style hard gate.
echo "==> fingers-lint (hot-path + atomic/lock/unsafe discipline audit)"
cargo run --release -q -p fingers-verify --bin fingers-lint -- .
cargo run --release -q -p fingers-verify --no-default-features --bin fingers-lint -- .

# Static plan verification smoke: the full benchmark pattern set must
# verify clean (exit 0), and a deliberately corrupted plan must be caught
# with the verifier's dedicated exit code (7).
echo "==> verify-plan corpus smoke"
for spec in tc 4cl 5cl tt cyc dia wedge house bull gem butterfly; do
  cargo run --release -q -p fingers-cli --bin fingers-mine -- \
    verify-plan "$spec" > /dev/null
done
if cargo run --release -q -p fingers-cli --bin fingers-mine -- \
    verify-plan tt --mutate drop-init > /dev/null 2>&1; then
  echo "verify-plan smoke: mutated plan was not rejected" >&2
  exit 1
else
  code=$?
  if [ "$code" -ne 7 ]; then
    echo "verify-plan smoke: mutated plan exited $code (want 7)" >&2
    exit 1
  fi
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

# The repository benchmark (perfbench/) is its own cargo workspace with path
# dependencies on the engine crates, so no workspace step builds it; its unit
# tests catch engine API changes that would break the benchmark.
echo "==> perfbench unit tests"
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

# Smoke-run the bitmap-kernel microbench: --quick does one iteration per
# shape and asserts all three kernel tiers produce identical outputs (the
# non-timing check); pointing FINGERS_RESULTS_DIR at a nonexistent path
# keeps the checked-in results/ files untouched.
echo "==> bitmap_kernels --quick smoke (kernel-equivalence assertions)"
FINGERS_RESULTS_DIR=/nonexistent-fingers-ci-smoke \
  cargo run --release -q -p fingers-bench --bin bitmap_kernels -- --quick > /dev/null

# Smoke-run the count-fusion experiment: --quick asserts fused and unfused
# counts are bit-identical across a threads × bitmap-mode grid (the
# non-timing check), same gating as bitmap_kernels above.
echo "==> count_fusion --quick smoke (fused/unfused equivalence assertions)"
FINGERS_RESULTS_DIR=/nonexistent-fingers-ci-smoke \
  cargo run --release -q -p fingers-bench --bin count_fusion -- --quick > /dev/null

# Smoke-run the SIMD-kernel experiment: --quick asserts every SIMD kernel
# form (materializing, count, bounded count, word-AND popcount) is
# bit-identical to the merge reference (the non-timing check), same
# gating as the smokes above.
echo "==> simd_kernels --quick smoke (simd/scalar equivalence assertions)"
FINGERS_RESULTS_DIR=/nonexistent-fingers-ci-smoke \
  cargo run --release -q -p fingers-bench --bin simd_kernels -- --quick > /dev/null

# Smoke-run the steal-balance experiment: --quick asserts the static,
# shared-cursor, and work-stealing schedulers all produce the serial
# count on the power-law hub graph at 1 and 8 threads.
echo "==> steal_balance --quick smoke (parallel==serial at 1/8 threads)"
FINGERS_RESULTS_DIR=/nonexistent-fingers-ci-smoke \
  cargo run --release -q -p fingers-bench --bin steal_balance -- --quick > /dev/null

# Scalar-fallback job: the setops crate must stay green with the `simd`
# cargo feature disabled (every vector entry point degrades to pure
# delegation), so non-x86_64 targets build and test identically.
echo "==> fingers-setops --no-default-features (scalar-fallback job)"
cargo test -q -p fingers-setops --no-default-features

# Chaos jobs. The fault-injection suite drives the engine through the
# seeded chaos plan (typed failures, bit-identical recovery); the second
# run disables the forwarded `simd` feature, proving the scalar-fallback
# engine degrades identically under the same fault streams. The soak
# smoke then storms the governed daemon once per seed of the fixed
# matrix (the same seeds `BENCH_soak_chaos.json` checks in).
echo "==> fault-injection suite (default + scalar fallback)"
cargo test -q -p fingers-mining --test fault_injection
cargo test -q -p fingers-mining --no-default-features --test fault_injection
echo "==> chaos soak smoke (fixed 3-seed matrix)"
for seed in 11 23 47; do
  FINGERS_RESULTS_DIR=/nonexistent-fingers-ci-smoke FINGERS_CHAOS_SEED="$seed" \
    cargo run --release -q -p fingers-bench --bin soak_chaos -- --quick > /dev/null
done

# Model-check job: exhaust the bounded interleaving space of the deque,
# cancel, gauge, phoenix-rebuild, and degradation-ladder protocols.
# Release mode because exploration is exponential in schedule points;
# the wall-clock budget is enforced per harness (CheckOptions carries a
# max_duration timeout) and every invariant test *asserts* completeness,
# so a state-space blowup fails loudly instead of truncating silently.
# The conc crate's own suite also proves the explorer catches a seeded
# lost-update and deadlock; the mining suite proves the seeded peek/pop
# TOCTOU bug in claim_racy is still caught. The second pass drops
# default features, proving the instrumented shim and harnesses need
# nothing from the simd stack.
echo "==> model-check job (bounded schedule exploration, default + no-default features)"
cargo test -q --release -p fingers-conc --features model-check
cargo test -q --release -p fingers-mining --features model-check --test model_check
cargo test -q --release -p fingers-server --features model-check --test model_check
cargo test -q --release -p fingers-mining --no-default-features --features model-check --test model_check
cargo test -q --release -p fingers-server --no-default-features --features model-check --test model_check
# State-space stats + seeded-bug gate: conc_check exits non-zero if any
# invariant harness reports a violation/truncation or the racy fixture's
# bug goes uncaught (its JSON is what BENCH_conc_check.json records).
cargo run --release -q -p fingers-server --features model-check --bin conc_check > /dev/null

# Checkpoint/resume smoke: run the first two sections of a quick run_all,
# stop (simulating an interruption), resume, and assert the manifest ends
# with every section completed exactly once.
echo "==> run_all --quick checkpoint/resume smoke"
RESUME_DIR="$(mktemp -d)"
trap 'rm -rf "$RESUME_DIR"' EXIT
FINGERS_RESULTS_DIR="$RESUME_DIR" FINGERS_MAX_SECTIONS=2 \
  cargo run --release -q -p fingers-bench --bin run_all -- --quick > /dev/null
FINGERS_RESULTS_DIR="$RESUME_DIR" \
  cargo run --release -q -p fingers-bench --bin run_all -- --quick --resume > /dev/null
for section in table1 table2 fig9 fig10 fig11 fig12 fig13 table3 \
               parallelism bitmap_kernels count_fusion simd_kernels \
               steal_balance energy ablations service_latency soak_chaos; do
  n="$(grep -c "\"section\": \"$section\"" "$RESUME_DIR/run_all_manifest.jsonl" || true)"
  if [ "$n" -ne 1 ]; then
    echo "resume smoke: section $section appears $n times in the manifest (want 1)" >&2
    exit 1
  fi
done

# Daemon smoke: start the query service, drive a scripted client mix
# (successful count checked against the one-shot --json schema, a
# rejected-unsound plan, a deadline expiry, an explicit cancellation of a
# queued query, stats), then assert clean shutdown and the documented
# exit codes. --workers 1 serialises the pool so the cancellation target
# deterministically queues behind the ~3 s "plug" query.
echo "==> daemon smoke (serve/client query mix + clean shutdown)"
MINE=target/release/fingers-mine
DAEMON_DIR="$(mktemp -d)"
trap 'rm -rf "$RESUME_DIR" "$DAEMON_DIR"; [ -n "${SERVE_PID:-}" ] && kill "$SERVE_PID" 2>/dev/null; [ -n "${SERVE2_PID:-}" ] && kill "$SERVE2_PID" 2>/dev/null || true' EXIT
SOCK="$DAEMON_DIR/fingers.sock"
"$MINE" serve --socket "$SOCK" \
  --load g=gen:pl:3000:36000:7 --load slow=gen:pl:4000:80000:18 \
  --workers 1 --queue-depth 4 --max-threads 1 \
  > "$DAEMON_DIR/serve.log" 2>&1 &
SERVE_PID=$!
# Readiness probe: poll the ping op until the daemon answers ok. Unlike
# waiting for the socket file, a ping round-trip proves the listener,
# scheduler pool, and gauge are all live before the mix starts.
ready=0
for _ in $(seq 1 100); do
  if "$MINE" client --socket "$SOCK" '{"op":"ping"}' 2>/dev/null \
      | grep -q '"status":"ok"'; then
    ready=1
    break
  fi
  sleep 0.1
done
[ "$ready" -eq 1 ] || { echo "daemon smoke: daemon never answered ping" >&2; exit 1; }

# Successful count (exit 0) whose total matches the one-shot --json run.
RESP="$("$MINE" client --socket "$SOCK" \
  '{"op":"count","graph":"g","patterns":["tc"],"threads":1}')"
echo "$RESP" | grep -q '"status":"ok"' \
  || { echo "daemon smoke: count response not ok: $RESP" >&2; exit 1; }
DAEMON_TOTAL="$(echo "$RESP" | sed 's/.*"total":\([0-9]*\).*/\1/')"
ONESHOT_TOTAL="$("$MINE" --graph gen:pl:3000:36000:7 --pattern tc --threads 1 --json \
  | sed 's/.*"total":\([0-9]*\).*/\1/')"
if [ "$DAEMON_TOTAL" != "$ONESHOT_TOTAL" ]; then
  echo "daemon smoke: daemon total $DAEMON_TOTAL != one-shot total $ONESHOT_TOTAL" >&2
  exit 1
fi

# An unsound plan is rejected with the verifier exit code (7).
set +e
"$MINE" client --socket "$SOCK" \
  '{"op":"verify-plan","pattern":"tt","mutate":"drop-init"}' > /dev/null
code=$?
set -e
if [ "$code" -ne 7 ]; then
  echo "daemon smoke: unsound verify-plan exited $code (want 7)" >&2
  exit 1
fi

# A deadline expiry reports a cancelled status (exit 9, reason deadline).
set +e
DEADLINE_RESP="$("$MINE" client --socket "$SOCK" \
  '{"op":"count","graph":"slow","patterns":["6cl"],"timeout_ms":1}')"
code=$?
set -e
if [ "$code" -ne 9 ]; then
  echo "daemon smoke: deadline query exited $code (want 9)" >&2
  exit 1
fi
echo "$DEADLINE_RESP" | grep -q '"reason":"deadline"' \
  || { echo "daemon smoke: deadline response: $DEADLINE_RESP" >&2; exit 1; }

# Explicit cancel: the plug occupies the single worker, the victim queues
# behind it and is cancelled while waiting; its client must exit 9 with a
# cancelled reason and no counts.
"$MINE" client --socket "$SOCK" \
  '{"op":"count","id":"plug","graph":"slow","patterns":["6cl"]}' \
  > "$DAEMON_DIR/plug.out" 2>&1 &
PLUG_PID=$!
sleep 0.3
"$MINE" client --socket "$SOCK" \
  '{"op":"count","id":"victim","graph":"slow","patterns":["6cl"]}' \
  > "$DAEMON_DIR/victim.out" 2>&1 &
VICTIM_PID=$!
found=0
for _ in $(seq 1 50); do
  if "$MINE" client --socket "$SOCK" '{"op":"cancel","id":"victim"}' \
      | grep -q '"found":true'; then
    found=1
    break
  fi
  sleep 0.1
done
[ "$found" -eq 1 ] || { echo "daemon smoke: cancel never found the victim" >&2; exit 1; }
set +e
wait "$VICTIM_PID"
code=$?
set -e
if [ "$code" -ne 9 ]; then
  echo "daemon smoke: cancelled victim exited $code (want 9)" >&2
  exit 1
fi
grep -q '"reason":"cancelled"' "$DAEMON_DIR/victim.out" \
  || { echo "daemon smoke: victim response: $(cat "$DAEMON_DIR/victim.out")" >&2; exit 1; }
if grep -q '"counts"' "$DAEMON_DIR/victim.out"; then
  echo "daemon smoke: cancelled victim leaked partial counts" >&2
  exit 1
fi
"$MINE" client --socket "$SOCK" '{"op":"cancel","id":"plug"}' > /dev/null
set +e
wait "$PLUG_PID"
set -e

# Stats reflect the mix, then shutdown: the client sees ok (exit 0), the
# daemon exits 0 and removes its socket.
"$MINE" client --socket "$SOCK" '{"op":"stats"}' | grep -q '"cancelled":' \
  || { echo "daemon smoke: stats response missing scheduler counters" >&2; exit 1; }
"$MINE" client --socket "$SOCK" '{"op":"shutdown"}' | grep -q '"status":"ok"' \
  || { echo "daemon smoke: shutdown was not acknowledged" >&2; exit 1; }
set +e
wait "$SERVE_PID"
code=$?
set -e
SERVE_PID=""
if [ "$code" -ne 0 ]; then
  echo "daemon smoke: daemon exited $code (want 0)" >&2
  exit 1
fi
[ ! -S "$SOCK" ] || { echo "daemon smoke: socket file survived shutdown" >&2; exit 1; }

# Governance smoke: a daemon whose engine carries a 1-byte per-query
# budget must fail a heavy count typed (`mem-budget`, client exit 11,
# no counts), and SIGTERM must take the daemon down cleanly — exit 0,
# socket removed — via the signal path rather than the protocol
# shutdown op exercised above.
echo "==> governance smoke (mem-budget exit 11 + SIGTERM clean shutdown)"
SOCK2="$DAEMON_DIR/fingers-governed.sock"
"$MINE" serve --socket "$SOCK2" --load g=gen:pl:3000:36000:7 \
  --workers 1 --query-mem-budget 1 \
  > "$DAEMON_DIR/serve2.log" 2>&1 &
SERVE2_PID=$!
ready=0
for _ in $(seq 1 100); do
  if "$MINE" client --socket "$SOCK2" '{"op":"ping"}' 2>/dev/null \
      | grep -q '"gauge_bytes"'; then
    ready=1
    break
  fi
  sleep 0.1
done
[ "$ready" -eq 1 ] || { echo "governance smoke: daemon never answered ping" >&2; exit 1; }
set +e
BUDGET_RESP="$("$MINE" client --socket "$SOCK2" \
  '{"op":"count","graph":"g","patterns":["4cl"],"threads":1}')"
code=$?
set -e
if [ "$code" -ne 11 ]; then
  echo "governance smoke: budget-violating query exited $code (want 11)" >&2
  exit 1
fi
echo "$BUDGET_RESP" | grep -q '"kind":"mem-budget"' \
  || { echo "governance smoke: budget response: $BUDGET_RESP" >&2; exit 1; }
if echo "$BUDGET_RESP" | grep -q '"counts"'; then
  echo "governance smoke: budget abort leaked partial counts" >&2
  exit 1
fi
kill -TERM "$SERVE2_PID"
set +e
wait "$SERVE2_PID"
code=$?
set -e
SERVE2_PID=""
if [ "$code" -ne 0 ]; then
  echo "governance smoke: SIGTERM shutdown exited $code (want 0)" >&2
  exit 1
fi
[ ! -S "$SOCK2" ] || { echo "governance smoke: socket survived SIGTERM" >&2; exit 1; }

echo "==> CI green"
