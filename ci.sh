#!/usr/bin/env bash
# The tier-1 gate, in the order fastest-feedback-first:
#   formatting -> clippy (workspace lints, warnings fatal; rustc's
#   `deprecated` lint included) -> clippy over library and binary code
#   (unwrap/expect/panic, lossy casts, float `==`) -> mira-lint (the
#   domain invariants no off-the-shelf lint can express) -> the test
#   suite.
# Run from the workspace root: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Library and binary code only (`--lib --bins`; `#[cfg(test)]` is not
# compiled here): tests may unwrap and cast freely, and clippy has no
# in-tests exemption for casts. A justified site carries
# `#[allow(clippy::<lint>, reason = "...")]`.
echo "==> cargo clippy --workspace --lib --bins (panics, casts, float ==)"
cargo clippy --workspace --lib --bins -- -D warnings \
  -D clippy::unwrap_used -D clippy::expect_used -D clippy::panic \
  -D clippy::cast_possible_truncation -D clippy::cast_sign_loss \
  -D clippy::cast_precision_loss -D clippy::cast_possible_wrap \
  -D clippy::cast_lossless -D clippy::float_cmp

echo "==> mira-lint"
cargo run -q -p mira-lint

# Allowlist drift gate: regenerating from the current findings must
# reproduce the committed lint-allow.toml exactly. Catches both stale
# budgets (fixed sites whose entries were never ratcheted down) and
# hand-edits that no longer match reality.
echo "==> mira-lint allowlist drift"
fresh_allowlist="$(mktemp)"
trap 'rm -f "$fresh_allowlist"' EXIT
cargo run -q -p mira-lint -- --write-allowlist --allowlist "$fresh_allowlist" >/dev/null
if ! diff -u lint-allow.toml "$fresh_allowlist"; then
  echo "ci: lint-allow.toml drifted; run: cargo run -p mira-lint -- --write-allowlist" >&2
  exit 1
fi

echo "==> cargo test"
cargo test -q

# The parallel sweep must be thread-count invariant: run the
# determinism suite with the executor pinned to 1 and then 4 workers.
echo "==> determinism under MIRA_SWEEP_THREADS=1"
MIRA_SWEEP_THREADS=1 cargo test -q -p mira-core --test determinism

echo "==> determinism under MIRA_SWEEP_THREADS=4"
MIRA_SWEEP_THREADS=4 cargo test -q -p mira-core --test determinism

# The same bits without AVX2: `.cargo/config.toml` builds for
# x86-64-v3, where the noise kernels' `f64::floor` is one `roundsd` /
# `vroundpd`; at baseline x86-64 it is a libm call. Rerun the digest and
# determinism suites at the baseline target, in a target dir of their
# own so the main build cache stays warm.
echo "==> golden digests and determinism at baseline x86-64"
RUSTFLAGS="-C target-cpu=x86-64" CARGO_TARGET_DIR=target/baseline-x86-64 \
  cargo test -q -p mira-core --test golden_digests --test determinism

# The observability layer has the same contract: the deterministic
# metrics snapshot must be byte-identical at any worker count.
echo "==> obs metrics determinism under MIRA_SWEEP_THREADS=1"
MIRA_SWEEP_THREADS=1 cargo test -q -p mira-core --test obs_golden

echo "==> obs metrics determinism under MIRA_SWEEP_THREADS=4"
MIRA_SWEEP_THREADS=4 cargo test -q -p mira-core --test obs_golden

# Disabled instrumentation must cost nothing: the harness-free bench
# exits nonzero when the obs-off sweep runs more than 2% slower than
# the plain one.
echo "==> obs overhead gate"
cargo bench -q -p mira-core --bench obs_overhead

# Serve determinism gate: the same scripted NDJSON session, piped
# through `mira-ops serve` on stdio, must produce byte-identical
# replies (and shutdown banner) at 1 and 4 sweep threads — the serve
# layer answers every deterministic query from the same incremental
# engine the batch executor uses.
echo "==> serve smoke gate (scripted stdio session, 1 vs 4 threads)"
serve_script='{"cmd":"ingest","steps":124,"id":1}
{"cmd":"status","id":2}
{"cmd":"figure","figure":"fig2","id":3}
{"cmd":"report","id":4}
{"cmd":"metrics","id":5}
{"cmd":"predict","events":40,"epochs":2,"id":6}
{"cmd":"shutdown","id":7}'
serve_one="$(printf '%s\n' "$serve_script" | MIRA_SWEEP_THREADS=1 cargo run -q -p mira-ops -- serve --step-min 360)"
serve_four="$(printf '%s\n' "$serve_script" | MIRA_SWEEP_THREADS=4 cargo run -q -p mira-ops -- serve --step-min 360)"
if [ "$serve_one" != "$serve_four" ]; then
  echo "ci: serve replies differ between 1 and 4 sweep threads" >&2
  diff <(printf '%s' "$serve_one") <(printf '%s' "$serve_four") >&2 || true
  exit 1
fi
if ! printf '%s' "$serve_one" | grep -q '"shutting_down":true'; then
  echo "ci: serve session did not acknowledge shutdown" >&2
  exit 1
fi

# Columnar store round-trip gate: pack a CSV export, unpack it, and the
# bytes must match exactly; a store-backed export over a sub-span must
# be byte-identical to the simulated export at any sweep thread count.
echo "==> store round-trip gate (pack -> unpack -> byte-compare)"
store_dir="$(mktemp -d)"
cargo run -q -p mira-ops -- export --from 2015-03-01 --to 2015-03-02 \
  --step-min 30 --out "$store_dir/tele.csv"
cargo run -q -p mira-ops -- archive pack --in "$store_dir/tele.csv" \
  --out "$store_dir/tele.mstore" --group-rows 288 >/dev/null
cargo run -q -p mira-ops -- archive unpack --in "$store_dir/tele.mstore" \
  --out "$store_dir/back.csv" >/dev/null
if ! cmp -s "$store_dir/tele.csv" "$store_dir/back.csv"; then
  echo "ci: columnar unpack is not byte-identical to the packed CSV" >&2
  exit 1
fi
# CRLF line ends read like LF on the user path: a CRLF copy of the
# export packs and unpacks to the LF original, byte for byte.
sed 's/$/\r/' "$store_dir/tele.csv" >"$store_dir/tele-crlf.csv"
cargo run -q -p mira-ops -- archive pack --in "$store_dir/tele-crlf.csv" \
  --out "$store_dir/crlf.mstore" --group-rows 288 >/dev/null
cargo run -q -p mira-ops -- archive unpack --in "$store_dir/crlf.mstore" \
  --out "$store_dir/crlf-back.csv" >/dev/null
if ! cmp -s "$store_dir/tele.csv" "$store_dir/crlf-back.csv"; then
  echo "ci: a CRLF copy of the export does not pack and unpack to the LF original" >&2
  exit 1
fi
store_span=(--from "2015-03-01 06:00" --to "2015-03-01 18:00")
export_sim_one="$(MIRA_SWEEP_THREADS=1 cargo run -q -p mira-ops -- export "${store_span[@]}" --step-min 30)"
export_sim_four="$(MIRA_SWEEP_THREADS=4 cargo run -q -p mira-ops -- export "${store_span[@]}" --step-min 30)"
export_store="$(cargo run -q -p mira-ops -- export "${store_span[@]}" --store "$store_dir/tele.mstore")"
if [ "$export_sim_one" != "$export_sim_four" ] || [ "$export_sim_one" != "$export_store" ]; then
  echo "ci: store-backed export differs from the simulated export" >&2
  diff <(printf '%s' "$export_sim_one") <(printf '%s' "$export_store") >&2 || true
  exit 1
fi
# Sub-span scans must prune: the day packs into 8 groups of 288 rows
# (3 hours each), so the 12-hour window may not touch every group.
scan_stats="$(cargo run -q -p mira-ops -- archive scan --in "$store_dir/tele.mstore" \
  "${store_span[@]}" --out /dev/null --stats | grep '^scan:')"
scanned="$(printf '%s' "$scan_stats" | sed -n 's/.* from \([0-9]*\)\/\([0-9]*\) groups.*/\1/p')"
total="$(printf '%s' "$scan_stats" | sed -n 's/.* from \([0-9]*\)\/\([0-9]*\) groups.*/\2/p')"
if [ -z "$scanned" ] || [ -z "$total" ] || [ "$scanned" -ge "$total" ]; then
  echo "ci: sub-span scan did not prune row groups ($scan_stats)" >&2
  exit 1
fi
rm -rf "$store_dir"

# The benchmark (opsbench/) is a workspace of its own, so no step above
# compiles it. One short reproduce run keeps it building against the
# current crates and requires its run to verify. It writes only under
# the gitignored opsbench/target and opsbench/work. `--locked` fails the
# step when a dependency-edge change in a crate would rewrite
# opsbench/Cargo.lock, instead of rewriting it silently.
echo "==> opsbench smoke (reproduce, 1 s)"
opsbench_result="$(cargo run --release --quiet --offline --locked --manifest-path opsbench/Cargo.toml -- \
  --workload reproduce --seed 1 --seconds 1 --trace 0 | tail -n 1)"
if ! printf '%s' "$opsbench_result" | grep -q '"correct":true' ||
  ! printf '%s' "$opsbench_result" | grep -q '"failed":0[,}]'; then
  echo "ci: opsbench reproduce did not verify: $opsbench_result" >&2
  exit 1
fi

echo "ci: all gates green"
