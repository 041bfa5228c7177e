#!/usr/bin/env bash
# The full static + dynamic verification gate, in escalating order of
# cost. Everything here runs offline; a clean exit means the tree is
# shippable.
#
#   ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== source lint (ssq-lint via xtask) =="
# Token-aware engine (DESIGN.md §10): findings are diffed against the
# checked-in lint-baseline.txt and any NEW finding fails the gate. The
# machine-readable report is captured for tooling. After deliberately
# accepting a finding, regenerate the baseline with
#   cargo run -p xtask -- lint --update-baseline
# and commit the diff.
mkdir -p results
cargo run --quiet -p xtask -- lint --json > results/lint.json

echo "== baseline shrink gate =="
# The baseline may only lose entries over time (see the policy header in
# lint-baseline.txt): any change that GROWS the entry count versus the
# committed copy fails here. Skipped when git or the committed copy is
# unavailable (fresh checkouts, tarball builds).
if committed=$(git show HEAD:lint-baseline.txt 2>/dev/null); then
  now=$(grep -vc '^#' lint-baseline.txt || true)
  then=$(printf '%s\n' "$committed" | grep -vc '^#' || true)
  if [ "$now" -gt "$then" ]; then
    echo "lint-baseline.txt grew: $then -> $now entries." >&2
    echo "Fix the site, rule it out with a type, or waive it with evidence instead of baselining it." >&2
    exit 1
  fi
  echo "baseline entries: $now (committed: $then) — ok"
else
  echo "baseline shrink gate skipped (no git history available)"
fi

echo "== model check + runner conformance, fast tier (xtask) =="
# The fast tier ends with the runner differential battery: every
# scenario must be bit-identical on the dense Runner and the
# idle-skipping BitparRunner. The stepping kernel itself is pinned by
# the digests in tests/golden/, checked by the test suite below.
cargo run --quiet -p xtask -- verify

echo "== release build =="
cargo build --workspace --release

echo "== fault smoke tier (ssq faults) =="
# Every single-fault chaos scenario must either preserve its bounds or
# revoke loudly; a silent violation fails the gate. Each scenario also
# runs without the watchdog on the dense and the idle-skipping runner —
# any divergence between them is reported as a silent violation.
./target/release/ssq faults --smoke --csv

echo "== multi-hop fabric smoke tier (ssq net) =="
# Every topology-fault scenario (dead links, MTBF flaps, node
# partitions — across credit, lossy, and NACK link disciplines) must
# either preserve its end-to-end bounds or revoke loudly at a named
# hop. Each scenario runs twice from the same seed; any divergence is
# reported as a silent violation.
./target/release/ssq net --smoke --csv

echo "== tests =="
# Includes tests/kernel_conformance.rs: the stepping kernel against the
# digests recorded before the decide/commit split was fused.
cargo test -q --workspace

echo "== perf regression gate (xtask bench --quick --diff) =="
# A shortened release-profile probe of the bench matrix (the dense and
# idle-skipping runners, including the periodic idle-skip load), diffed against
# the newest recorded results/BENCH_<n>.json: any cell slower than
# 0.3x its recorded rate fails the gate. Thresholds are deliberately
# loose — this catches order-of-magnitude cliffs, not CI jitter (the
# idle-skipping periodic cell structurally measures ~0.4x its full-matrix
# rate at the quick schedule, since a 500-cycle run amortizes fixed
# costs poorly when skipping makes the measured window tiny); the
# full matrix is recorded once per PR with `bench --json --diff`.
cargo run --quiet --release -p xtask -- bench --quick --diff --threshold 0.3

echo "All checks passed."
