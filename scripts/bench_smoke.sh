#!/bin/sh
# Benchmark regression-gate smoke: a quick-mode bench run must feed the
# ledger, pass its own gate, trip the gate on a synthetic regression and
# on a dropped lane, and be refused against a run recorded under a
# different config.
# Wired to the @bench-smoke dune alias (see the root dune file); not
# part of @runtest because the bench lane costs a few wall-clock
# seconds.
set -eu

VSTAMP="$1"
BENCH="$2"
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

"$BENCH" --quick --out "$tmpdir/run.json" --history "$tmpdir/history.jsonl" \
  >/dev/null

# every run appends exactly one ledger entry
[ "$(wc -l < "$tmpdir/history.jsonl")" -eq 1 ] || {
  echo "bench smoke: history did not gain exactly one entry" >&2
  exit 1
}
"$VSTAMP" bench history "$tmpdir/history.jsonl" >/dev/null

# self-comparison must pass even at zero tolerance
"$VSTAMP" bench check --baseline "$tmpdir/run.json" "$tmpdir/run.json" \
  --tolerance 0 >/dev/null

# a synthetic latency blow-up must trip the gate
sed 's|"ops/stamp/update d8":[0-9.e+-]*|"ops/stamp/update d8":9e9|' \
  "$tmpdir/run.json" > "$tmpdir/slow.json"
if "$VSTAMP" bench check --baseline "$tmpdir/run.json" "$tmpdir/slow.json" \
  --tolerance 50 >/dev/null 2>&1; then
  echo "bench smoke: gate missed a synthetic regression" >&2
  exit 1
fi

# a lane that vanished (here: one latency case dropped) must trip the
# gate under the same config, and diff must name it
sed 's|"ops/stamp/update d8":[0-9.e+-]*,||' \
  "$tmpdir/run.json" > "$tmpdir/dropped.json"
if grep -q '"ops/stamp/update d8"' "$tmpdir/dropped.json"; then
  echo "bench smoke: could not drop a lane from the run" >&2
  exit 1
fi
if "$VSTAMP" bench check --baseline "$tmpdir/run.json" \
  "$tmpdir/dropped.json" --tolerance 50 >/dev/null 2>&1; then
  echo "bench smoke: gate passed a run with a missing lane" >&2
  exit 1
fi
"$VSTAMP" bench diff "$tmpdir/run.json" "$tmpdir/dropped.json" \
  | grep -q 'latency/ops/stamp/update d8' || {
  echo "bench smoke: diff did not list the missing lane" >&2
  exit 1
}

# runs recorded under different configs (here: the same run with its
# recorded bechamel budget edited) must be refused, not misjudged
sed 's|"latency_limit":[0-9]*|"latency_limit":31337|' \
  "$tmpdir/run.json" > "$tmpdir/other_config.json"
if "$VSTAMP" bench check --baseline "$tmpdir/other_config.json" \
  "$tmpdir/run.json" --tolerance 50 >/dev/null 2>&1; then
  echo "bench smoke: gate compared runs with different configs" >&2
  exit 1
fi

# ...and --ignore-config must still allow an informational diff
"$VSTAMP" bench diff --ignore-config "$tmpdir/other_config.json" \
  "$tmpdir/run.json" >/dev/null

echo "bench smoke ok"
