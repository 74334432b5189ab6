#!/bin/sh
# Local CI: build, tests, docs (when odoc is available), CLI smoke.
# Run from the repository root: scripts/ci.sh
set -eu

cd "$(dirname "$0")/.."

echo "== bench ledger presence =="
if [ ! -f BENCH_core.json ]; then
  echo "error: BENCH_core.json is missing from the repository root." >&2
  echo "The perf trajectory needs a committed baseline; regenerate it with" >&2
  echo "  dune exec bench/main.exe" >&2
  echo "and commit BENCH_core.json (and the BENCH_history.jsonl it appends)." >&2
  exit 1
fi
schema=$(sed -n 's/.*"schema":"vstamp-bench-core\/\([0-9][0-9]*\)".*/\1/p' \
  BENCH_core.json)
if [ -z "$schema" ]; then
  echo "error: BENCH_core.json carries no vstamp-bench-core schema field." >&2
  echo "Regenerate it with: dune exec bench/main.exe" >&2
  exit 1
fi
if [ "$schema" -lt 4 ]; then
  echo "error: BENCH_core.json is schema vstamp-bench-core/$schema, which" >&2
  echo "predates /4 (no monitor_overhead block) — the regression gate" >&2
  echo "cannot cover the observability lanes against it.  Regenerate the" >&2
  echo "baseline with: dune exec bench/main.exe" >&2
  exit 1
fi
echo "BENCH_core.json present (schema vstamp-bench-core/$schema)"

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

if command -v odoc >/dev/null 2>&1; then
  echo "== dune build @doc =="
  dune build @doc
else
  echo "== skipping dune build @doc (odoc not installed) =="
fi

echo "== trace smoke (record -> replay byte-identity, exports) =="
dune build @trace-smoke --force

echo "== bench smoke (quick bench -> regression gate pass/fail/refuse) =="
dune build @bench-smoke --force

echo "== replbench smoke (three workloads, traced replay, correct runs) =="
dune build @replbench-smoke --force

echo "== serve smoke (soak server, live scrapes, graceful shutdown) =="
dune build @serve-smoke --force

echo "== lag smoke (partition weather, /lag.json, divergence panel) =="
dune build @lag-smoke --force

echo "== report smoke (flight recorder, alerts, post-mortem) =="
dune build @report-smoke --force

echo "== churn smoke (replica churn, /idspace.json, identity-space panel) =="
dune build @churn-smoke --force

echo "== cluster smoke (3-process cluster, federation, causal merge) =="
dune build @cluster-smoke --force

echo "== net smoke (3-node TCP mesh, convergence, reconnect backoff) =="
dune build @net-smoke --force

echo "== CLI smoke: vstamp metrics =="
dune exec bin/vstamp_cli.exe -- metrics -t stamps -w churn -n 100 >/dev/null
dune exec bin/vstamp_cli.exe -- metrics -t stamps -w churn -n 100 --format prom >/dev/null
dune exec bin/vstamp_cli.exe -- metrics -t stamps -w churn -n 100 --format json >/dev/null

echo "== CLI smoke: deterministic telemetry =="
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
dune exec bin/vstamp_cli.exe -- simulate -t stamps -w churn -n 100 \
  --metrics-out "$tmpdir/a.jsonl" >/dev/null
dune exec bin/vstamp_cli.exe -- simulate -t stamps -w churn -n 100 \
  --metrics-out "$tmpdir/b.jsonl" >/dev/null
cmp "$tmpdir/a.jsonl" "$tmpdir/b.jsonl"

echo "== CLI smoke: stamps agree with the causal-history oracle =="
dune exec bin/vstamp_cli.exe -- simulate -t stamps -w gossip -s 7 -n 120 \
  > "$tmpdir/oracle.out"
grep -q "acc=exact" "$tmpdir/oracle.out"

echo "ok"
