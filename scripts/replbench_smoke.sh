#!/bin/sh
# Replication-benchmark correctness smoke: run the already-built
# replbench executable with the layer-traced replay on (--trace 1) over
# its three workloads and require every run to report "correct": true
# and "failed": 0.  sparse-dirty runs 5 s: 1 s gives too few episodes
# for a defined tail, which the benchmark reports as correct:false.
# Wired to the @replbench-smoke dune alias (see the root dune file);
# not part of @runtest because it runs real TCP meshes for ~17 s.
set -eu

RB="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
# the traced replay writes its span logs under ./.replbench
cd "$tmpdir"

run() {
  workload=$1
  seconds=$2
  out="$tmpdir/$workload.out"
  if ! "$RB" --workload "$workload" --seed 1 --seconds "$seconds" \
    --trace 1 > "$out" 2> "$tmpdir/$workload.err"; then
    echo "replbench smoke: $workload exited non-zero" >&2
    cat "$tmpdir/$workload.err" >&2
    exit 1
  fi
  result=$(tail -n 1 "$out")
  case "$result" in
    *'"correct": true'*) ;;
    *)
      echo "replbench smoke: $workload not correct: $result" >&2
      exit 1
      ;;
  esac
  case "$result" in
    *'"failed": 0,'*) ;;
    *)
      echo "replbench smoke: $workload had failed sessions: $result" >&2
      exit 1
      ;;
  esac
  echo "replbench smoke: $workload ok"
}

run sparse-dirty 5
run hot-conflict 1
run catch-up 1

echo "replbench smoke ok"
