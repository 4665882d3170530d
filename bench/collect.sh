#!/usr/bin/env bash
# Runs every workload RUNS times, each run with its own seed (FIRST_SEED,
# FIRST_SEED+1, ...), and appends the result line of each run to
# OUTDIR/<workload>.jsonl: one set of results for `bench -compare`.
# Seeds are the outer loop, so drift over the collection falls on every
# workload alike. Extra arguments go to every run.
#
#   bash bench/collect.sh OUTDIR RUNS [FIRST_SEED [ARGS...]]
#   bash bench/run.sh -compare OUTDIR_A OUTDIR_B
set -euo pipefail

out=$1 runs=$2 first=${3:-1}
shift $(($# < 3 ? $# : 3))
mkdir -p "$out"
for ((i = 0; i < runs; i++)); do
	for w in compile sim-vm sim-interp-realmem serve-hit serve-miss; do
		bash bench/run.sh --workload "$w" --seed $((first + i)) "$@" | tail -n 1 >>"$out/$w.jsonl"
	done
done
