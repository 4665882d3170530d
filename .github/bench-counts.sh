#!/usr/bin/env bash
# Checks the benchmark's host-independent counts against the committed
# record .github/bench-counts.json. For each workload it runs a short
# traced pass (exact per-layer counts) and a 1 s untraced pass
# (sim_cycles), fails if either run reports an incorrect result, and
# requires every recorded count to match exactly. Timings are not
# compared: they depend on the host.
#
#	bash .github/bench-counts.sh           # check (CI)
#	bash .github/bench-counts.sh --write   # regenerate the record
#
# Run it from the root of the repository.
set -euo pipefail

record=.github/bench-counts.json
workloads=(compile sim-vm sim-interp-realmem serve-hit serve-miss)
traced=(sim.events sim.ops_fired pegasus.nodes_built pegasus.nodes_final opt.mem_ops_removed
	memsys.requests memsys.l1_hit_ratio memsys.stall_cycles memsys.tlb_misses)
# Scratch output stays in the checkout, under bench/run.sh's ignored
# build directory.
out=.bench_build/counts
mkdir -p "$out"

# last runs the benchmark and keeps its last line, the result as JSON.
# A failed run (exit 1: an operation failed) prints its output and stops
# the script.
last() {
	if ! bash bench/run.sh "$@" >"$out/run.txt"; then
		cat "$out/run.txt" >&2
		return 1
	fi
	tail -n 1 "$out/run.txt"
}

got='{}'
for w in "${workloads[@]}"; do
	t=$(last --workload "$w" --seed 1 --seconds 3 --trace 1)
	u=$(last --workload "$w" --seed 1 --seconds 1 --trace 0)
	for r in "$t" "$u"; do
		if [ "$(jq -r .correct <<<"$r")" != true ]; then
			echo "$w: run not correct: $r" >&2
			exit 1
		fi
	done
	counts=$(jq -c --argjson names "$(printf '%s\n' "${traced[@]}" | jq -R . | jq -sc .)" \
		--argjson u "$u" \
		'[.metrics as $m | $names[] | {key: ., value: $m[.].value}] | from_entries
		 + {sim_cycles: $u.metrics.sim_cycles.value}' <<<"$t")
	got=$(jq -c --arg w "$w" --argjson c "$counts" '. + {($w): $c}' <<<"$got")
done

if [ "${1:-}" = --write ]; then
	jq -S . <<<"$got" >"$record"
	echo "wrote $record"
	exit 0
fi
if ! diff <(jq -S . "$record") <(jq -S . <<<"$got"); then
	echo "benchmark counts differ from $record (< record, > this tree)" >&2
	exit 1
fi
echo "benchmark counts match $record"
