#!/usr/bin/env bash
# Alternating pairs of bench/ runs, a base commit against this working tree
# (the protocol of bench/README.md, as one command):
#
#	bash bench-pairs.sh BASE [WORKLOAD] [N]       (make bench-pairs BASE=… W=… N=…)
#
# BASE, any git ref, is exported with `git archive` into a directory under
# $TMPDIR and built there by its own bench/run.sh, so each side runs the
# benchmark and the engine of its own commit. Pair i uses seed i on both sides;
# odd pairs run the base first, even pairs this tree. The two runs.jsonl files
# are then compared against BENCHMARK.json's bounds (non-zero exit on a
# regression) and kept, with every run's output, in the directory printed last.
set -euo pipefail
if [ $# -lt 1 ] || [ $# -gt 3 ]; then
	echo "usage: bench-pairs.sh BASE [WORKLOAD] [N]" >&2
	exit 2
fi
base="$1" workload="${2:-}" n="${3:-10}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
work="$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")"
mkdir "$work/base"
git -C "$root" archive "$base" | tar -x -C "$work/base"

# side <checkout> <name> <seed>: one run of that checkout into $work/<name>.
side() {
	echo "## pair $3 of $n: $2" >&2
	(cd "$1" && bash bench/run.sh ${workload:+-workload "$workload"} -seed "$3" -out "$work/$2") \
		>>"$work/$2.log" 2>&1 || { echo "bench-pairs: the $2 side failed; see $work/$2.log" >&2; exit 1; }
}
for i in $(seq 1 "$n"); do
	if [ $((i % 2)) -eq 1 ]; then
		side "$work/base" old "$i"
		side "$root" new "$i"
	else
		side "$root" new "$i"
		side "$work/base" old "$i"
	fi
done
rm -rf "$work/base"
echo "## $n pairs, $base (old) against the working tree (new); runs kept in $work" >&2
cd "$root"
exec bash bench/run.sh -compare "$work/old/runs.jsonl" "$work/new/runs.jsonl"
