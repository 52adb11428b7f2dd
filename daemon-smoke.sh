#!/usr/bin/env bash
# The daemon end to end, as an operator runs it (make daemon-smoke):
#
#	bash daemon-smoke.sh
#
# Builds quickstored and qsctl, starts an archiving daemon on a file volume,
# puts an object, reads stats, takes a backup, puts a second object and stops
# the daemon with SIGTERM. Then restores the volume from the archive into a
# new file, starts a daemon with default flags on it and reads both objects
# back. Everything lives in one directory under $TMPDIR, removed on exit.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
work="$(mktemp -d "${TMPDIR:-/tmp}/daemon-smoke.XXXXXX")"
pid=""
cleanup() {
	if [ -n "$pid" ]; then kill "$pid" 2>/dev/null || true; wait "$pid" 2>/dev/null || true; fi
	rm -rf "$work"
}
trap cleanup EXIT
fail() {
	echo "daemon-smoke: $*" >&2
	for f in "$work"/*.log; do [ -e "$f" ] && { echo "--- $f" >&2; cat "$f" >&2; }; done
	exit 1
}

(cd "$root" && go build -o "$work/quickstored" ./cmd/quickstored && go build -o "$work/qsctl" ./cmd/qsctl)

# start <log> <quickstored flags...>: run a daemon on a free port; sets pid
# and addr once it logs that it is listening.
start() {
	local log="$work/$1"
	shift
	"$work/quickstored" -addr 127.0.0.1:0 "$@" 2>"$log" &
	pid=$!
	for _ in $(seq 100); do
		addr="$(sed -n 's/.*listening on \([^ ]*\).*/\1/p' "$log")"
		[ -n "$addr" ] && return 0
		kill -0 "$pid" 2>/dev/null || { pid=""; fail "quickstored $* exited before listening"; }
		sleep 0.1
	done
	fail "quickstored $* did not listen within 10 s"
}
qsctl() { "$work/qsctl" -addr "$addr" "$@"; }

start daemon.log -data "$work/vol.db" -archive-dir "$work/archive"
first="$(qsctl put first)" || fail "put"
stats="$(qsctl stats)" || fail "stats"
[ -n "$stats" ] || fail "stats printed nothing"
qsctl backup >/dev/null || fail "backup"
second="$(qsctl put second)" || fail "second put"
kill -TERM "$pid"
wait "$pid" || true # shutdown may exit 1 racing the accept loop; the log says whether it checkpointed
pid=""
grep -q "shutting down: checkpointing" "$work/daemon.log" || fail "daemon did not shut down cleanly"

"$work/qsctl" restore -archive-dir "$work/archive" -data "$work/restored.db" -mode esm >"$work/restore.log" 2>&1 ||
	fail "restore"
start restored.log -data "$work/restored.db"
[ "$(qsctl get "$first")" = first ] || fail "get $first on the restored volume"
[ "$(qsctl get "$second")" = second ] || fail "get $second on the restored volume"
echo "daemon-smoke: ok ($first and $second read back from a restored volume)"
