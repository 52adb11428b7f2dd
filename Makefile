# Developer/CI entry points. `make check` is the gate: vet, qslint (the
# static invariant suite, DESIGN.md §11) and its fixture corpus, build, the
# full test suite under the race detector, the budget-sampled sweeps (every
# kind of DESIGN.md §2.3 × all five schemes), one iteration of each per-layer
# microbenchmark, the tests of the bench/ module, which links these packages
# but which `go test ./...` here never reaches, a short run of every fuzz
# target and one daemon driven end to end through qsctl (daemon-smoke).
# Checkpoints and the page cleaner racing concurrent commits (§13) are
# covered by TestCleanerConcurrentWithCommits, under `race` and
# `race-cleaner`.
#
# The race-<subsystem> targets re-run a slice of `race` with -count=1; they
# stay as the repro entry points README.md and DESIGN.md name, but `check`
# does not chain them — `race` has just run every one of those tests.

GO ?= go

.PHONY: check vet lint lint-fixtures build test race fuzz-smoke daemon-smoke sweeps sweep-smoke sweep-full race-concurrent race-archive race-scrub race-cleaner bench-micro bench-micro-smoke race-repl race-shard bench-test bench-compare bench-pairs results-full results-check loc

check: vet lint lint-fixtures build race sweeps bench-micro-smoke bench-test fuzz-smoke daemon-smoke

# Every sweep kind (crash, cleaner, restart-crash, group, media, scrub, repl,
# twopc, twopc-stall — DESIGN.md §2.3) over all five schemes, 50 sampled
# points each; the group kind, whose committers really race, again under the
# race detector.
sweeps: group-sweep-smoke
	$(GO) test ./internal/harness/ -run '^TestSweep$$' -count=1 -sweep.budget=50

# One kind on its own: crash-sweep-smoke, cleaner-sweep-smoke,
# restart-crash-sweep-smoke, group-sweep-smoke (under -race),
# media-sweep-smoke, scrub-sweep-smoke, repl-sweep-smoke, twopc-sweep-smoke
# (a prefix match: twopc and twopc-stall). sweep-smoke is the crash kind's
# older name.
%-sweep-smoke:
	$(GO) test $(if $(filter group,$*),-race) ./internal/harness/ -run '^TestSweep$$/^$*' -count=1 -sweep.budget=50

sweep-smoke: crash-sweep-smoke

# Exhaustive: replay every enumerated point, all five schemes — of every
# kind, or of one (crash-sweep-full, twopc-sweep-full, ...).
sweep-full:
	$(GO) test ./internal/harness/ -run '^TestSweep$$' -count=1 -sweep.budget=-1 -v

%-sweep-full:
	$(GO) test ./internal/harness/ -run '^TestSweep$$/^$*' -count=1 -sweep.budget=-1 -v

vet:
	$(GO) vet ./...

# qslint: latch order (§S9), WAL layering / write-ahead order, sweep
# determinism, stable-storage error discipline, and the dataflow
# protocol analyzers (force-before-ack, latch-io, goroutine-lifecycle,
# sentinel-errors) — over every package including cmd/, plus the harness's
# in-package test files (-tests). Fails on any finding that no
# `//qslint:allow` with a reason suppresses; the JSON report is left in
# lint-report.json (untracked) for tooling either way.
lint:
	$(GO) run ./cmd/qslint -tests -json . > lint-report.json

# The analyzer acceptance corpus: every testdata fixture's want comments,
# plus the seeded-violation tests (a planted latch inversion, an
# unforced-ack path, a latched force, a log sync under the log's mutex, a
# leaked goroutine, a == sentinel comparison — each must be caught, proving
# the suite cannot silently lose a detector).
lint-fixtures:
	$(GO) test ./internal/lint/ -count=1

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The harness package alone takes ~9 minutes under the race detector (the
# paper-shape tests, then the sweeps): past go test's 10-minute default on a
# slow box.
race:
	$(GO) test -race -timeout 30m ./...

# Every fuzz target for FUZZTIME each (go test fuzzes one target per run):
# the wire frame parser and its batch parser, a live daemon fed garbage with
# flaky-net armed (its message-fault path), log-record decoding, replay onto
# a page, the checkpoint payload decoder (a standby decodes its primary's),
# and the archive's segment decoder (blobs read from a directory).
FUZZTIME ?= 10s
FUZZ_TARGETS = internal/wire:FuzzParseRequest internal/wire:FuzzSubFrames internal/wire:FuzzServerAgainstGarbage \
	internal/logrec:FuzzDecode internal/logrec:FuzzEncodeDecode internal/server:FuzzReplay \
	internal/server:FuzzDecodeCkpt internal/archive:FuzzDecodeSegment
fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		$(GO) test ./$${t%%:*}/ -run '^$$' -fuzz "^$${t#*:}\$$" -fuzztime $(FUZZTIME) -parallel 2; \
	done

# Build quickstored and qsctl, run an archiving daemon (put, stats, backup,
# put, SIGTERM), restore its volume from the archive into a new file and read
# both objects back through a daemon started on it with default flags.
daemon-smoke:
	bash daemon-smoke.sh

# The concurrency surface (the log's one flush routine — appends during a
# held sync, groups formed behind a slow sync, a crash while a sync is in
# flight — group commit in the server, sharded pool sessions, WPL commit
# installs racing eviction installs and the install-before-commit-force
# window, restart's one pass
# held against the per-page rebuilder and writing pages home as it goes, WPL
# restart analysis across checkpoints with and without a logged DPT, the
# live tables checked against analysis of the log after every call) under
# the race detector.
race-concurrent:
	$(GO) test -race ./internal/wal/ -count=1
	$(GO) test -race ./internal/server/ -run 'TestConcurrent|TestGroupCommit|TestWPLInlineInstall|TestWPLInstallWaits|TestWPLAnalysis|TestRestartMatchesPageRebuilder|TestRestartRedoesBelowAnalysisStart|TestRestartHealsYoungTornPage|TestRestartWritesHome|TestLiveTables' -count=1

# Archive round-trip (segment/backup framing, truncation gate with batches
# in flight, restore re-runnability, corruption detection) under -race.
race-archive:
	$(GO) test -race ./internal/archive/ -count=1

# The online scrubber and single-page repair under the race detector:
# paced scrubbing concurrent with committing sessions.
race-scrub:
	$(GO) test -race ./internal/server/ -run 'TestScrub|TestDemandRead|TestUnrepairable|TestBackgroundScrubber' -count=1

# The background page cleaner and checkpoints racing committing sessions
# under the race detector, including crash+restart afterwards, a commit
# landing while a checkpoint writes pages (DESIGN.md §13), and the
# write-ahead regression that evicts and cleans a page whose newest record
# straddles the stable end (§2.4).
race-cleaner:
	$(GO) test -race ./internal/server/ -run 'TestCleaner|TestClean|TestMaintenanceDuringRestart|TestCommitLandsWhileCheckpointWritesPages|TestWriteAhead' -count=1

# The per-layer microbenchmarks, ns/op and allocs/op each: a WAL append,
# restart phase by phase, the dereference of a resident object, a T1
# traversal by a client whose pool holds half the module and by one whose
# pool holds all of it (the dereferences without page faults), a T2B update
# traversal by a PD-ESM and an SD-ESM client with a 96 KB recovery buffer,
# one shipped 8 KB log page of 8-byte updates into an ESM server, a one-object
# update over loopback TCP with its request frames per transaction, and a
# page fetch over loopback TCP that misses both pools (its B/op is the
# whole process's, client and daemon). The smoke runs each benchmark once.
BENCH_MICRO = $(GO) test ./internal/wal/ ./internal/server/ ./internal/client/ ./internal/oo7/ ./internal/wire/ -run '^$$' \
	-bench '^Benchmark(Append|Restart|ReadObject|TraverseT1|TraverseT2B|ShipLog|OneObjectUpdate|PageFetch)$$' -benchmem
bench-micro:
	$(BENCH_MICRO)

bench-micro-smoke:
	$(BENCH_MICRO) -benchtime=1x

# The replication surface under the race detector: the shipper's fetch/ack
# paths, the continuously-applying standby, promotion, and the wire-level
# failover protocol (DESIGN.md §14), and the engine's own standby tests —
# ApplyShipped's table mirror checked against analysis of the standby's log,
# and the WPL copy a shipped checkpoint must not reclaim.
race-repl:
	$(GO) test -race ./internal/repl/ -count=1
	$(GO) test -race ./internal/wire/ -run 'TestClientFailover|TestStandby|TestRepl' -count=1
	$(GO) test -race ./internal/server/ -run 'TestStandby|TestPromote' -count=1

# The sharding router and cross-shard 2PC paths under the race detector
# (DESIGN.md §16), and Decide racing checkpoints, a crash and its own
# re-delivery on one shard (§2.5).
race-shard:
	$(GO) test -race ./internal/shard/ -count=1
	$(GO) test -race ./internal/server/ -run 'TestDecideRaces|TestRedeliveredDecide' -count=1

# bench/ is its own module (replace repro => ../): compile and run its tests
# against this tree's engine.
bench-test:
	cd bench && $(GO) test ./...

# The regression gate in one command: two runs.jsonl files (bench/README.md:
# each side run at least ten times into its own -out directory, alternating)
# compared metric by metric against BENCHMARK.json's bounds; non-zero exit on
# a regression.
#   make bench-compare OLD=old/runs.jsonl NEW=new/runs.jsonl
bench-compare:
	bash bench/run.sh -compare $(OLD) $(NEW)

# The two files for bench-compare in one command: BASE (any git ref, exported
# with `git archive`) against this working tree, N alternating pairs, seeds
# 1..N, every workload or one (W). ~45 s per workload per run.
#   make bench-pairs BASE=HEAD~1 W=crash-restart N=10
bench-pairs:
	bash bench-pairs.sh $(BASE) $(or $(W),"") $(or $(N),10)

# Regenerate results_full.txt, the simulator's figures and tables (EXPERIMENTS.md
# quotes its cells): every experiment, three measured rounds each. It takes
# several minutes. The output is deterministic apart from its elapsed-time line.
results-full:
	$(GO) run ./cmd/oo7bench -exp all -measure 3 > results_full.txt

# The same output regenerated into a temporary file and compared with the
# checked-in results_full.txt, its elapsed-time line aside: every simulated
# table and figure must be byte-identical. The gate for any change that
# touches a metering site (an engine call to costmodel.Meter.Add) or the OO7
# traversal (internal/oo7/traverse.go), whose dereferences and visits are
# what the simulator's demand vectors count; several minutes, so not part of
# check.
results-check:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/oo7bench -exp all -measure 3 > "$$tmp/new.txt" || exit 1; \
	grep -v '^(elapsed ' results_full.txt > "$$tmp/want.txt"; \
	grep -v '^(elapsed ' "$$tmp/new.txt" > "$$tmp/got.txt"; \
	diff "$$tmp/want.txt" "$$tmp/got.txt" && echo "results-check: results_full.txt reproduced"

# The non-test Go line count, outside bench/ and the lint fixtures: the size
# figure CHANGES.md quotes, which a simplification should lower. It counts the
# working tree: tracked files that still exist plus untracked, non-ignored
# ones, so the figure is right before a commit as well as after.
loc:
	@git ls-files -co --exclude-standard '*.go' | grep -v '_test.go$$' | grep -v '^bench/' | grep -v '^internal/lint/testdata/' | \
	while read -r f; do [ ! -f "$$f" ] || cat "$$f"; done | wc -l
