# Developer/CI entry points. `make check` is the gate: vet, qslint (the
# static invariant suite, DESIGN.md §11) and its fixture corpus, build, the
# full test suite under the race detector, the budget-sampled sweeps (every
# kind of DESIGN.md §2.3 × all five schemes), one pass of the checkpoint
# latency benchmark (§13), the tests of the bench/ module, which links
# these packages but which `go test ./...` here never reaches, and a short
# run of every fuzz target.
#
# The race-<subsystem> targets re-run a slice of `race` with -count=1; they
# stay as the repro entry points README.md and DESIGN.md name, but `check`
# does not chain them — `race` has just run every one of those tests.

GO ?= go

.PHONY: check vet lint lint-fixtures build test race fuzz-smoke sweeps sweep-smoke sweep-full race-concurrent race-archive race-scrub race-cleaner bench-ckpt-smoke bench-commit bench-ckpt race-repl bench-repl race-shard bench-shard bench-test bench-compare bench-pairs

check: vet lint lint-fixtures build race sweeps bench-ckpt-smoke bench-test fuzz-smoke

# Every sweep kind (crash, fuzzy, restart-crash, group, media, scrub, repl,
# twopc, twopc-stall — DESIGN.md §2.3) over all five schemes, 50 sampled
# points each; the group kind, whose committers really race, again under the
# race detector.
sweeps: group-sweep-smoke
	$(GO) test ./internal/harness/ -run '^TestSweep$$' -count=1 -sweep.budget=50

# One kind on its own: crash-sweep-smoke, fuzzy-sweep-smoke,
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
# in-package test files (-tests). Fails on any finding the checked-in
# baseline does not cover, and on stale baseline entries; the JSON report
# is left in lint-report.json (untracked) for tooling either way.
lint:
	$(GO) run ./cmd/qslint -tests -baseline lint-baseline.json -json . > lint-report.json

# The analyzer acceptance corpus: every testdata fixture's want comments,
# plus the seeded-violation tests (a planted latch inversion, an
# unforced-ack path, a latched force, a leaked goroutine, a == sentinel
# comparison — each must be caught, proving the suite cannot silently
# lose a detector).
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
# flaky-net armed (its message-fault path), log-record decoding, and replay
# onto a page.
FUZZTIME ?= 10s
FUZZ_TARGETS = internal/wire:FuzzParseRequest internal/wire:FuzzSubFrames internal/wire:FuzzServerAgainstGarbage \
	internal/logrec:FuzzDecode internal/logrec:FuzzEncodeDecode internal/server:FuzzReplay
fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		$(GO) test ./$${t%%:*}/ -run '^$$' -fuzz "^$${t#*:}\$$" -fuzztime $(FUZZTIME) -parallel 2; \
	done

# The concurrency surface (group commit, sharded pool sessions, async WPL
# installer and the install-before-commit-force window, restart's one pass
# held against the per-page rebuilder and writing pages home as it goes, WPL
# restart analysis across sharp and fuzzy checkpoints, the live tables checked
# against analysis of the log after every call) under the race detector.
race-concurrent:
	$(GO) test -race ./internal/server/ -run 'TestConcurrent|TestGroupCommit|TestWPLAsync|TestWPLInstallWaits|TestWPLAnalysis|TestRestartMatchesPageRebuilder|TestRestartRedoesBelowAnalysisStart|TestRestartHealsYoungTornPage|TestRestartWritesHome|TestLiveTables' -count=1

# Archive round-trip (segment/backup framing, truncation gate with batches
# in flight, restore re-runnability, corruption detection) under -race.
race-archive:
	$(GO) test -race ./internal/archive/ -count=1

# The online scrubber and single-page repair under the race detector:
# paced scrubbing concurrent with committing sessions.
race-scrub:
	$(GO) test -race ./internal/server/ -run 'TestScrub|TestDemandRead|TestUnrepairable|TestBackgroundScrubber' -count=1

# The background page cleaner and fuzzy checkpoints racing committing
# sessions under the race detector, including crash+restart afterwards
# (DESIGN.md §13), and the write-ahead regression that evicts and cleans a
# page whose newest record straddles the stable end (§2.4).
race-cleaner:
	$(GO) test -race ./internal/server/ -run 'TestCleaner|TestClean|TestMaintenanceDuringRestart|TestWriteAhead' -count=1

# One pass of the checkpoint latency benchmark as a smoke: proves both arms
# run end to end; the report goes to a scratch file, not the repo.
bench-ckpt-smoke:
	$(GO) run ./cmd/benchcommit -ckpt -out $${TMPDIR:-/tmp}/BENCH_checkpoint_smoke.json

# Multi-client commit-throughput benchmark: group commit at 1/2/4/8
# clients, per scheme, writing BENCH_commit.json — plus the same grid over a
# checksummed volume (BENCH_commit_checksum.json) so the integrity tax of
# the per-page CRC envelope stays visible in the perf trajectory.
bench-commit:
	$(GO) run ./cmd/benchcommit -out BENCH_commit.json
	$(GO) run ./cmd/benchcommit -checksum -out BENCH_commit_checksum.json

# Commit p99 during an active checkpoint, sharp stop-the-world flush vs
# fuzzy checkpoint + background cleaner, writing BENCH_checkpoint.json
# (DESIGN.md §13).
bench-ckpt:
	$(GO) run ./cmd/benchcommit -ckpt -out BENCH_checkpoint.json

# The replication surface under the race detector: the shipper's fetch/ack
# paths, the continuously-applying standby, promotion, and the wire-level
# failover protocol (DESIGN.md §14), and the engine's own standby tests —
# ApplyShipped's table mirror checked against analysis of the standby's log,
# and the WPL copy a shipped checkpoint must not reclaim.
race-repl:
	$(GO) test -race ./internal/repl/ -count=1
	$(GO) test -race ./internal/wire/ -run 'TestClientFailover|TestStandby|TestRepl' -count=1
	$(GO) test -race ./internal/server/ -run 'TestStandby|TestPromote' -count=1

# Commit p50/p99 with a hot standby attached: no replication vs async vs
# semi-sync acks at 8 clients, writing BENCH_repl.json (DESIGN.md §14).
bench-repl:
	$(GO) run ./cmd/benchcommit -repl -out BENCH_repl.json

# The sharding router and cross-shard 2PC paths under the race detector
# (DESIGN.md §16), and Decide racing checkpoints, a crash and its own
# re-delivery on one shard (§2.5).
race-shard:
	$(GO) test -race ./internal/shard/ -count=1
	$(GO) test -race ./internal/server/ -run 'TestDecideRaces|TestRedeliveredDecide' -count=1

# Scale-out throughput 1..4 shards, disjoint vs 10%-cross-shard mixes,
# writing BENCH_shard.json (DESIGN.md §16).
bench-shard:
	$(GO) run ./cmd/benchcommit -shards 4 -out BENCH_shard.json

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
