# Developer/CI entry points. `make check` is the gate: vet, qslint (the
# static invariant suite, DESIGN.md §11) and its fixture corpus, build, the
# full test suite under the race detector, the budget-sampled sweeps (crash
# points §8, group commit §9, media failure §10, page corruption §12, fuzzy
# checkpoints §13, failover §14, 2PC §16 — all five schemes each), and one
# pass of the checkpoint latency benchmark (§13).
#
# The race-<subsystem> targets re-run a slice of `race` with -count=1; they
# stay as the repro entry points README.md and DESIGN.md name, but `check`
# does not chain them — `race` has just run every one of those tests.

GO ?= go

.PHONY: check vet lint lint-fixtures build test race sweeps sweep-smoke sweep-full race-concurrent group-sweep-smoke media-sweep-smoke race-archive scrub-sweep-smoke race-scrub race-cleaner fuzzy-sweep-smoke bench-ckpt-smoke bench-commit bench-ckpt race-repl repl-sweep-smoke bench-repl race-shard twopc-sweep-smoke bench-shard

check: vet lint lint-fixtures build race sweeps bench-ckpt-smoke

# Every sweep smoke, each still runnable on its own by the name the docs use.
sweeps: sweep-smoke group-sweep-smoke media-sweep-smoke scrub-sweep-smoke fuzzy-sweep-smoke repl-sweep-smoke twopc-sweep-smoke

vet:
	$(GO) vet ./...

# qslint: latch order (§S9), WAL layering / write-ahead order, sweep
# determinism, stable-storage error discipline, and the §15 dataflow
# protocol analyzers (force-before-ack, latch-io, goroutine-lifecycle,
# sentinel-errors) — over every package including cmd/, plus the harness's
# in-package test files (-tests). Fails on any finding the checked-in
# baseline does not cover, and on stale baseline entries; the JSON report
# is left in lint-report.json for tooling either way.
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

race:
	$(GO) test -race ./...

sweep-smoke:
	$(GO) test ./internal/harness/ -run TestSweepCrashPoints -count=1 -sweep.budget=50

# Exhaustive: replay every enumerated crash point for all five schemes.
sweep-full:
	$(GO) test ./internal/harness/ -run TestSweepCrashPoints -count=1 -sweep.budget=-1 -v

# The concurrency surface (group commit, sharded pool sessions, async WPL
# installer, parallel redo) under the race detector.
race-concurrent:
	$(GO) test -race ./internal/server/ -run 'TestConcurrent|TestGroupCommit|TestWPLAsync|TestParallelRedo' -count=1

# 2-client group-commit crash sweep: every record-boundary cut between group
# formation and the stable flush, one scheme, under -race.
group-sweep-smoke:
	$(GO) test -race ./internal/harness/ -run TestGroupCommitSweepSmoke -count=1

# Media-failure sweep: destroy the volume, restore from the fuzzy online
# backup plus the archived log at every archive boundary event and sampled
# point-in-time cuts, all five schemes (DESIGN.md §10).
media-sweep-smoke:
	$(GO) test ./internal/harness/ -run TestMediaSweepSmoke -count=1

# Archive round-trip (segment/backup framing, truncation gate with batches
# in flight, restore re-runnability, corruption detection) under -race.
race-archive:
	$(GO) test -race ./internal/archive/ -count=1

# Page-corruption sweep: rot/tear every page of a seeded workload below the
# checksum envelope, then demand detection, byte-identical repair (live log
# or archive), restart over a fully damaged volume, and loud typed failure
# when nothing can repair — all five schemes (DESIGN.md §12).
scrub-sweep-smoke:
	$(GO) test ./internal/harness/ -run TestScrubSweepSmoke -count=1

# The online scrubber and single-page repair under the race detector:
# paced scrubbing concurrent with committing sessions.
race-scrub:
	$(GO) test -race ./internal/server/ -run 'TestScrub|TestDemandRead|TestUnrepairable|TestBackgroundScrubber' -count=1

# The background page cleaner and fuzzy checkpoints racing committing
# sessions under the race detector, including crash+restart afterwards
# (DESIGN.md §13).
race-cleaner:
	$(GO) test -race ./internal/server/ -run 'TestCleaner|TestClean|TestMaintenanceDuringRestart' -count=1

# Fuzzy-checkpoint crash sweep: cuts inside cleaner page writes and in the
# fuzzy-checkpoint-record -> superblock window, all five schemes.
fuzzy-sweep-smoke:
	$(GO) test ./internal/harness/ -run 'TestFuzzy' -count=1 -sweep.budget=50

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
# failover protocol (DESIGN.md §14).
race-repl:
	$(GO) test -race ./internal/repl/ -count=1
	$(GO) test -race ./internal/wire/ -run 'TestClientFailover|TestStandby|TestRepl' -count=1

# Failover sweep: cut the shipped stream at every record boundary (budget-
# sampled), promote the standby, and demand byte-equivalence with a
# single-node restart at the same cut plus exact acked-commit durability,
# all five schemes (DESIGN.md §14).
repl-sweep-smoke:
	$(GO) test ./internal/harness/ -run TestReplSweep -count=1

# Commit p50/p99 with a hot standby attached: no replication vs async vs
# semi-sync acks at 8 clients, writing BENCH_repl.json (DESIGN.md §14).
bench-repl:
	$(GO) run ./cmd/benchcommit -repl -out BENCH_repl.json

# The sharding router and cross-shard 2PC paths under the race detector
# (DESIGN.md §16).
race-shard:
	$(GO) test -race ./internal/shard/ -count=1

# Two-shard 2PC sweeps, budget-sampled: crash at globally-numbered stable
# events, and stall every Prepare/Decide/Forget message in turn; demands
# cross-shard atomicity, in-doubt lock retention and idempotent resolution
# for all five schemes (DESIGN.md §16).
twopc-sweep-smoke:
	$(GO) test ./internal/harness/ -run 'TestTwoPC' -count=1 -short

# Scale-out throughput 1..4 shards, disjoint vs 10%-cross-shard mixes,
# writing BENCH_shard.json (DESIGN.md §16).
bench-shard:
	$(GO) run ./cmd/benchcommit -shards 4 -out BENCH_shard.json
