package harness

// The repl kind (DESIGN.md §2.3, §14): primary + standby, cut at every
// shipped-record boundary, promotion held byte-identical to single-node
// restart.

import (
	"fmt"
	"math"

	"repro/internal/disk"
	"repro/internal/logrec"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
)

// replLogCapacity is larger than the crash kinds': the standby holder keeps
// truncation behind the drain cursor, so the log briefly carries the whole
// build between drains.
const replLogCapacity = 64 << 20

// replRun is the recorded shipping stream and journal of one workload
// execution. The journal's clock is the primary's stable end, and each
// stamp's post the end of its commit record: a stream prefix ending at cut
// covers a stamp iff post ≤ cut, and a cut in (pre, post) caught it
// partially shipped.
type replRun struct {
	sys  SweepSystem
	recs []*logrec.Record
	ends []uint64 // exclusive end LSN of each shipped record
	j    *journal
}

// replConfig builds the configuration of a standby node, before (standby,
// apply-only) and after (single node) its failover; automatic checkpoints
// stay off — the mirrored ones arrive in the stream.
func replConfig(mode server.Mode, standby bool) func(disk.Store, *wal.Log) server.Config {
	return func(store disk.Store, log *wal.Log) server.Config {
		return server.Config{
			Mode:            mode,
			Standby:         standby,
			Store:           store,
			Log:             log,
			LogCapacity:     replLogCapacity,
			PoolPages:       sweepServerPool,
			CheckpointEvery: 1 << 30,
		}
	}
}

// runReplWorkload executes the stamp workload against a primary whose WAL
// is shipped through repl.Primary — the real shipping path, standby
// retention holder and all — draining the stream after every commit.
func runReplWorkload(sys SweepSystem, seed int64) (*replRun, error) {
	plog := wal.New(replLogCapacity)
	prim := repl.NewPrimary(plog, repl.PrimaryOptions{})
	cfg := server.Config{
		Mode:            sys.Mode,
		Store:           disk.NewMemStore(),
		Log:             plog,
		LogCapacity:     replLogCapacity,
		PoolPages:       sweepServerPool,
		CheckpointEvery: sweepCkptEvery,
	}
	prim.Wire(&cfg)
	cli := sweepClient(sys, wire.NewDirect(server.New(cfg), nil, nil))
	run := &replRun{sys: sys, j: newJournal(func() int64 { return int64(plog.StableEnd()) })}

	cursor := plog.Head()
	commitEnd := make(map[logrec.TID]uint64)
	drain := func(int) error {
		for {
			b, err := prim.Fetch(cursor, cursor)
			if err != nil {
				return err
			}
			if len(b.Records) == 0 {
				return nil
			}
			recs, err := logrec.DecodeAll(b.Records)
			if err != nil {
				return err
			}
			end := cursor
			for _, r := range recs {
				end = r.LSN + uint64(r.EncodedSize())
				run.recs = append(run.recs, r)
				run.ends = append(run.ends, end)
				if r.Type == logrec.TypeCommit {
					commitEnd[r.TID] = end
				}
			}
			if end != b.Next {
				return fmt.Errorf("drain cursor %d != batch next %d", end, b.Next)
			}
			cursor = b.Next
		}
	}

	// The first fetch happens before any work so the standby holder stands
	// at the log's head — nothing is ever reclaimed undrained.
	if err := drain(0); err != nil {
		return nil, fmt.Errorf("arm: %w", err)
	}
	if err := run.j.build(cli, seed); err != nil {
		return nil, err
	}
	if err := drain(0); err != nil {
		return nil, fmt.Errorf("build drain: %w", err)
	}
	run.j.buildEnd = int64(cursor)
	if err := run.j.stamps(cli, sweepStamps, drain); err != nil {
		return nil, err
	}
	plog.Force()
	if err := drain(0); err != nil {
		return nil, fmt.Errorf("final drain: %w", err)
	}
	run.j.postFromLog(commitEnd)
	for i, st := range run.j.txns {
		if st.post == math.MaxInt64 {
			return nil, fmt.Errorf("commit record of stamp %d not found in the stream", i)
		}
	}
	return run, nil
}

func openRepl(sys SweepSystem, seed int64) (*pointSpace, error) {
	run, err := runReplWorkload(sys, seed)
	if err != nil {
		return nil, err
	}
	return &pointSpace{n: int64(len(run.recs)), replay: run.replayCut}, nil
}

// feedStandby builds a standby and applies the first `cut` records of the
// stream — the state a standby holds when the primary dies right after
// shipping record `cut`.
func (run *replRun) feedStandby(cut int64) (*node, error) {
	n := newNode(nil, replLogCapacity, replConfig(run.sys.Mode, true))
	sn := n.srv.NewSession(nil, nil)
	for _, r := range run.recs[:cut] {
		if err := sn.ApplyShipped(r); err != nil {
			return nil, fmt.Errorf("apply record at %d: %w", r.LSN, err)
		}
	}
	n.log.Force()
	n.cfg = replConfig(run.sys.Mode, false) // whatever recovers it next is a single node
	return n, nil
}

// replayCut feeds two identical standbys the stream prefix, promotes one in
// place (repl's failover: Crash + Restart on the standby server), crashes
// the other and recovers it the way the crash kind does, and checks the
// failover invariants.
func (run *replRun) replayCut(cut int64) (string, error) {
	a, err := run.feedStandby(cut)
	if err != nil {
		return "", err
	}
	if err := a.srv.NewSession(nil, nil).Promote(); err != nil {
		return fmt.Sprintf("promote failed: %v", err), nil
	}
	b, err := run.feedStandby(cut)
	if err != nil {
		return "", err
	}
	b.crash()
	if err := b.restart(); err != nil {
		return fmt.Sprintf("single-node restart failed: %v", err), nil
	}

	// Promotion is the same pure function of stable state as single-node
	// restart: no replica-only divergence.
	dumps, err := dumpNodes([]*node{a, b})
	if err != nil {
		return "", err
	}
	if d := diffDumps(dumps[0], dumps[1]); d != "" {
		return "promoted volume diverges from single-node restart: " + d, nil
	}

	// Durability contract on the promoted standby: exactly the stamps whose
	// commit record is inside the prefix — the set a semi-sync primary would
	// have acked at this cut — are durable. No ambiguous boundary: a stamp's
	// commit record is its last shipped record, so a prefix either covers it
	// or the stamp must roll back.
	if cutLSN := int64(run.ends[cut-1]); cutLSN >= run.j.buildEnd {
		if d := run.j.verify(sweepClient(run.sys, wire.NewDirect(a.srv, nil, nil)), cutLSN, false); d != "" {
			return d, nil
		}
	}
	return restartUnchanged(a)
}
