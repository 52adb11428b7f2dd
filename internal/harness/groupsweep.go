package harness

// The group kind (DESIGN.md §2.3, §9): the window group commit opens between
// group formation and the stable flush. The crash kind enumerates stable
// events and so can never land inside a group — a group flush is one event;
// here stable storage is frozen first, several clients commit concurrently
// into the volatile tail, and every record boundary of that tail is a cut.
// The interleaving of concurrent committers is scheduling-dependent, so the
// kind is self-validating rather than replay-deterministic: the expected
// outcome at a cut is derived from the log the run actually produced, and a
// Replay re-runs the committers before cutting.

import (
	"fmt"
	"sync"

	"repro/internal/client"
	"repro/internal/disk"
	"repro/internal/faultinject"
	"repro/internal/logrec"
	"repro/internal/page"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
)

const (
	groupClients    = 4
	groupObjectSize = 16
)

// groupClient is one committer's setup and expected values.
type groupClient struct {
	cli       *client.Client
	oids      [2]page.OID
	tid       logrec.TID // transaction that wrote the new value
	commitEnd uint64     // exclusive end LSN of its commit record, 0 if absent
}

func groupVal(prefix string, k int) []byte {
	b := make([]byte, groupObjectSize)
	copy(b, fmt.Sprintf("%s-%03d", prefix, k))
	return b
}

// groupConfig has checkpoints only where the kind asks for one.
func groupConfig(mode server.Mode) func(disk.Store, *wal.Log) server.Config {
	return func(store disk.Store, log *wal.Log) server.Config {
		return server.Config{
			Mode:            mode,
			Store:           store,
			Log:             log,
			LogCapacity:     sweepLogCapacity,
			PoolPages:       sweepServerPool,
			CheckpointEvery: 1 << 30,
		}
	}
}

// groupRun is the frozen store and the volatile tail one run left behind.
type groupRun struct {
	sys     SweepSystem
	node    *node
	clients []*groupClient
	cuts    []uint64 // the frozen stable end, then every record end above it
}

func openGroup(sys SweepSystem, _ int64) (*pointSpace, error) {
	fuse := faultinject.NewFuse(-1)
	run := &groupRun{sys: sys, node: newNode(fuse, sweepLogCapacity, groupConfig(sys.Mode))}
	srv, log := run.node.srv, run.node.log

	// Phase 1: serial setup — each client gets two private pages, each
	// holding one object with a known old value — then a checkpoint so the
	// setup is stable.
	for k := 0; k < groupClients; k++ {
		c := &groupClient{cli: sweepClient(sys, wire.NewDirect(srv, nil, nil))}
		tx, err := c.cli.Begin()
		if err != nil {
			return nil, fmt.Errorf("setup begin: %w", err)
		}
		for i := range c.oids {
			if _, err := tx.NewPage(); err != nil {
				return nil, fmt.Errorf("setup page: %w", err)
			}
			oid, err := tx.Allocate(groupObjectSize)
			if err != nil {
				return nil, fmt.Errorf("setup alloc: %w", err)
			}
			if err := tx.Write(oid, 0, groupVal("old", k)); err != nil {
				return nil, fmt.Errorf("setup write: %w", err)
			}
			c.oids[i] = oid
		}
		if err := tx.Commit(); err != nil {
			return nil, fmt.Errorf("setup commit: %w", err)
		}
		run.clients = append(run.clients, c)
	}
	if err := srv.NewSession(nil, nil).Checkpoint(); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}

	// Phase 2: freeze stable storage. Every later data write and log flush is
	// swallowed, so the store and the log's stable end stay exactly at the
	// freeze instant while the log's volatile tail keeps growing.
	fuse.Trip()
	frozenEnd := log.StableEnd()

	// Phase 3: concurrent committers. Every commit call returns (the flush
	// attempt happened; the fuse swallowed it), but nothing became durable.
	var wg sync.WaitGroup
	errs := make([]error, groupClients)
	for k, c := range run.clients {
		wg.Add(1)
		go func(k int, c *groupClient) {
			defer wg.Done()
			tx, err := c.cli.Begin()
			if err != nil {
				errs[k] = err
				return
			}
			c.tid = tx.TID()
			for _, oid := range c.oids {
				if err := tx.Write(oid, 0, groupVal("new", k)); err != nil {
					tx.Abort()
					errs[k] = err
					return
				}
			}
			errs[k] = tx.Commit()
		}(k, c)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("client %d commit: %w", k, err)
		}
	}

	// Phase 4: enumerate the volatile tail. Scan walks appended records past
	// the stable end; boundaries above frozenEnd are the cuts — the crash
	// instants from "no commit stable" through "all commits stable" — and
	// each client's commit record gives its durability threshold.
	byTID := make(map[logrec.TID]*groupClient, groupClients)
	for _, c := range run.clients {
		byTID[c.tid] = c
	}
	run.cuts = []uint64{frozenEnd}
	if err := log.Scan(log.Head(), func(r *logrec.Record) bool {
		end := r.LSN + uint64(r.EncodedSize())
		if end <= frozenEnd {
			return true
		}
		run.cuts = append(run.cuts, end)
		if c := byTID[r.TID]; c != nil && r.Type == logrec.TypeCommit {
			c.commitEnd = end
		}
		return true
	}); err != nil {
		return nil, fmt.Errorf("scan: %w", err)
	}
	for k, c := range run.clients {
		if c.commitEnd == 0 {
			return nil, fmt.Errorf("client %d (tid %v) has no commit record in the volatile tail", k, c.tid)
		}
	}
	// The cuts must actually cover the window: none durable at the first,
	// all at the last.
	if first, last := run.durableAt(run.cuts[0]), run.durableAt(run.cuts[len(run.cuts)-1]); first != 0 || last != groupClients {
		return nil, fmt.Errorf("%d cuts run from %d to %d durable commits, want 0 to %d", len(run.cuts), first, last, groupClients)
	}
	return &pointSpace{
		n:      int64(len(run.cuts)),
		note:   fmt.Sprintf("clients=%d", groupClients),
		replay: run.replayCut,
	}, nil
}

// durableAt counts the clients whose commit record lies wholly below cut.
func (run *groupRun) durableAt(cut uint64) int {
	n := 0
	for _, c := range run.clients {
		if c.commitEnd <= cut {
			n++
		}
	}
	return n
}

// replayCut recovers a clone of the frozen store under a clone of the log
// whose stable end is the cut, and holds each client to the WAL contract:
// both objects new iff its commit record lies wholly below the cut, both old
// otherwise — never a mixture, which would be a torn group member.
func (run *groupRun) replayCut(point int64) (string, error) {
	cut := run.cuts[point-1]
	n := &node{mem: run.node.mem.Clone(), log: run.node.log.CrashClone(cut), cfg: groupConfig(run.sys.Mode)}
	n.arm(nil)
	if err := n.restart(); err != nil {
		return fmt.Sprintf("cut %d: restart failed: %v", cut, err), nil
	}
	tx, err := sweepClient(run.sys, wire.NewDirect(n.srv, nil, nil)).Begin()
	if err != nil {
		return "", fmt.Errorf("verify begin (cut %d): %w", cut, err)
	}
	defer tx.Abort()
	for k, c := range run.clients {
		want := groupVal("old", k)
		if c.commitEnd <= cut {
			want = groupVal("new", k)
		}
		for i, oid := range c.oids {
			got, err := tx.ReadObject(oid)
			if err != nil {
				return fmt.Sprintf("cut %d: client %d object %d unreadable: %v", cut, k, i, err), nil
			}
			if string(got) != string(want) {
				return fmt.Sprintf("cut %d: client %d (tid %v, commit end %d) object %d = %q, want %q",
					cut, k, c.tid, c.commitEnd, i, got, want), nil
			}
		}
	}
	return "", nil
}
