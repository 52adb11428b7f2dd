package harness

// The twopc and twopc-stall kinds (DESIGN.md §2.3, §16): two shards, each
// with its own volume and WAL, all four stable-storage channels on ONE fuse
// so the counting pass numbers the whole cluster's stable events — the
// PREPARE and DECIDE forces included — in one global sequence. twopc crashes
// the cluster after stable event P; twopc-stall drops the S-th
// Prepare/Decide/Forget in transit instead, which strands an in-doubt branch
// with no crash at all, and only then crashes.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/disk"
	"repro/internal/faultinject"
	"repro/internal/lock"
	"repro/internal/logrec"
	"repro/internal/page"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/wal"
	"repro/internal/wire"
)

const (
	twopcShards    = 2
	twopcObjsShard = 6  // objects per shard
	twopcStamps    = 36 // stamp transactions after the build
	twopcObjSize   = 8  // [u32 x][u32 y], always written x=y
	// twopcLockTimeout bounds the in-doubt lock-retention probe: a probe
	// against a held lock must come back as lock.ErrDeadlock, not hang the
	// sweep for the default two seconds per point.
	twopcLockTimeout = 75 * time.Millisecond
)

// stallCounter numbers the cluster's 2PC messages; message `stall` (1-based)
// is dropped in transit.
type stallCounter struct {
	n     int64
	stall int64
	hit   bool
}

func (c *stallCounter) tick() error {
	c.n++
	if c.stall > 0 && c.n == c.stall {
		c.hit = true
		return fmt.Errorf("%w: stalled 2PC message %d", faultinject.ErrNotDelivered, c.n)
	}
	return nil
}

// stallBackend wraps one shard's transport, feeding its 2PC messages
// through the shared stall counter. Ordinary Service traffic is untouched:
// the stall kind is about the window between protocol phases.
type stallBackend struct {
	shard.Backend
	c *stallCounter
}

func (b *stallBackend) Prepare(tid logrec.TID, coordinator int, participants []int) error {
	if err := b.c.tick(); err != nil {
		return err
	}
	return b.Backend.Prepare(tid, coordinator, participants)
}

func (b *stallBackend) Decide(tid logrec.TID, commit bool) error {
	if err := b.c.tick(); err != nil {
		return err
	}
	return b.Backend.Decide(tid, commit)
}

func (b *stallBackend) Forget(tid logrec.TID) error {
	if err := b.c.tick(); err != nil {
		return err
	}
	return b.Backend.Forget(tid)
}

// twopcRun is the state of one 2PC workload execution. The journal's clock
// is the shared fuse's count, or — when a message is being dropped — the
// message count: stamp i then has pre < S ≤ post exactly when message S was
// one of its own, which makes it the boundary stamp at position S-1.
type twopcRun struct {
	sys     SweepSystem
	fuse    *faultinject.Fuse
	nodes   []*node
	msgs    *stallCounter
	j       *journal
	lateErr error // workload error after the fuse blew: benign
}

var errStalled = errors.New("2PC message dropped: the workload stops at the boundary stamp")

// cluster returns a sharded client and its router over the nodes' current
// servers, every 2PC message ticking c (nil = uncounted).
func (run *twopcRun) cluster(c *stallCounter) (*client.Client, *shard.Router) {
	backends := make([]shard.Backend, len(run.nodes))
	for s, n := range run.nodes {
		backends[s] = wire.NewDirect(n.srv, nil, nil)
		if c != nil {
			backends[s] = &stallBackend{Backend: backends[s], c: c}
		}
	}
	return client.NewSharded(sweepClientConfig(run.sys), backends)
}

// runTwoPCWorkload executes the sharded workload. limit bounds the shared
// fuse (< 0 = count only); stall drops the stall-th 2PC message (< 0 =
// none).
func runTwoPCWorkload(sys SweepSystem, seed, limit, stall int64) (*twopcRun, error) {
	fuse := faultinject.NewFuse(limit)
	run := &twopcRun{sys: sys, fuse: fuse, msgs: &stallCounter{stall: stall}}
	j := newJournal(fuse.Count)
	j.stampXY, j.readXY = writeXY, readXY
	if stall > 0 {
		j.clock = func() int64 { return run.msgs.n }
	}
	// Stamps: i%4 == 0 stays on shard 0, == 1 on shard 1, else cross-shard.
	// Object choice is a seeded LCG so different seeds stress different
	// pages.
	rng := uint64(seed)*2862933555777941757 + 3037000493
	next := func() int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % twopcObjsShard)
	}
	j.pick = func(i int) []page.OID {
		a, b := next(), next()
		if b == a {
			b = (a + 1) % twopcObjsShard
		}
		switch i % 4 {
		case 0: // both on shard 0
		case 1:
			a += twopcObjsShard
			b += twopcObjsShard
		default:
			b += twopcObjsShard // one object on each shard
		}
		return []page.OID{j.parts[a], j.parts[b]}
	}
	run.j = j
	for s := 0; s < twopcShards; s++ {
		s := s
		run.nodes = append(run.nodes, newNode(fuse, sweepLogCapacity, func(store disk.Store, log *wal.Log) server.Config {
			cfg := sweepServerConfig(sys.Mode, store, log, crashVariant{})
			cfg.ShardID = s // keys residue-class allocation
			cfg.ShardCount = twopcShards
			cfg.LockTimeout = twopcLockTimeout
			return cfg
		}))
	}
	cli, router := run.cluster(run.msgs)
	err := run.build(cli, router)
	if err == nil && !run.msgs.hit {
		j.buildEnd = j.clock()
		err = j.stamps(cli, twopcStamps, func(int) error {
			if run.msgs.hit {
				return errStalled // commit point reached, a later message dropped
			}
			return nil
		})
	}
	switch {
	case err == nil || run.msgs.hit:
		// A drop inside a stamp's 2PC makes it the boundary stamp whatever
		// its Commit returned; a drop inside the build leaves buildEnd unset,
		// so no position counts as past the build.
	case fuse.Blown():
		run.lateErr = err
	default:
		return nil, fmt.Errorf("workload: %w", err)
	}
	return run, nil
}

// build lays out twopcObjsShard objects on each shard in ONE cross-shard
// transaction, so even the build commit runs the full 2PC protocol.
func (run *twopcRun) build(cli *client.Client, router *shard.Router) error {
	tx, err := cli.Begin()
	if err != nil {
		return fmt.Errorf("build begin: %w", err)
	}
	val := uint32(5000)
	for s := 0; s < twopcShards; s++ {
		router.SetAllocShard(s)
		if _, err := tx.NewPage(); err != nil {
			return fmt.Errorf("build: new page on shard %d: %w", s, err)
		}
		for i := 0; i < twopcObjsShard; i++ {
			oid, err := tx.Allocate(twopcObjSize)
			if err != nil {
				return fmt.Errorf("build: allocate: %w", err)
			}
			if err := writeXY(tx, oid, val); err != nil {
				return fmt.Errorf("build: init write: %w", err)
			}
			run.j.parts = append(run.j.parts, oid)
			run.j.init = append(run.j.init, [2]uint32{val, val})
			val++
		}
	}
	router.SetAllocShard(-1)
	if err := tx.Commit(); err != nil {
		return fmt.Errorf("build commit: %w", err)
	}
	return nil
}

// writeXY stores x=y=val into an 8-byte stamp object.
func writeXY(tx *client.Tx, oid page.OID, val uint32) error {
	var buf [twopcObjSize]byte
	binary.LittleEndian.PutUint32(buf[0:], val)
	binary.LittleEndian.PutUint32(buf[4:], val)
	return tx.Write(oid, 0, buf[:])
}

// readXY loads a stamp object's two halves.
func readXY(tx *client.Tx, oid page.OID) (x, y uint32, err error) {
	var buf [twopcObjSize]byte
	if err := tx.Read(oid, 0, buf[:]); err != nil {
		return 0, 0, err
	}
	return binary.LittleEndian.Uint32(buf[0:]), binary.LittleEndian.Uint32(buf[4:]), nil
}

// countTwoPCPoints runs the counting pass: the number of shared-fuse crash
// points and of 2PC messages (the stall kind's point space).
func countTwoPCPoints(sys SweepSystem, seed int64) (fusePoints, msgPoints int64, err error) {
	run, err := runTwoPCWorkload(sys, seed, -1, -1)
	if err != nil {
		return 0, 0, err
	}
	if run.lateErr != nil {
		return 0, 0, fmt.Errorf("counting pass errored: %w", run.lateErr)
	}
	return run.fuse.Count(), run.msgs.n, nil
}

func openTwoPC(sys SweepSystem, seed int64, stall bool) (*pointSpace, error) {
	fusePoints, msgPoints, err := countTwoPCPoints(sys, seed)
	if err != nil {
		return nil, err
	}
	if stall {
		return &pointSpace{n: msgPoints, replay: func(s int64) (string, error) { return replayTwoPC(sys, seed, -1, s) }}, nil
	}
	return &pointSpace{n: fusePoints, replay: func(p int64) (string, error) { return replayTwoPC(sys, seed, p, -1) }}, nil
}

// replayTwoPC runs one 2PC replay: exactly one of point (fuse crash point)
// and stall (dropped 2PC message) is > 0.
func replayTwoPC(sys SweepSystem, seed, point, stall int64) (string, error) {
	run, err := runTwoPCWorkload(sys, seed, point, stall)
	if err != nil {
		return "", err
	}
	at := point // the journal position the recovered cluster is held to
	if stall > 0 {
		at = stall - 1
		// The cluster is still alive, with an in-doubt branch if the drop
		// landed after a PREPARE. Checkpoint each shard so restart meets the
		// prepared branch through the checkpoint's 2PC trailer rather than
		// the log scan — the path a long-lived in-doubt transaction takes in
		// production — then crash.
		for s, n := range run.nodes {
			if err := n.srv.NewSession(nil, nil).Checkpoint(); err != nil {
				return fmt.Sprintf("pre-crash checkpoint on shard %d failed: %v", s, err), nil
			}
		}
	}
	return recoverTwice(run.nodes, func() string { return run.resolveAndVerify(at) })
}

// lockProbe tries a shared lock on pid at shard s from a fresh transaction.
func (run *twopcRun) lockProbe(s int, pid page.ID) error {
	sn := run.nodes[s].srv.NewSession(nil, nil)
	tid := sn.Begin()
	defer sn.Abort(tid)
	return sn.Lock(tid, pid, lock.Shared)
}

// resolveAndVerify checks the distributed-recovery invariants on the
// restarted cluster: in-doubt branches hold their locks until resolution,
// resolution settles every one of them and is idempotent, and the stamps are
// all-or-nothing across both shards at journal position at.
func (run *twopcRun) resolveAndVerify(at int64) string {
	// A branch that crashed between its PREPARE and the coordinator's
	// decision restarts in doubt and holds its locks: probing one of its
	// pages must time out now and succeed after resolution.
	type probe struct {
		shard int
		pid   page.ID
	}
	var probes []probe
	for s, n := range run.nodes {
		for _, idt := range n.srv.InDoubt() {
			st := run.j.byTID(idt.TID)
			if st == nil {
				continue // the build transaction: page set not journaled
			}
			for _, o := range st.parts {
				if (shard.Map{N: twopcShards}).ShardOf(o.Page) == s {
					probes = append(probes, probe{shard: s, pid: o.Page})
				}
			}
		}
	}
	for _, p := range probes {
		err := run.lockProbe(p.shard, p.pid)
		if err == nil {
			return fmt.Sprintf("in-doubt branch released page %v on shard %d before resolution", p.pid, p.shard)
		}
		if !errors.Is(err, lock.ErrDeadlock) {
			return fmt.Sprintf("in-doubt lock probe of page %v on shard %d: %v (want lock timeout)", p.pid, p.shard, err)
		}
	}

	// Recovery resolution settles every in-doubt branch; a second run must
	// find nothing and change nothing (idempotence under re-delivery).
	cli, router := run.cluster(nil)
	if _, err := router.Recover(); err != nil {
		return fmt.Sprintf("recovery resolution failed: %v", err)
	}
	before, err := dumpNodes(run.nodes)
	if err != nil {
		return fmt.Sprintf("dump after resolution: %v", err)
	}
	again, err := router.Recover()
	if err != nil {
		return fmt.Sprintf("second recovery resolution failed: %v", err)
	}
	if len(again) != 0 {
		return fmt.Sprintf("resolution not idempotent: second run settled %d branches", len(again))
	}
	after, err := dumpNodes(run.nodes)
	if err != nil {
		return fmt.Sprintf("dump after second resolution: %v", err)
	}
	for s, n := range run.nodes {
		if d := diffDumps(before[s], after[s]); d != "" {
			return fmt.Sprintf("second resolution changed data: shard %d: %s", s, d)
		}
		if left := n.srv.InDoubt(); len(left) != 0 {
			return fmt.Sprintf("shard %d still reports %d in-doubt branches after resolution", s, len(left))
		}
	}
	for _, p := range probes {
		if err := run.lockProbe(p.shard, p.pid); err != nil {
			return fmt.Sprintf("page %v on shard %d still locked after resolution: %v", p.pid, p.shard, err)
		}
	}

	// Cross-shard atomicity: the cluster matches the committed prefix, the
	// boundary stamp wholly applied on BOTH shards or wholly rolled back on
	// both — a stamp on one shard only is exactly what 2PC exists to prevent.
	if at >= run.j.buildEnd {
		if d := run.j.verify(cli, at, true); d != "" {
			return d
		}
	}

	// Resolution committed and aborted into pool pages after the restart;
	// flush them so the recover-twice dumps compare restart against a settled
	// store, not against work the second restart legitimately redoes.
	for s, n := range run.nodes {
		if err := n.srv.NewSession(nil, nil).FlushAll(); err != nil {
			return fmt.Sprintf("flush of shard %d after resolution failed: %v", s, err)
		}
	}
	return ""
}
