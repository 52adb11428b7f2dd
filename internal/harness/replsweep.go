package harness

// Replication failover sweep: systematic promotion testing for all five
// recovery schemes.
//
// The sweep runs the deterministic OO7 update workload once against a
// primary whose WAL is shipped through repl.Primary — the real shipping
// path, standby retention holder and all — draining the stream after every commit into a
// record journal. Every record boundary in that stream is a cut: the state a
// standby holds when the primary dies after shipping exactly that prefix
// (losing the primary at "every replication-protocol event" reduces to
// losing it at every shipped-record boundary, since batches are always whole
// records). For each sampled cut the sweep builds two identical standbys fed
// the same prefix through ApplyShipped and recovers them two different ways:
//
//   - standby A promotes in place (repl's failover: Crash + Restart on the
//     standby server);
//   - standby B is crashed and its surviving store and log are adopted by a
//     fresh single-node server that runs the scheme's normal Restart — the
//     exact construction the crash-point sweep uses.
//
// The two volumes must be byte-identical: promotion is the same pure
// function of stable state as single-node restart, with no replica-only
// divergence. On the promoted standby the sweep then checks the durability
// contract — every transaction whose commit record the stream prefix covers
// (which is exactly the set a semi-sync primary would have acked at that
// cut) reads back durable, every later or partially-shipped transaction is
// wholly rolled back, and no object is torn — and finally that a second
// crash+restart of the promoted node changes no data page.
//
// Everything is deterministic: the same (system, seed) pair produces the
// same stream and the same verdicts, so a failure reproduces from its
// printed system, seed and cut alone via ReplayReplCut.

import (
	"fmt"

	"repro/internal/client"
	"repro/internal/disk"
	"repro/internal/logrec"
	"repro/internal/oo7"
	"repro/internal/page"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
)

// replLogCapacity is larger than the crash sweep's: the standby holder keeps
// truncation behind the drain cursor, so the log briefly carries the whole
// build between drains.
const replLogCapacity = 64 << 20

// replTxn journals one stamp transaction in LSN space: the primary's stable
// end immediately before and after its commit call. The client is serial, so
// a transaction is covered by a stream prefix ending at cut iff post ≤ cut,
// and a cut in (pre, post) caught it partially shipped.
type replTxn struct {
	pre, post uint64
	parts     [2]page.OID
	val       uint32
}

// replRun is the recorded shipping stream and journal of one workload
// execution.
type replRun struct {
	sys  SweepSystem
	seed int64
	recs []*logrec.Record
	ends []uint64 // exclusive end LSN of each shipped record
	// stream bookkeeping for the data invariants
	parts       []page.OID
	init        []uint32
	txns        []replTxn
	buildEndLSN uint64
}

// replStandbyConfig builds the configuration shared by every standby node of
// a replay; automatic checkpoints stay off (the mirrored ones arrive in the
// stream) and the standby flag selects the apply-only regime.
func replStandbyConfig(mode server.Mode, standby bool, store disk.Store, log *wal.Log) server.Config {
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

// runReplWorkload executes the sweep workload against a shipping primary and
// records the full stream. The first fetch happens before any work so the
// standby holder stands at LSN zero — nothing is ever reclaimed undrained.
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
	srv := server.New(cfg)
	cli := client.New(client.Config{
		Scheme:         sys.Scheme,
		PoolPages:      sweepClientPool,
		ShipDirtyPages: sys.Mode != server.ModeREDO,
	}, wire.NewDirect(srv, nil, nil))
	run := &replRun{sys: sys, seed: seed}

	cursor := plog.Head()
	drain := func() error {
		for {
			b, err := prim.Fetch(cursor, cursor, 0)
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
			}
			if end != b.Next {
				return fmt.Errorf("drain cursor %d != batch next %d", end, b.Next)
			}
			cursor = b.Next
		}
	}
	fail := func(stage string, err error) (*replRun, error) {
		return nil, fmt.Errorf("repl sweep workload %s (system=%s seed=%d): %w", stage, sys.Name, seed, err)
	}

	if err := drain(); err != nil { // register the standby holder before any record exists
		return fail("arm", err)
	}
	db, err := oo7.Build(cli, sweepDBConfig(), seed)
	if err != nil {
		return fail("build", err)
	}
	run.parts, err = oo7.CollectAtomicParts(cli, &db.Modules[0])
	if err != nil {
		return fail("collect", err)
	}
	tx, err := cli.Begin()
	if err != nil {
		return fail("baseline begin", err)
	}
	for _, p := range run.parts {
		x, _, err := oo7.ReadXY(tx, p)
		if err != nil {
			tx.Abort()
			return fail("baseline read", err)
		}
		run.init = append(run.init, x)
	}
	tx.Abort()
	if err := drain(); err != nil {
		return fail("build drain", err)
	}
	run.buildEndLSN = cursor

	for i := 0; i < sweepStamps; i++ {
		st := replTxn{
			val:   uint32(10001 + i),
			parts: [2]page.OID{run.parts[(2*i)%len(run.parts)], run.parts[(2*i+1)%len(run.parts)]},
		}
		tx, err := cli.Begin()
		if err != nil {
			return fail("stamp begin", err)
		}
		for _, p := range st.parts {
			if err := oo7.StampXY(tx, p, st.val); err != nil {
				tx.Abort()
				return fail("stamp write", err)
			}
		}
		st.pre = plog.StableEnd()
		if err := tx.Commit(); err != nil {
			return fail("stamp commit", err)
		}
		if err := drain(); err != nil {
			return fail("stamp drain", err)
		}
		// post is the end of the commit record itself, found in the drained
		// stream — NOT the post-commit stable end, which may also cover a
		// checkpoint record the commit path appended right after (a cut
		// between the two must still count this transaction durable).
		for i := len(run.recs) - 1; i >= 0; i-- {
			if run.recs[i].Type == logrec.TypeCommit && run.recs[i].LSN >= st.pre {
				st.post = run.ends[i]
				break
			}
		}
		if st.post == 0 {
			return fail("stamp journal", fmt.Errorf("commit record for stamp %d not found in stream", i))
		}
		run.txns = append(run.txns, st)
	}
	plog.Force()
	if err := drain(); err != nil {
		return fail("final drain", err)
	}
	return run, nil
}

// modelAfter returns the expected x value of every part once the first k
// stamp transactions (and nothing else) have been applied.
func (r *replRun) modelAfter(k int) []uint32 {
	vals := append([]uint32(nil), r.init...)
	idx := make(map[page.OID]int, len(r.parts))
	for i, p := range r.parts {
		idx[p] = i
	}
	for i := 0; i < k; i++ {
		for _, p := range r.txns[i].parts {
			vals[idx[p]] = r.txns[i].val
		}
	}
	return vals
}

// ReplSweep records the shipping stream for the system and replays
// promotion at up to `budget` record-boundary cuts (≤ 0 = all), evenly
// spaced so the sample always covers the first and last records. Failures
// accumulate; they do not stop the sweep.
func ReplSweep(sys SweepSystem, seed int64, budget int) (*SweepReport, error) {
	run, err := runReplWorkload(sys, seed)
	if err != nil {
		return nil, err
	}
	rep := &SweepReport{System: sys.Name, Seed: seed, Points: int64(len(run.recs))}
	for _, p := range samplePoints(int64(len(run.recs)), budget) {
		rep.Replayed = append(rep.Replayed, p)
		f, err := replayReplCut(run, int(p))
		if err != nil {
			return nil, err
		}
		if f != nil {
			rep.Failures = append(rep.Failures, f)
		}
	}
	return rep, nil
}

// ReplayReplCut re-runs a single promotion cut — the reproduction entry
// point printed with every failure. system must be a SweepSystems name; cut
// is 1-based over the shipped record stream.
func ReplayReplCut(system string, seed int64, cut int64) (*SweepFailure, error) {
	for _, sys := range SweepSystems() {
		if sys.Name == system {
			run, err := runReplWorkload(sys, seed)
			if err != nil {
				return nil, err
			}
			return replayReplCut(run, int(cut))
		}
	}
	return nil, fmt.Errorf("harness: unknown sweep system %q", system)
}

// replNode is one fed standby: a server in standby mode over its own store
// and log.
type replNode struct {
	store *disk.MemStore
	log   *wal.Log
	srv   *server.Server
	sn    *server.Session
}

// feedStandby builds a standby and applies the first `cut` records of the
// stream — the state a standby holds when the primary dies right after
// shipping record `cut`.
func feedStandby(run *replRun, cut int) (*replNode, error) {
	n := &replNode{store: disk.NewMemStore(), log: wal.New(replLogCapacity)}
	n.srv = server.New(replStandbyConfig(run.sys.Mode, true, n.store, n.log))
	n.sn = n.srv.NewSession(nil, nil)
	for _, r := range run.recs[:cut] {
		if err := n.sn.ApplyShipped(r); err != nil {
			return nil, fmt.Errorf("apply record at %d: %w", r.LSN, err)
		}
	}
	n.log.Force()
	return n, nil
}

// replayReplCut feeds two identical standbys the stream prefix, promotes
// one, single-node-restarts the other, and checks the failover invariants.
// A nil failure means the cut passed.
func replayReplCut(run *replRun, cut int) (*SweepFailure, error) {
	if cut < 1 || cut > len(run.recs) {
		return nil, fmt.Errorf("harness: repl cut %d out of range 1..%d", cut, len(run.recs))
	}
	cutLSN := run.ends[cut-1]
	bad := func(format string, args ...interface{}) *SweepFailure {
		return &SweepFailure{System: run.sys.Name, Seed: run.seed, Point: int64(cut),
			Detail: fmt.Sprintf(format, args...), Variant: "repl"}
	}

	// Standby A: the repl failover path.
	a, err := feedStandby(run, cut)
	if err != nil {
		return nil, err
	}
	if err := a.sn.Promote(); err != nil {
		return bad("promote failed: %v", err), nil
	}

	// Standby B: crash, then adopt store and log on a fresh single-node
	// server — the crash-point sweep's recovery construction.
	b, err := feedStandby(run, cut)
	if err != nil {
		return nil, err
	}
	b.srv.Crash()
	srvB := server.New(replStandbyConfig(run.sys.Mode, false, b.store, b.log))
	if err := srvB.NewSession(nil, nil).Restart(); err != nil {
		return bad("single-node restart failed: %v", err), nil
	}

	// Promotion must be byte-equivalent to single-node restart.
	da, err := dumpStore(a.store)
	if err != nil {
		return nil, err
	}
	db, err := dumpStore(b.store)
	if err != nil {
		return nil, err
	}
	if diff := diffDumps(da, db); diff != "" {
		return bad("promoted volume diverges from single-node restart: %s", diff), nil
	}

	// Durability contract on the promoted standby (meaningful once the build
	// itself is fully shipped).
	if cutLSN > run.buildEndLSN {
		if f := verifyReplStamps(run, a.srv, cutLSN, bad); f != nil {
			return f, nil
		}
	}

	// Idempotence: crash+restart of the promoted node changes no data page.
	before, err := dumpStore(a.store)
	if err != nil {
		return nil, err
	}
	a.srv.Crash()
	srvA2 := server.New(replStandbyConfig(run.sys.Mode, false, a.store, a.log))
	if err := srvA2.NewSession(nil, nil).Restart(); err != nil {
		return bad("restart after promotion failed: %v", err), nil
	}
	after, err := dumpStore(a.store)
	if err != nil {
		return nil, err
	}
	if diff := diffDumps(before, after); diff != "" {
		return bad("promoted node restart not idempotent: %s", diff), nil
	}
	return nil, nil
}

// verifyReplStamps checks the durability contract against the promoted
// server: exactly the transactions whose commit record is inside the prefix
// (post ≤ cutLSN — the semi-sync acked set at this cut) are durable, with no
// torn object updates. Unlike the crash sweep there is no ambiguous
// boundary: a transaction's commit record is its last shipped record, so a
// prefix either covers the commit or the transaction must roll back.
func verifyReplStamps(run *replRun, srv *server.Server, cutLSN uint64,
	bad func(string, ...interface{}) *SweepFailure) *SweepFailure {
	kc := 0
	for kc < len(run.txns) && run.txns[kc].post <= cutLSN {
		kc++
	}
	cli := client.New(client.Config{
		Scheme:         run.sys.Scheme,
		PoolPages:      sweepClientPool,
		ShipDirtyPages: run.sys.Mode != server.ModeREDO,
	}, wire.NewDirect(srv, nil, nil))
	tx, err := cli.Begin()
	if err != nil {
		return bad("verification begin failed: %v", err)
	}
	defer tx.Abort()
	want := run.modelAfter(kc)
	for i, p := range run.parts {
		x, y, err := oo7.ReadXY(tx, p)
		if err != nil {
			return bad("verification read of part %v failed: %v", p, err)
		}
		if x != y && (x > 10000 || y > 10000) {
			return bad("part %v has x=%d y=%d (stamps always write x=y: torn object update)", p, x, y)
		}
		if x != want[i] {
			return bad("part %v = %d, want %d (%d of %d stamp commits inside the shipped prefix)",
				p, x, want[i], kc, len(run.txns))
		}
	}
	return nil
}
