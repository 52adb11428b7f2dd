package repl

import (
	"errors"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/disk"
	"repro/internal/faultinject"
	"repro/internal/lock"
	"repro/internal/logrec"
	"repro/internal/page"
	"repro/internal/server"
	"repro/internal/wal"
)

// node is one server with its explicitly-held log (the archiver idiom: the
// log handle is needed by the replication layer).
type node struct {
	srv *server.Server
	sn  *server.Session
	log *wal.Log
}

func newNode(t *testing.T, mode server.Mode, mutate func(*server.Config)) *node {
	t.Helper()
	log := wal.New(16 << 20)
	cfg := server.Config{
		Mode:            mode,
		Log:             log,
		PoolPages:       64,
		LockTimeout:     time.Second,
		CheckpointEvery: 1 << 30,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv := server.New(cfg)
	t.Cleanup(srv.Close)
	return &node{srv: srv, sn: srv.NewSession(nil, nil), log: log}
}

// commitPage creates a page holding val in a committed transaction,
// following the mode's client protocol.
func commitPage(t *testing.T, n *node, mode server.Mode, val string) (page.ID, int) {
	t.Helper()
	tid := n.sn.Begin()
	pid, err := n.sn.AllocPage(tid)
	if err != nil {
		t.Fatal(err)
	}
	pg := page.New(pid)
	slot, err := pg.Allocate(len(val))
	if err != nil {
		t.Fatal(err)
	}
	pg.WriteAt(slot, 0, []byte(val))
	if mode == server.ModeWPL {
		if err := n.sn.ShipPage(tid, pid, pg.Bytes()); err != nil {
			t.Fatal(err)
		}
	} else {
		rec := logrec.NewPageImage(tid, pid, pg.Bytes())
		if err := n.sn.ShipLog(tid, rec.Encode(nil)); err != nil {
			t.Fatal(err)
		}
		if mode == server.ModeESM {
			if err := n.sn.ShipPage(tid, pid, pg.Bytes()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := n.sn.Commit(tid); err != nil {
		t.Fatal(err)
	}
	return pid, slot
}

// readVal reads slot of pid in a fresh read-only transaction on sn.
func readVal(t *testing.T, sn *server.Session, pid page.ID, slot, n int) string {
	t.Helper()
	tid := sn.Begin()
	data, err := sn.ReadPage(tid, pid, lock.Shared)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, n)
	if err := page.Wrap(data).ReadAt(slot, 0, out); err != nil {
		t.Fatal(err)
	}
	if err := sn.Commit(tid); err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// waitCaughtUp polls until the standby's applied watermark reaches the
// primary's stable end.
func waitCaughtUp(t *testing.T, sb *Standby, plog *wal.Log) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second) //qslint:allow determinism: test-only poll deadline
	for sb.Status().AppliedLSN < plog.StableEnd() {
		if time.Now().After(deadline) { //qslint:allow determinism: test-only poll deadline
			t.Fatalf("standby stuck at %d, primary stable %d", sb.Status().AppliedLSN, plog.StableEnd())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// waitConnected polls until the primary has served at least one fetch.
func waitConnected(t *testing.T, p *Primary) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second) //qslint:allow determinism: test-only poll deadline
	for !p.Status().Connected {
		if time.Now().After(deadline) { //qslint:allow determinism: test-only poll deadline
			t.Fatal("standby never connected")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestLiveReplicationAndFailover runs the full async pipeline for each
// scheme family: ship live commits, read them on the hot standby, promote,
// and keep writing on the promoted node.
func TestLiveReplicationAndFailover(t *testing.T) {
	for _, mode := range []server.Mode{server.ModeESM, server.ModeREDO, server.ModeWPL} {
		t.Run(mode.String(), func(t *testing.T) {
			prim := newNode(t, mode, nil)
			p := NewPrimary(prim.log, PrimaryOptions{})
			stby := newNode(t, mode, func(cfg *server.Config) { cfg.Standby = true })
			sb := NewStandby(stby.log, stby.sn, p.Fetch, StandbyOptions{PollInterval: 200 * time.Microsecond})
			go sb.Run()

			type obj struct {
				pid  page.ID
				slot int
			}
			var objs []obj
			for i := 0; i < 20; i++ {
				pid, slot := commitPage(t, prim, mode, "live!")
				objs = append(objs, obj{pid, slot})
			}
			waitCaughtUp(t, sb, prim.log)

			// Hot reads on the standby.
			rsn := stby.srv.NewSession(nil, nil)
			if got := readVal(t, rsn, objs[0].pid, objs[0].slot, 5); got != "live!" {
				t.Fatalf("standby read = %q", got)
			}
			if st := sb.Status(); st.Batches == 0 || st.Records == 0 {
				t.Fatalf("no batches applied: %+v", st)
			}

			// Failover.
			if err := sb.Promote(); err != nil {
				t.Fatal(err)
			}
			for _, o := range objs {
				if got := readVal(t, stby.sn, o.pid, o.slot, 5); got != "live!" {
					t.Fatalf("promoted read = %q", got)
				}
			}
			pid, slot := commitPage(t, stby, mode, "after")
			if got := readVal(t, stby.sn, pid, slot, 5); got != "after" {
				t.Fatalf("post-failover write = %q", got)
			}
		})
	}
}

// TestSemiSyncAck: with a live standby, every commit return implies the
// standby had applied and forced the commit record (no timeouts taken).
func TestSemiSyncAck(t *testing.T) {
	plog := wal.New(16 << 20)
	p := NewPrimary(plog, PrimaryOptions{Mode: AckSemiSync, AckTimeout: 2 * time.Second})
	prim := newNode(t, server.ModeREDO, func(cfg *server.Config) {
		cfg.Log = plog
		p.Wire(cfg)
	})
	prim.log = plog
	stby := newNode(t, server.ModeREDO, func(cfg *server.Config) { cfg.Standby = true })
	sb := NewStandby(stby.log, stby.sn, p.Fetch, StandbyOptions{PollInterval: 100 * time.Microsecond})
	go sb.Run()
	defer sb.Stop()

	// Connect before the first semi-sync commit so acks are in force: an
	// empty standby is trivially caught up, so wait for a real fetch.
	waitConnected(t, p)
	for i := 0; i < 10; i++ {
		commitPage(t, prim, server.ModeREDO, "semi!")
		if acked, se := p.Status().AckedLSN, plog.StableEnd(); acked < se {
			t.Fatalf("commit %d returned with ack %d < stable end %d", i, acked, se)
		}
	}
	st := p.Status()
	if st.AckWaits == 0 {
		t.Fatalf("semi-sync commits never waited: %+v", st)
	}
	if st.AckTimeouts != 0 {
		t.Fatalf("semi-sync commits timed out: %+v", st)
	}
	if st.Mode != "semi-sync" {
		t.Fatalf("mode = %q", st.Mode)
	}
}

// TestSemiSyncTimeoutDegrades: a connected-then-dead standby must not hang
// commits — the ack wait times out, the commit proceeds, and the
// degradation is counted. Detach then releases the gate entirely.
func TestSemiSyncTimeoutDegrades(t *testing.T) {
	plog := wal.New(16 << 20)
	p := NewPrimary(plog, PrimaryOptions{Mode: AckSemiSync, AckTimeout: 20 * time.Millisecond})
	prim := newNode(t, server.ModeREDO, func(cfg *server.Config) {
		cfg.Log = plog
		p.Wire(cfg)
	})
	prim.log = plog

	// No standby yet: commits are async.
	commitPage(t, prim, server.ModeREDO, "pre..")
	if st := p.Status(); st.AckWaits != 0 {
		t.Fatalf("unconnected primary waited for acks: %+v", st)
	}

	// A standby fetches once, then dies silently.
	if _, err := p.Fetch(plog.Head(), 0, 0); err != nil {
		t.Fatal(err)
	}
	start := time.Now() //qslint:allow determinism: test-only timing assertion
	commitPage(t, prim, server.ModeREDO, "stuck")
	if waited := time.Since(start); waited < 15*time.Millisecond { //qslint:allow determinism: test-only timing assertion
		t.Fatalf("commit returned in %v, expected ~20ms ack timeout", waited)
	}
	if st := p.Status(); st.AckTimeouts == 0 {
		t.Fatalf("timeout not counted: %+v", st)
	}

	// Detached, commits stop waiting.
	p.Detach()
	commitPage(t, prim, server.ModeREDO, "free.")
	if st := p.Status(); st.Connected {
		t.Fatalf("still connected after Detach: %+v", st)
	}
}

// TestReconnectWithBackoffUnderFaultyLink drops a third of all fetches and
// checks the standby still converges, counting reconnects.
func TestReconnectWithBackoffUnderFaultyLink(t *testing.T) {
	prim := newNode(t, server.ModeESM, nil)
	p := NewPrimary(prim.log, PrimaryOptions{})
	flaky := WrapFetch(p.Fetch, faultinject.Plan{DropRate: 0.33, DelayRate: 0.1, MaxDelay: time.Millisecond, Seed: 7})
	stby := newNode(t, server.ModeESM, func(cfg *server.Config) { cfg.Standby = true })
	sb := NewStandby(stby.log, stby.sn, flaky, StandbyOptions{
		PollInterval: 100 * time.Microsecond,
		Backoff:      100 * time.Microsecond,
		MaxBackoff:   time.Millisecond,
	})
	go sb.Run()
	defer sb.Stop()

	var last struct {
		pid  page.ID
		slot int
	}
	for i := 0; i < 30; i++ {
		last.pid, last.slot = commitPage(t, prim, server.ModeESM, "drop!")
	}
	waitCaughtUp(t, sb, prim.log)
	// The applier keeps polling after catch-up; with a 33% drop rate some
	// idle fetch soon fails and the backoff path runs.
	deadline := time.Now().Add(5 * time.Second) //qslint:allow determinism: test-only poll deadline
	for sb.Status().Reconnects == 0 {
		if time.Now().After(deadline) { //qslint:allow determinism: test-only poll deadline
			t.Fatalf("flaky link produced no reconnects: %+v", sb.Status())
		}
		time.Sleep(100 * time.Microsecond)
	}
	rsn := stby.srv.NewSession(nil, nil)
	if got := readVal(t, rsn, last.pid, last.slot, 5); got != "drop!" {
		t.Fatalf("standby read after flaky catch-up = %q", got)
	}
}

// TestColdBootstrapFromArchive seeds a standby from a fuzzy online backup
// plus archived segments (archive.Bootstrap), replays the restored log
// through ApplyShipped, follows the live stream, and fails over — end to
// end across a truncation on the primary. A second, empty standby asking
// for the reclaimed prefix gets ErrGap.
func TestColdBootstrapFromArchive(t *testing.T) {
	plog := wal.New(16 << 20)
	blobs := archive.NewMemBlobs()
	store := disk.NewMemStore()
	arch, err := archive.NewArchiver(plog, store, blobs, archive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPrimary(plog, PrimaryOptions{})
	prim := newNode(t, server.ModeESM, func(cfg *server.Config) {
		cfg.Log = plog
		cfg.Store = store
		archive.Wire(cfg, arch)
		p.Wire(cfg)
	})
	prim.log = plog

	type obj struct {
		pid  page.ID
		slot int
	}
	var objs []obj
	for i := 0; i < 10; i++ {
		pid, slot := commitPage(t, prim, server.ModeESM, "early")
		objs = append(objs, obj{pid, slot})
	}
	if err := prim.sn.Checkpoint(); err != nil { // archives, then truncates
		t.Fatal(err)
	}
	if _, err := arch.Backup(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		pid, slot := commitPage(t, prim, server.ModeESM, "late.")
		objs = append(objs, obj{pid, slot})
	}
	prim.log.Force()
	if err := arch.Drain(); err != nil {
		t.Fatal(err)
	}

	// An empty standby's cursor predates the truncated head: ErrGap.
	if _, err := p.Fetch(wal.FirstLSN, 0, 0); !errors.Is(err, ErrGap) {
		t.Fatalf("fetch below head = %v, want ErrGap", err)
	}

	// Cold bootstrap: backup + archived log, no restart pass.
	boot, err := archive.Bootstrap(blobs, archive.BootstrapOptions{LogSlack: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	scfg := server.Config{
		Mode:            server.ModeESM,
		Standby:         true,
		Store:           boot.Store,
		Log:             boot.Log,
		PoolPages:       64,
		LockTimeout:     time.Second,
		CheckpointEvery: 1 << 30,
	}
	ssrv := server.New(scfg)
	defer ssrv.Close()
	ssn := ssrv.NewSession(nil, nil)
	sb := NewStandby(boot.Log, ssn, p.Fetch, StandbyOptions{PollInterval: 100 * time.Microsecond})
	if err := sb.ReplayLocal(); err != nil {
		t.Fatal(err)
	}
	go sb.Run()
	waitCaughtUp(t, sb, prim.log)
	if err := sb.Promote(); err != nil {
		t.Fatal(err)
	}
	for i, o := range objs {
		want := "early"
		if i >= 10 {
			want = "late."
		}
		if got := readVal(t, ssn, o.pid, o.slot, 5); got != want {
			t.Fatalf("object %d after cold-bootstrap failover = %q, want %q", i, got, want)
		}
	}
}

// TestBatchRoundTrip covers the wire encoding.
func TestBatchRoundTrip(t *testing.T) {
	in := Batch{Next: 12345, StableEnd: 67890, Records: []byte("payload")}
	out, err := DecodeBatch(EncodeBatch(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Next != in.Next || out.StableEnd != in.StableEnd || string(out.Records) != "payload" {
		t.Fatalf("round trip: %+v", out)
	}
	if _, err := DecodeBatch([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated batch decoded")
	}
	if _, err := DecodeBatch(append(EncodeBatch(in), 0)); err == nil {
		t.Fatal("oversized batch decoded")
	}
}

// stuckBlobs is an archive medium whose writes can be made to fail, which
// leaves the archiver unable to advance.
type stuckBlobs struct {
	*archive.MemBlobs
	stuck bool
}

func (b *stuckBlobs) Put(name string, data []byte) error {
	if b.stuck {
		return errors.New("archive medium unavailable")
	}
	return b.MemBlobs.Put(name, data)
}

// TestLogHeadIsTheLowestHolder composes every reason to retain log on one
// primary — restart redo under fuzzy checkpoints with dirty pages, an
// archiver, a connected standby — and advances them one at a time. After
// each checkpoint the head must stand exactly at the lowest of the three,
// and Holders() must name that one as the pin.
func TestLogHeadIsTheLowestHolder(t *testing.T) {
	plog := wal.New(16 << 20)
	blobs := &stuckBlobs{MemBlobs: archive.NewMemBlobs()}
	store := disk.NewMemStore()
	// A lag allowance larger than the test's log: only Truncate asks the
	// archiver to catch up, never the commit path.
	arch, err := archive.NewArchiver(plog, store, blobs, archive.Options{MaxLagBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPrimary(plog, PrimaryOptions{})
	prim := newNode(t, server.ModeESM, func(cfg *server.Config) {
		cfg.Log = plog
		cfg.Store = store
		cfg.FuzzyCheckpoints = true
		archive.Wire(cfg, arch)
		p.Wire(cfg)
	})
	prim.log = plog

	// checkpoint takes one and returns who pins the head, having checked that
	// the head is the minimum over the holders.
	checkpoint := func() string {
		t.Helper()
		if err := prim.sn.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		snap := plog.Holders()
		if len(snap.Holders) != 3 {
			t.Fatalf("holders = %+v, want redo, archive and standby", snap.Holders)
		}
		pin := snap.Holders[0]
		for _, h := range snap.Holders[1:] {
			if h.LSN < pin.LSN {
				pin = h
			}
		}
		if snap.Head != pin.LSN || plog.Head() != pin.LSN {
			t.Fatalf("head = %d, want the lowest holder %q at %d (%+v)", snap.Head, pin.Name, pin.LSN, snap.Holders)
		}
		return pin.Name
	}
	position := func(name string) uint64 {
		t.Helper()
		for _, h := range plog.Holders().Holders {
			if h.Name == name {
				return h.LSN
			}
		}
		t.Fatalf("no holder %q", name)
		return 0
	}

	for i := 0; i < 12; i++ {
		commitPage(t, prim, server.ModeESM, "page.") // dirty in the pool: fuzzy checkpoints flush nothing
	}
	// The standby connects and takes exactly one record; its cursor is the
	// second record. The archive medium is down, so the archiver stays at the
	// very first. Cleaning the four oldest dirty pages moves redo's start
	// past both.
	first, err := p.Fetch(wal.FirstLSN, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Fetch(first.Next, 0, 1); err != nil {
		t.Fatal(err)
	}
	blobs.stuck = true
	if n, err := prim.sn.Clean(4); err != nil || n != 4 {
		t.Fatalf("clean = %d, %v", n, err)
	}
	if pin := checkpoint(); pin != "archive" {
		t.Fatalf("pinned by %q, want archive", pin)
	}
	if plog.Head() != wal.FirstLSN {
		t.Fatalf("head %d moved past the unarchived first record", plog.Head())
	}

	// The archive medium comes back: the next truncation drains it as far as
	// it wanted to go, and the standby's cursor is what is left.
	blobs.stuck = false
	if pin := checkpoint(); pin != "standby" {
		t.Fatalf("pinned by %q, want standby", pin)
	}
	if plog.Head() != first.Next {
		t.Fatalf("head = %d, want the standby cursor %d", plog.Head(), first.Next)
	}

	// The standby catches up and the archiver drains everything: the oldest
	// dirty page's recLSN is what is left.
	cursor := first.Next
	for {
		b, err := p.Fetch(cursor, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if b.Next == cursor {
			break
		}
		cursor = b.Next
	}
	if err := arch.Drain(); err != nil {
		t.Fatal(err)
	}
	if pin := checkpoint(); pin != "redo" {
		t.Fatalf("pinned by %q, want redo", pin)
	}
	if redo := position("redo"); redo <= first.Next || redo >= cursor {
		t.Fatalf("redo holder at %d, want a dirty page's recLSN inside (%d, %d)", redo, first.Next, cursor)
	}

	// Everything is cleaned: redo needs only the newest checkpoint, the
	// archiver drains up to it on demand, and the standby — which has not
	// fetched the checkpoint records yet — is the pin again.
	if _, err := prim.sn.Clean(64); err != nil {
		t.Fatal(err)
	}
	if pin := checkpoint(); pin != "standby" {
		t.Fatalf("pinned by %q, want standby", pin)
	}
	if plog.Head() != position("standby") || position("standby") < cursor {
		t.Fatalf("head = %d, standby holder = %d, last delivering cursor %d", plog.Head(), position("standby"), cursor)
	}

	// A decommissioned standby releases its holder.
	p.Detach()
	if n := len(plog.Holders().Holders); n != 2 {
		t.Fatalf("%d holders after Detach, want 2", n)
	}
}
