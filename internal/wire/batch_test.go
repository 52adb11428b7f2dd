package wire

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/lock"
	"repro/internal/logrec"
	"repro/internal/page"
	"repro/internal/server"
)

// outOfRange is a record whose after-image runs past the end of pid: the
// server refuses it before logging it (TestShipLogRejectsOutOfRangeRecords).
func outOfRange(pid page.ID) []byte {
	r := logrec.NewUpdate(0, pid, 0, make([]byte, 64), make([]byte, 64))
	r.Off = page.Size - 8
	return r.Encode(nil)
}

// TestFailedMemberStopsItsBatch: on every carrier, a ship-log the server
// refuses stops the batch that carries it — its Commit never runs, and the
// ship-log's own error is the Commit's reply — and the transaction can still
// be aborted.
func TestFailedMemberStopsItsBatch(t *testing.T) {
	var sleeps []time.Duration
	carriers := []struct {
		name string
		dial func(*server.Server) *Client
	}{
		{"direct", func(srv *server.Server) *Client { return NewDirect(srv, nil, nil) }},
		{"tcp", func(srv *server.Server) *Client { return dialTest(t, serveTCP(t, srv, ServeOpts{})) }},
		{"tcp+retry", func(srv *server.Server) *Client {
			return WithRetry(dialTest(t, serveTCP(t, srv, ServeOpts{})), retryPolicy(5, &sleeps))
		}},
		{"tcp+faults", func(srv *server.Server) *Client {
			plan := faultinject.Plan{Name: "dup-all", Seed: 1, DupRate: 1}
			return WithFaults(dialTest(t, serveTCP(t, srv, ServeOpts{})), plan)
		}},
	}
	for _, cr := range carriers {
		srv := testServer(server.ModeESM)
		svc := cr.dial(srv)
		tid, err := svc.Begin()
		if err != nil {
			t.Fatal(err)
		}
		pid, err := svc.AllocPage(tid)
		if err != nil {
			t.Fatal(err)
		}
		pg := page.New(pid)
		if err := svc.ShipLog(tid, logrec.NewPageImage(tid, pid, pg.Bytes()).Encode(nil)); err != nil {
			t.Fatal(err)
		}
		if err := svc.ShipPage(tid, pid, pg.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := svc.Lock(tid, pid, lock.Shared); err != nil {
			t.Fatalf("%s: the batch of a good ship-log and ship-page: %v", cr.name, err)
		}
		end, commits := srv.Log().End(), srv.Stats().Commits
		if err := svc.ShipLog(tid, outOfRange(pid)); err != nil {
			t.Fatalf("%s: ShipLog = %v, want it deferred", cr.name, err)
		}
		err = svc.Commit(tid)
		if err == nil || !strings.Contains(err.Error(), "bad log record") {
			t.Fatalf("%s: Commit behind a refused ship-log = %v, want the ship-log's error", cr.name, err)
		}
		if got := srv.Stats().Commits; got != commits {
			t.Fatalf("%s: %d commits after the refused batch, want %d", cr.name, got, commits)
		}
		if got := srv.Log().End(); got != end {
			t.Fatalf("%s: the refused batch grew the log from %d to %d", cr.name, end, got)
		}
		if err := svc.Abort(tid); err != nil {
			t.Fatalf("%s: abort after the refused batch: %v", cr.name, err)
		}
	}
	if len(sleeps) != 0 {
		t.Fatalf("an application error was retried %d times", len(sleeps))
	}
}

// TestFailedBatchFailsItsTransaction: the members of a batch ahead of the
// deferred one the server refuses were served, so after the refusal the
// transaction may not commit or prepare — on every carrier Commit and
// Prepare return the batch's failure and commit nothing — and Abort still
// rolls it back, leaving nothing of it pending. A carrying call's own error
// fails nothing: a transaction whose ReadPage finds no page still commits.
func TestFailedBatchFailsItsTransaction(t *testing.T) {
	carriers := []struct {
		name string
		dial func(*server.Server) *Client
	}{
		{"direct", func(srv *server.Server) *Client { return NewDirect(srv, nil, nil) }},
		{"tcp", func(srv *server.Server) *Client { return dialTest(t, serveTCP(t, srv, ServeOpts{})) }},
	}
	for _, cr := range carriers {
		srv := testServer(server.ModeESM)
		cli := cr.dial(srv)
		tid, err := cli.Begin()
		if err != nil {
			t.Fatal(err)
		}
		a, err := cli.AllocPage(tid)
		if err != nil {
			t.Fatal(err)
		}
		b, err := cli.AllocPage(tid)
		if err != nil {
			t.Fatal(err)
		}
		if err := cli.ShipLog(tid, logrec.NewPageImage(tid, a, page.New(a).Bytes()).Encode(nil)); err != nil {
			t.Fatal(err)
		}
		if err := cli.ShipLog(tid, outOfRange(b)); err != nil {
			t.Fatal(err)
		}
		if err := cli.Lock(tid, a, lock.Shared); err == nil || !strings.Contains(err.Error(), "bad log record") {
			t.Fatalf("%s: Lock behind a refused ship-log = %v, want the ship-log's error", cr.name, err)
		}
		end := srv.Log().End()
		if err := cli.Commit(tid); err == nil || !strings.Contains(err.Error(), "bad log record") {
			t.Fatalf("%s: Commit after the failed batch = %v, want its failure", cr.name, err)
		}
		if err := cli.Prepare(tid, 0, []int{0}); err == nil || !strings.Contains(err.Error(), "bad log record") {
			t.Fatalf("%s: Prepare after the failed batch = %v, want its failure", cr.name, err)
		}
		if got := srv.Stats().Commits; got != 0 {
			t.Fatalf("%s: %d commits, want none: half the transaction was committed", cr.name, got)
		}
		if got := srv.Log().End(); got != end {
			t.Fatalf("%s: Commit and Prepare grew the log from %d to %d", cr.name, end, got)
		}
		if err := cli.Abort(tid); err != nil {
			t.Fatalf("%s: abort after the failed batch: %v", cr.name, err)
		}
		if got := srv.Stats().Aborts; got != 1 {
			t.Fatalf("%s: %d aborts, want 1", cr.name, got)
		}
		if len(cli.pending) != 0 {
			t.Fatalf("%s: after the abort the client keeps %d pending batches", cr.name, len(cli.pending))
		}
		tid, err = cli.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cli.ReadPage(tid, b+100, lock.Shared); err == nil {
			t.Fatalf("%s: ReadPage of a page never allocated succeeded", cr.name)
		}
		if err := cli.Commit(tid); err != nil {
			t.Fatalf("%s: Commit after a ReadPage's own error: %v", cr.name, err)
		}
	}
}

// TestDeferredLockConflictSurfacesAtNextCall: an exclusive lock request
// answers at once, and a conflict it meets at the server surfaces at the
// transaction's next call — its Commit here — as ErrDeadlock once the lock
// timeout passes. Nothing of the transaction is logged or committed, and it
// aborts cleanly.
func TestDeferredLockConflictSurfacesAtNextCall(t *testing.T) {
	const timeout = 50 * time.Millisecond
	srv := server.New(server.Config{Mode: server.ModeESM, PoolPages: 64, LogCapacity: 16 << 20,
		LockTimeout: timeout, CheckpointEvery: 1 << 30})
	addr := serveTCP(t, srv, ServeOpts{})
	holder, writer := dialTest(t, addr), dialTest(t, addr)
	tid, err := holder.Begin()
	if err != nil {
		t.Fatal(err)
	}
	pid, err := holder.AllocPage(tid)
	if err != nil {
		t.Fatal(err)
	}
	if err := holder.Commit(tid); err != nil {
		t.Fatal(err)
	}
	if tid, err = holder.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := holder.Lock(tid, pid, lock.Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := holder.Lock(tid, pid, lock.Shared); err != nil { // carries the X request
		t.Fatal(err)
	}

	tid2, err := writer.Begin()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := writer.Lock(tid2, pid, lock.Exclusive); err != nil {
		t.Fatalf("a deferred X request = %v, want nil", err)
	}
	if wait := time.Since(start); wait >= timeout {
		t.Fatalf("a deferred X request waited %v, at least the lock timeout", wait)
	}
	upd := logrec.NewUpdate(tid2, pid, page.HeaderSize, make([]byte, 8), []byte("conflict"))
	if err := writer.ShipLog(tid2, upd.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	end, commits := srv.Log().End(), srv.Stats().Commits
	if err := writer.Commit(tid2); !errors.Is(err, lock.ErrDeadlock) {
		t.Fatalf("Commit behind a conflicting X request = %v, want ErrDeadlock", err)
	}
	if got := srv.Log().End(); got != end {
		t.Fatalf("the refused batch grew the log from %d to %d", end, got)
	}
	if got := srv.Stats().Commits; got != commits {
		t.Fatalf("commits went from %d to %d", commits, got)
	}
	if err := writer.Abort(tid2); err != nil {
		t.Fatalf("abort after the conflict: %v", err)
	}
	if err := holder.Commit(tid); err != nil {
		t.Fatal(err)
	}
}

// TestAbortDropsPendingFrames: frames still waiting when their transaction
// aborts never reach the daemon. The transaction's open did: it rode the
// alloc-page, the one batch served.
func TestAbortDropsPendingFrames(t *testing.T) {
	srv := testServer(server.ModeESM)
	cli := dialTest(t, serveTCP(t, srv, ServeOpts{}))
	tid, err := cli.Begin()
	if err != nil {
		t.Fatal(err)
	}
	pid, err := cli.AllocPage(tid)
	if err != nil {
		t.Fatal(err)
	}
	pg := page.New(pid)
	if err := cli.ShipLog(tid, logrec.NewPageImage(tid, pid, pg.Bytes()).Encode(nil)); err != nil {
		t.Fatal(err)
	}
	if err := cli.ShipPage(tid, pid, pg.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := cli.Abort(tid); err != nil {
		t.Fatal(err)
	}
	ds, err := cli.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(ds.Ops); got != "map[abort:1 alloc-page:1 batch:1 open:1 reserve:1 stats:1]" {
		t.Fatalf("daemon served %s, want no ship-log or ship-page, and one batch of open and alloc-page", got)
	}
	if _, ok := cli.pending[tid]; ok {
		t.Fatal("the aborted transaction's frames are still pending")
	}
}

// TestUnsentTransactionCostsNothing: a transaction that sends nothing before
// it ends — Begin then Abort, or the router's Adopt then an abort decision —
// costs a warm connection no frame at all, and the server no abort.
func TestUnsentTransactionCostsNothing(t *testing.T) {
	srv := testServer(server.ModeESM)
	cli := dialTest(t, serveTCP(t, srv, ServeOpts{}))
	warm, err := cli.Begin() // reserves the connection's block
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.AllocPage(warm); err != nil {
		t.Fatal(err)
	}
	if err := cli.Commit(warm); err != nil {
		t.Fatal(err)
	}
	before, err := cli.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	aborts := srv.Stats().Aborts
	tid, err := cli.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Abort(tid); err != nil {
		t.Fatal(err)
	}
	if err := cli.Adopt(1 << 20); err != nil {
		t.Fatal(err)
	}
	if err := cli.Decide(1<<20, false); err != nil {
		t.Fatal(err)
	}
	after, err := cli.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	for op, n := range after.Ops {
		if d := n - before.Ops[op]; d != 0 && op != "stats" {
			t.Errorf("daemon served %d %s frames for transactions that sent nothing", d, op)
		}
	}
	if got := srv.Stats().Aborts; got != aborts {
		t.Errorf("aborts went from %d to %d", aborts, got)
	}
	if len(cli.pending) != 0 {
		t.Fatalf("%d transactions still have pending frames", len(cli.pending))
	}
}

// TestPendingFramesAfterRedialDrawNoTxn: a Dial client whose connection broke
// while frames waited sends them on the next connection. There the
// transaction is gone — the daemon aborted it at the disconnect — or was
// never opened: its id was reserved on the dead connection. Either way the
// batch draws ErrNoTxn, its Commit never runs and no aborted id is opened
// again; and the client's next Begin reserves a fresh block.
func TestPendingFramesAfterRedialDrawNoTxn(t *testing.T) {
	srv := testServer(server.ModeESM)
	cli := dialTest(t, serveTCP(t, srv, ServeOpts{}))
	tid, err := cli.Begin()
	if err != nil {
		t.Fatal(err)
	}
	pid, err := cli.AllocPage(tid)
	if err != nil {
		t.Fatal(err)
	}
	pg := page.New(pid)
	if err := cli.ShipLog(tid, logrec.NewPageImage(tid, pid, pg.Bytes()).Encode(nil)); err != nil {
		t.Fatal(err)
	}
	if err := cli.ShipPage(tid, pid, pg.Bytes()); err != nil {
		t.Fatal(err)
	}
	unsent, err := cli.Begin() // its open waits
	if err != nil {
		t.Fatal(err)
	}
	tc := cli.c.(*tcpConn)
	tc.mu.Lock()
	tc.conn.Close()
	tc.mu.Unlock()
	if _, err := cli.ServerStats(); err == nil {
		t.Fatal("a call over the killed socket succeeded")
	}
	for deadline := time.Now().Add(2 * time.Second); srv.Stats().Aborts == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the daemon never aborted the disconnected transaction")
		}
	}
	if err := cli.Commit(tid); !errors.Is(err, server.ErrNoTxn) {
		t.Fatalf("Commit carried over a new connection = %v, want ErrNoTxn", err)
	}
	// The carrier's redial, not a refused open, tells the client its block
	// is gone: the first Begin after it reserves a fresh one.
	before, err := cli.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := cli.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.AllocPage(fresh); err != nil {
		t.Fatalf("the first transaction after the redial: %v", err)
	}
	after, err := cli.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if d := after.Ops["reserve"] - before.Ops["reserve"]; d != 1 {
		t.Fatalf("the first Begin after the redial sent %d reserves, want 1", d)
	}
	if err := cli.Commit(fresh); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.ReadPage(unsent, pid, lock.Shared); !errors.Is(err, server.ErrNoTxn) {
		t.Fatalf("an open reserved on the dead connection, carried over the new one = %v, want ErrNoTxn", err)
	}
	// A re-sent open of the aborted transaction is refused as well.
	if err := cli.Adopt(tid); err != nil {
		t.Fatal(err)
	}
	if err := cli.Lock(tid, pid, lock.Shared); !errors.Is(err, server.ErrNoTxn) {
		t.Fatalf("a second open of the aborted %v = %v, want ErrNoTxn", tid, err)
	}
	if c := srv.Stats().Commits; c != 1 {
		t.Fatalf("commits = %d, want only the fresh transaction's", c)
	}
}

// TestPendingFramesBesideAManagementGoroutine: a management goroutine (the
// router's Recover) calls in on the same client while transactions defer and
// carry frames — abort decisions for other transactions, stats, and
// transactions of its own that take ids from the same reserved blocks, in
// process from the same server session — and neither side loses or steals
// the other's frames or ids (run under -race).
func TestPendingFramesBesideAManagementGoroutine(t *testing.T) {
	carriers := []struct {
		name string
		dial func(*server.Server) *Client
	}{
		{"direct", func(srv *server.Server) *Client { return NewDirect(srv, nil, nil) }},
		{"tcp", func(srv *server.Server) *Client { return dialTest(t, serveTCP(t, srv, ServeOpts{})) }},
	}
	for _, cr := range carriers {
		srv := testServer(server.ModeESM)
		cli := cr.dial(srv)
		const rounds = 150 // two transactions a round: more than one block of ids
		done := make(chan error, 1)
		go func() {
			for i := 0; i < rounds; i++ {
				if err := cli.Decide(logrec.TID(1<<30+i), false); err != nil {
					done <- err
					return
				}
				if _, err := cli.ServerStats(); err != nil {
					done <- err
					return
				}
				tid, err := cli.Begin()
				if err != nil {
					done <- err
					return
				}
				if _, err := cli.AllocPage(tid); err != nil {
					done <- err
					return
				}
				if err := cli.Abort(tid); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		for i := 0; i < rounds; i++ {
			tid, err := cli.Begin()
			if err != nil {
				t.Fatal(err)
			}
			pid, err := cli.AllocPage(tid)
			if err != nil {
				t.Fatal(err)
			}
			pg := page.New(pid)
			if err := cli.ShipLog(tid, logrec.NewPageImage(tid, pid, pg.Bytes()).Encode(nil)); err != nil {
				t.Fatal(err)
			}
			if err := cli.ShipPage(tid, pid, pg.Bytes()); err != nil {
				t.Fatal(err)
			}
			if err := cli.Commit(tid); err != nil {
				t.Fatal(err)
			}
		}
		if err := <-done; err != nil {
			t.Fatalf("%s: %v", cr.name, err)
		}
		if got, aborts := srv.Stats().Commits, srv.Stats().Aborts; got != rounds || aborts != rounds {
			t.Fatalf("%s: commits = %d, aborts = %d, want %d each", cr.name, got, aborts, rounds)
		}
		if n := len(cli.pending); n != 0 {
			t.Fatalf("%s: %d transactions still have pending frames", cr.name, n)
		}
	}
}

// TestBatchKeepsTheFrameLimit: a transaction whose commit ships more than one
// frame holds — a loader's, creating pages — commits over TCP: its pending
// frames go ahead in batches of at most maxFrame bytes, where one oversized
// frame would have the daemon drop the connection.
func TestBatchKeepsTheFrameLimit(t *testing.T) {
	srv := server.New(server.Config{Mode: server.ModeESM, PoolPages: 512, LogCapacity: 16 << 20, CheckpointEvery: 1 << 30})
	cli := dialTest(t, serveTCP(t, srv, ServeOpts{}))
	tid, err := cli.Begin()
	if err != nil {
		t.Fatal(err)
	}
	const pages = 2 * maxFrame / page.Size // about 4 MB of images and pages
	pids := make([]page.ID, pages)
	for i := range pids {
		if pids[i], err = cli.AllocPage(tid); err != nil {
			t.Fatal(err)
		}
	}
	for _, pid := range pids {
		img := page.New(pid).Bytes()
		if err := cli.ShipLog(tid, logrec.NewPageImage(tid, pid, img).Encode(nil)); err != nil {
			t.Fatal(err)
		}
	}
	for _, pid := range pids {
		if err := cli.ShipPage(tid, pid, page.New(pid).Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.Commit(tid); err != nil {
		t.Fatal(err)
	}
	ds, err := cli.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Ops["ship-log"] != pages || ds.Ops["ship-page"] != pages || ds.Ops["commit"] != 1 || ds.Ops["batch"] < 4 {
		t.Fatalf("daemon served %v, want %d ship-logs and ship-pages and a commit in at least 4 batches", ds.Ops, pages)
	}
}

// FuzzSubFrames hardens the batch parser: it never panics, and a batch it
// accepts is one transaction's, ends in a call that may end it, and encodes
// back to the same bytes.
func FuzzSubFrames(f *testing.F) {
	const tid = 7
	seed := func(members ...frame) []byte {
		var b []byte
		for _, m := range members {
			b = appendMember(b, m)
		}
		return b
	}
	f.Add(seed(frame{op: opShipLog, tid: tid, payload: []byte{1, 2}}, frame{op: opShipPage, tid: tid, pid: 3}, frame{op: opCommit, tid: tid}))
	f.Add(seed(frame{op: opShipPage, tid: tid}))
	f.Add(seed(frame{op: opCommit, tid: tid}, frame{op: opShipLog, tid: tid}))
	f.Add(seed(frame{op: opBatch, tid: tid, payload: seed(frame{op: opCommit, tid: tid})}))
	f.Add(seed(frame{op: opStats, tid: tid}))
	f.Add(seed(frame{op: opShipLog, tid: tid + 1}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, opCommit})
	f.Fuzz(func(t *testing.T, payload []byte) {
		b := frame{op: opBatch, tid: tid, payload: payload}
		members, err := subFrames(b)
		if err != nil {
			return
		}
		var again []byte
		for i, m := range members {
			if m.tid != tid {
				t.Fatalf("member %d belongs to %v", i, m.tid)
			}
			if role := rowOf(m.op).batch; role != deferred && (role != carries || i != len(members)-1) {
				t.Fatalf("member %d is a %s frame", i, opName(m.op))
			}
			again = appendMember(again, m)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("members re-encode to %x, parsed from %x", again, payload)
		}
	})
}

// TestBeginDropsFramesLeftUnderAReissuedID: a server restarted from its
// volume may reserve an id again that the client used before, on a
// connection that died with the old server. Frames a transaction abandoned
// under that id must not ride the new transaction's first call.
func TestBeginDropsFramesLeftUnderAReissuedID(t *testing.T) {
	sc, cli := scriptedClient() // every reserve answers a block from id 1
	tid, err := cli.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.ShipLog(tid, []byte("abandoned")); err != nil {
		t.Fatal(err)
	}
	cli.tids.left = 0 // the connection died and the restarted server reserves from 1 again
	again, err := cli.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if again != tid {
		t.Fatalf("Begin after the reserve = %v, want the reissued %v", again, tid)
	}
	if err := cli.Lock(again, 1, lock.Shared); err != nil {
		t.Fatal(err)
	}
	members, err := subFrames(sc.frames[len(sc.frames)-1])
	if err != nil {
		t.Fatal(err)
	}
	var ops []string
	for _, m := range members {
		ops = append(ops, opName(m.op))
	}
	if got := strings.Join(ops, " "); got != "open lock" {
		t.Fatalf("the new transaction's first call carried %q, want %q", got, "open lock")
	}
}

// TestReadPageBesideAManagementGoroutine: a ReadPage reply lands in a buffer
// its carrier reuses, so a management goroutine calling in on the same client
// — stats and in-doubt queries, whose replies land elsewhere — must never
// overwrite a page the transaction side is still reading. Every image read
// equals the committed one (run under -race as well).
func TestReadPageBesideAManagementGoroutine(t *testing.T) {
	carriers := []struct {
		name string
		dial func(*server.Server) *Client
	}{
		{"direct", func(srv *server.Server) *Client { return NewDirect(srv, nil, nil) }},
		{"tcp", func(srv *server.Server) *Client { return dialTest(t, serveTCP(t, srv, ServeOpts{})) }},
	}
	for _, cr := range carriers {
		srv := testServer(server.ModeESM)
		cli := cr.dial(srv)
		tid, err := cli.Begin()
		if err != nil {
			t.Fatal(err)
		}
		pid, err := cli.AllocPage(tid)
		if err != nil {
			t.Fatal(err)
		}
		pg := page.New(pid)
		slot, err := pg.Allocate(page.Size / 2)
		if err != nil {
			t.Fatal(err)
		}
		pg.WriteAt(slot, 0, bytes.Repeat([]byte{0x5a}, page.Size/2))
		want := append([]byte(nil), pg.Bytes()...)
		if err := cli.ShipLog(tid, logrec.NewPageImage(tid, pid, want).Encode(nil)); err != nil {
			t.Fatal(err)
		}
		if err := cli.ShipPage(tid, pid, want); err != nil {
			t.Fatal(err)
		}
		if err := cli.Commit(tid); err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			for {
				select {
				case <-stop:
					done <- nil
					return
				default:
				}
				if _, err := cli.ServerStats(); err != nil {
					done <- err
					return
				}
				if _, err := cli.InDoubt(); err != nil {
					done <- err
					return
				}
			}
		}()
		for i := 0; i < 500; i++ {
			tid, err := cli.Begin()
			if err != nil {
				t.Fatal(err)
			}
			data, err := cli.ReadPage(tid, pid, lock.Shared)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data[8:], want[8:]) { // past the LSN stamp
				close(stop)
				t.Fatalf("%s: read %d returned another reply's bytes in place of the committed page", cr.name, i)
			}
			if err := cli.Commit(tid); err != nil {
				t.Fatal(err)
			}
		}
		close(stop)
		if err := <-done; err != nil {
			t.Fatalf("%s: %v", cr.name, err)
		}
	}
}
