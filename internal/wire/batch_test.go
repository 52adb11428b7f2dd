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
		if err := svc.Lock(tid, pid, lock.Exclusive); err != nil {
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

// TestAbortDropsPendingFrames: frames still waiting when their transaction
// aborts never reach the daemon.
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
	if got := fmt.Sprint(ds.Ops); got != "map[abort:1 alloc-page:1 begin:1 stats:1]" {
		t.Fatalf("daemon served %s, want no ship-log, ship-page or batch", got)
	}
	if _, ok := cli.pending[tid]; ok {
		t.Fatal("the aborted transaction's frames are still pending")
	}
}

// TestPendingFramesAfterRedialDrawNoTxn: a Dial client whose connection broke
// while frames waited sends them on the next connection, where the
// transaction is gone — the daemon aborted it at the disconnect — so the
// batch draws ErrNoTxn and its Commit never runs.
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
	tc := cli.c.(*tcpConn)
	tc.mu.Lock()
	tc.conn.Close()
	tc.mu.Unlock()
	if _, err := cli.Begin(); err == nil {
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
	if c := srv.Stats().Commits; c != 0 {
		t.Fatalf("commits = %d, want 0", c)
	}
}

// TestPendingFramesBesideAManagementGoroutine: a management goroutine (the
// router's Recover) calls in on the same client while transactions defer and
// carry frames — abort decisions for other transactions and stats — and
// neither side loses or steals the other's frames (run under -race).
func TestPendingFramesBesideAManagementGoroutine(t *testing.T) {
	srv := testServer(server.ModeESM)
	cli := dialTest(t, serveTCP(t, srv, ServeOpts{}))
	const rounds = 50
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
		t.Fatal(err)
	}
	if got := srv.Stats().Commits; got != rounds {
		t.Fatalf("commits = %d, want %d", got, rounds)
	}
	if n := len(cli.pending); n != 0 {
		t.Fatalf("%d transactions still have pending frames", n)
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
