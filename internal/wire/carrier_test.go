package wire

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/faultinject"
	"repro/internal/lock"
	"repro/internal/logrec"
	"repro/internal/page"
	"repro/internal/server"
)

// TestOpTableComplete: every op code but the retired one has a name and an
// explicit re-send rule, names are unique, only idempotent data ops may be
// duplicated — a reserve (a second block, both the connection's), an open (a
// no-op on an active transaction) and an exclusive lock among them — only
// the status-only data ops are deferred, a transaction's open and an
// exclusive lock among them, and an unknown code still prints as op<N>.
func TestOpTableComplete(t *testing.T) {
	if len(ops) != opLockX+1 {
		t.Fatalf("op table has %d rows, want %d", len(ops), opLockX+1)
	}
	if ops[opRetired] != (opInfo{}) {
		t.Fatalf("the retired op code has a row: %+v", ops[opRetired])
	}
	seen := map[string]bool{}
	for op := byte(opReserve); op <= opLockX; op++ {
		if op == opRetired {
			continue
		}
		row := ops[op]
		if row.name == "" || row.resend == 0 {
			t.Errorf("op %d: row %+v lacks a name or a re-send rule", op, row)
		}
		if want := op == opReserve || op == opOpen || op == opLockX; want && row.resend != resendAlways {
			t.Errorf("op %s: re-send rule %d, want resendAlways", row.name, row.resend)
		}
		if seen[row.name] {
			t.Errorf("op %d: duplicate name %q", op, row.name)
		}
		seen[row.name] = true
		if want := op == opLock || op == opLockX || op == opReadPage || op == opShipPage || op == opReserve || op == opOpen; row.dup != want {
			t.Errorf("op %s: dup = %v, want %v", row.name, row.dup, want)
		}
		if want := op == opShipLog || op == opShipPage || op == opOpen || op == opLockX; (row.batch == deferred) != want {
			t.Errorf("op %s: deferred = %v, want %v", row.name, row.batch == deferred, want)
		}
	}
	if got := opName(200); got != "op200" {
		t.Fatalf("unknown op prints %q, want op200", got)
	}
}

// TestFaultsDuplicateOnlyIdempotentOps: with every message duplicated, only
// a reserve, Lock, ReadPage and a batch of nothing but opens, ShipPages,
// exclusive locks and such a call are delivered twice; everything else once.
func TestFaultsDuplicateOnlyIdempotentOps(t *testing.T) {
	sc, c := scriptedClient()
	svc := WithFaults(c, faultinject.Plan{Name: "dup-all", Seed: 1, DupRate: 1})
	svc.Begin()                 // reserve: tid 1 of a block from 1
	svc.Lock(1, 1, lock.Shared) // batch: open, lock
	svc.Lock(1, 1, lock.Shared)
	svc.AllocPage(1)
	svc.ReadPage(1, 1, lock.Shared)
	svc.ShipPage(1, 1, nil)
	svc.Lock(1, 1, lock.Exclusive)
	svc.Lock(1, 1, lock.Shared) // batch: ship-page, lock-x, lock
	svc.ShipLog(1, nil)
	svc.ShipPage(1, 1, nil)
	svc.Commit(1) // batch: ship-log, ship-page, commit
	svc.Abort(1)
	svc.Adopt(2)
	svc.Prepare(2, 0, []int{0}) // batch: open, prepare
	svc.Decide(2, true)
	svc.Forget(2)
	svc.Resolve(2)
	svc.InDoubt()
	delivered := map[string]int{}
	for _, op := range sc.ops {
		delivered[opName(op)]++
	}
	want := map[string]int{"reserve": 2, "lock": 2, "alloc-page": 1, "read-page": 2, "batch": 6,
		"abort": 1, "decide": 2, "resolve-in-doubt": 1, "stats": 1}
	if fmt.Sprint(delivered) != fmt.Sprint(want) {
		t.Fatalf("deliveries %v, want %v (decide carries two calls, and the first two batches go twice)", delivered, want)
	}
}

// serveTCP serves srv on a loopback listener for the test's lifetime.
func serveTCP(t *testing.T, srv *server.Server, opts ServeOpts) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go ServeWith(lis, srv, opts)
	return lis.Addr().String()
}

// dialTest connects to addr and closes the connection when the test ends.
func dialTest(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestCarrierParity runs the same protocol through every carrier — in
// process, TCP, and each of them under dropped messages and retry — against
// a fresh server, and requires identical observable results: the server
// sees the same frames whatever carried them.
func TestCarrierParity(t *testing.T) {
	drops := faultinject.Plan{Name: "drops", Seed: 5, DropRate: 0.3}
	carriers := []struct {
		name string
		dial func(*server.Server, *[]time.Duration) *Client
	}{
		{"direct", func(srv *server.Server, _ *[]time.Duration) *Client { return NewDirect(srv, nil, nil) }},
		{"tcp", func(srv *server.Server, _ *[]time.Duration) *Client {
			return dialTest(t, serveTCP(t, srv, ServeOpts{}))
		}},
		{"direct+faults+retry", func(srv *server.Server, sleeps *[]time.Duration) *Client {
			return WithRetry(WithFaults(NewDirect(srv, nil, nil), drops), retryPolicy(10, sleeps))
		}},
		{"tcp+faults+retry", func(srv *server.Server, sleeps *[]time.Duration) *Client {
			return WithRetry(WithFaults(dialTest(t, serveTCP(t, srv, ServeOpts{})), drops), retryPolicy(10, sleeps))
		}},
	}
	var want string
	for _, cr := range carriers {
		srv := shardServer()
		var sleeps []time.Duration
		svc := cr.dial(srv, &sleeps)
		exerciseService(t, svc)
		const g = logrec.TID(1 << 20)
		if err := svc.Adopt(g); err != nil {
			t.Fatal(err)
		}
		if err := svc.Prepare(g, 0, []int{0, 1}); err != nil {
			t.Fatal(err)
		}
		doubt, err := svc.InDoubt()
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Decide(g, true); err != nil {
			t.Fatal(err)
		}
		commit, parts, err := svc.Resolve(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Forget(g); err != nil {
			t.Fatal(err)
		}
		ds, err := svc.ServerStats()
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("in doubt %d (tid %d), resolve %v %v, commits %d aborts %d, log end %d, ops %v",
			len(doubt), doubt[0].TID, commit, parts, ds.Commits, ds.Aborts, srv.Log().End(), ds.Ops)
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("%s: %s\nwant %s", cr.name, got, want)
		}
		if faulty := strings.HasSuffix(cr.name, "retry"); faulty != (len(sleeps) > 0) {
			t.Errorf("%s: %d retries", cr.name, len(sleeps))
		}
	}
}

// TestDaemonAppliesMessageFaults: a plan armed on a daemon acts on the frames
// it serves — a drop closes the connection unserved, a reset closes it after
// serving, a delay holds the request, a duplicate serves it twice — and a
// client retrying through it either sees each transaction commit or sees it
// reported failed, never a half-applied value. Disarmed, and under a plan with
// no message faults, no frame is perturbed.
func TestDaemonAppliesMessageFaults(t *testing.T) {
	fs := faultinject.NewStore(disk.NewMemStore())
	srv := server.New(server.Config{
		Mode:            server.ModeESM,
		Store:           fs,
		PoolPages:       64,
		LogCapacity:     16 << 20,
		LockTimeout:     500 * time.Millisecond,
		CheckpointEvery: 1 << 30,
	})
	addr := serveTCP(t, srv, ServeOpts{Faults: fs})
	var adminSleeps, sleeps []time.Duration
	admin := WithRetry(dialTest(t, addr), retryPolicy(10, &adminSleeps))
	svc := WithRetry(dialTest(t, addr), retryPolicy(10, &sleeps))

	// One page holding the value every transaction overwrites.
	tid, err := svc.Begin()
	if err != nil {
		t.Fatal(err)
	}
	pid, err := svc.AllocPage(tid)
	if err != nil {
		t.Fatal(err)
	}
	pg := page.New(pid)
	slot, _ := pg.Allocate(8)
	pg.WriteAt(slot, 0, []byte("val-0000"))
	if err := svc.ShipLog(tid, logrec.NewPageImage(tid, pid, pg.Bytes()).Encode(nil)); err != nil {
		t.Fatal(err)
	}
	if err := svc.ShipPage(tid, pid, pg.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := svc.Commit(tid); err != nil {
		t.Fatal(err)
	}

	errShip := errors.New("shipping failed")
	update := func(val string) error {
		tid, err := svc.Begin()
		if err != nil {
			return err
		}
		err = func() error {
			if err := svc.Lock(tid, pid, lock.Exclusive); err != nil {
				return err
			}
			data, err := svc.ReadPage(tid, pid, lock.Exclusive)
			if err != nil {
				return err
			}
			pg := page.Wrap(data)
			old := make([]byte, 8)
			pg.ReadAt(slot, 0, old)
			rec := logrec.NewUpdate(tid, pid, page.HeaderSize, old, []byte(val))
			if err := svc.ShipLog(tid, rec.Encode(nil)); err != nil {
				return fmt.Errorf("%w: %v", errShip, err)
			}
			pg.WriteAt(slot, 0, []byte(val))
			if err := svc.ShipPage(tid, pid, pg.Bytes()); err != nil {
				return fmt.Errorf("%w: %v", errShip, err)
			}
			return svc.Commit(tid)
		}()
		if err != nil {
			svc.Abort(tid)
		}
		return err
	}
	read := func() string {
		for try := 0; try < 10; try++ {
			tid, err := svc.Begin()
			if err != nil {
				continue
			}
			data, err := svc.ReadPage(tid, pid, lock.Shared)
			svc.Abort(tid)
			if err == nil {
				got := make([]byte, 8)
				page.Wrap(data).ReadAt(slot, 0, got)
				return string(got)
			}
		}
		t.Fatal("no read got through in 10 transactions")
		return ""
	}
	// run performs n updates, checking after each that the page holds the new
	// value if the commit was acknowledged, the old one if the transaction was
	// reported failed, and one of the two if the outcome is unknown.
	cur, next := "val-0000", 1
	run := func(n int) (failed int) {
		for i := 0; i < n; i++ {
			val := fmt.Sprintf("val-%04d", next)
			next++
			err := update(val)
			got := read()
			switch {
			case err == nil:
				if got != val {
					t.Fatalf("%s acknowledged, page reads %q", val, got)
				}
			case errors.Is(err, ErrCommitOutcomeUnknown):
				if got != val && got != cur {
					t.Fatalf("%s outcome unknown, page reads %q (want it or %q)", val, got, cur)
				}
			case errors.Is(err, server.ErrNoTxn), errors.Is(err, errShip):
				// The dropped connection aborted the transaction: a re-sent op
				// finds it gone (a re-sent ShipPage, its locks released).
				if got != cur {
					t.Fatalf("%s reported failed (%v), page reads %q, want %q", val, err, got, cur)
				}
			default:
				t.Fatalf("%s: unexpected error %v", val, err)
			}
			if err != nil {
				failed++
			}
			cur = got
		}
		return failed
	}

	if _, err := admin.Faults(true, "flaky-net", 7); err != nil {
		t.Fatal(err)
	}
	failed := run(50)
	if len(sleeps) == 0 {
		t.Fatal("flaky-net armed on the daemon caused no retry")
	}
	t.Logf("flaky-net: %d retries, %d of 50 transactions reported failed", len(sleeps), failed)

	if _, err := admin.Faults(false, "", 0); err != nil {
		t.Fatal(err)
	}
	sleeps = nil
	if failed := run(10); failed != 0 || len(sleeps) != 0 {
		t.Fatalf("disarmed: %d failed, %d retries, want none", failed, len(sleeps))
	}

	// A disk-only plan installs no message schedule.
	if _, err := admin.Faults(true, "eio", 7); err != nil {
		t.Fatal(err)
	}
	if armed := fs.Armed(); armed != "eio" {
		t.Fatalf("armed plan %q, want eio", armed)
	}
	for i := 0; i < 10; i++ {
		update(fmt.Sprintf("eio-%04d", i))
	}
	if len(sleeps) != 0 {
		t.Fatalf("a disk-only plan perturbed frames: %d retries", len(sleeps))
	}
	if _, err := admin.Faults(false, "", 0); err != nil {
		t.Fatal(err)
	}
}

// TestScrubDiskErrorIsNotCorruption: a transient disk error during a scrub
// travels as a disk fault, not as a corrupt page.
func TestScrubDiskErrorIsNotCorruption(t *testing.T) {
	fs := faultinject.NewStore(disk.NewMemStore())
	srv := server.New(server.Config{Mode: server.ModeESM, Store: fs, PoolPages: 16, LogCapacity: 4 << 20})
	cli := dialTest(t, serveTCP(t, srv, ServeOpts{}))
	fs.Arm(faultinject.Plan{Name: "eio-all", Seed: 1, ReadErrorRate: 1})
	_, err := cli.Scrub(0)
	if err == nil {
		t.Fatal("scrub over a store failing every read succeeded")
	}
	if errors.Is(err, disk.ErrCorruptPage) {
		t.Fatalf("injected read error reported as corruption: %v", err)
	}
}
