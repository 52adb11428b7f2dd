package faultinject_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/lock"
	"repro/internal/server"
	"repro/internal/wire"
)

// A plan's message faults reach a server through the wire package's fault
// carrier; these tests drive it in process against a real server.

func testServer() *server.Server {
	return server.New(server.Config{
		Mode:        server.ModeESM,
		PoolPages:   64,
		LockTimeout: 30 * time.Millisecond,
	})
}

// TestTransportDropIsNotDelivered: a dropped request reports ErrNotDelivered
// and really is not delivered — the guarantee the retry layer's commit
// handling relies on.
func TestTransportDropIsNotDelivered(t *testing.T) {
	srv := testServer()
	plain := wire.NewDirect(srv, nil, nil)
	tid, err := plain.Begin()
	if err != nil {
		t.Fatal(err)
	}
	flaky := wire.WithFaults(plain, faultinject.Plan{Name: "drop-all", Seed: 1, DropRate: 1})
	if err := flaky.Commit(tid); !errors.Is(err, faultinject.ErrNotDelivered) {
		t.Fatalf("dropped commit returned %v, want ErrNotDelivered", err)
	}
	if c := srv.Stats().Commits; c != 0 {
		t.Fatal("dropped commit was delivered")
	}
}

// TestTransportResetOnCommit: the commit is delivered but the response is
// lost, so the caller sees an injected error it cannot distinguish from a
// connection reset — while the transaction really committed, once.
func TestTransportResetOnCommit(t *testing.T) {
	srv := testServer()
	plain := wire.NewDirect(srv, nil, nil)
	tid, err := plain.Begin()
	if err != nil {
		t.Fatal(err)
	}
	flaky := wire.WithFaults(plain, faultinject.Plan{Name: "reset", Seed: 1, ResetOnCommit: 1})
	err = flaky.Commit(tid)
	if !errors.Is(err, faultinject.ErrInjected) || errors.Is(err, faultinject.ErrNotDelivered) {
		t.Fatalf("reset-on-commit returned %v, want an injected (but delivered) fault", err)
	}
	if c := srv.Stats().Commits; c != 1 {
		t.Fatalf("commit delivered %d times, want 1", c)
	}
}

// TestStalledPeerTriggersDeadlockTimeout injects a stalled peer: a client
// whose commit is held up in the transport while its exclusive locks stay
// granted. A second client waiting on one of those locks must come back with
// lock.ErrDeadlock once the lock manager's wait bound expires — not block
// until the peer recovers — and must succeed on retry after the stalled
// commit finally lands and releases the locks.
func TestStalledPeerTriggersDeadlockTimeout(t *testing.T) {
	srv := testServer()
	peer := wire.WithFaults(wire.NewDirect(srv, nil, nil), faultinject.Plan{
		Name:        "stall",
		Seed:        1,
		StallCommit: 250 * time.Millisecond,
	})
	victim := wire.NewDirect(srv, nil, nil)

	tidP, err := peer.Begin()
	if err != nil {
		t.Fatal(err)
	}
	pid, err := peer.AllocPage(tidP)
	if err != nil {
		t.Fatal(err)
	}
	if err := peer.Lock(tidP, pid, lock.Exclusive); err != nil {
		t.Fatal(err)
	}

	committed := make(chan error, 1)
	go func() { committed <- peer.Commit(tidP) }() // stalls, locks held

	tidV, err := victim.Begin()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = victim.Lock(tidV, pid, lock.Shared)
	if !errors.Is(err, lock.ErrDeadlock) {
		t.Fatalf("lock against the stalled peer returned %v, want lock.ErrDeadlock", err)
	}
	if waited := time.Since(start); waited > 200*time.Millisecond {
		t.Fatalf("deadlock timeout took %v: the victim waited on the stalled peer itself", waited)
	}

	if err := <-committed; err != nil {
		t.Fatalf("stalled commit eventually failed: %v", err)
	}
	if err := victim.Lock(tidV, pid, lock.Shared); err != nil {
		t.Fatalf("lock retry after the peer's commit released its locks: %v", err)
	}
	if err := victim.Abort(tidV); err != nil {
		t.Fatal(err)
	}
}
