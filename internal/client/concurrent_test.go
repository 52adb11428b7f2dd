package client

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/lock"
	"repro/internal/page"
	"repro/internal/server"
	"repro/internal/wire"
)

// TestConcurrentClientsDisjointData runs several real (goroutine) clients
// against one server on disjoint data — the paper's no-conflict setup — and
// checks isolation and durability across a crash.
func TestConcurrentClientsDisjointData(t *testing.T) {
	for _, v := range versions {
		t.Run(v.name, func(t *testing.T) {
			srv := server.New(server.Config{
				Mode:            v.serverMode,
				PoolPages:       256,
				LogCapacity:     64 << 20,
				LockTimeout:     2 * time.Second,
				CheckpointEvery: 16,
			})
			const nClients = 4
			const nTxns = 8
			oids := make([][]page.OID, nClients)
			var wg sync.WaitGroup
			errs := make([]error, nClients)
			for c := 0; c < nClients; c++ {
				c := c
				wg.Add(1)
				go func() {
					defer wg.Done()
					cli := New(Config{
						Scheme:         v.scheme,
						PoolPages:      32,
						RecoveryBytes:  1 << 20,
						ShipDirtyPages: v.serverMode != server.ModeREDO,
					}, wire.NewDirect(srv, nil, nil))
					tx, err := cli.Begin()
					if err != nil {
						errs[c] = err
						return
					}
					for i := 0; i < 5; i++ {
						if _, err := tx.NewPage(); err != nil {
							errs[c] = err
							return
						}
						oid, err := tx.Allocate(16)
						if err != nil {
							errs[c] = err
							return
						}
						oids[c] = append(oids[c], oid)
					}
					if err := tx.Commit(); err != nil {
						errs[c] = err
						return
					}
					for round := 0; round < nTxns; round++ {
						tx, err := cli.Begin()
						if err != nil {
							errs[c] = err
							return
						}
						for i, oid := range oids[c] {
							val := []byte(fmt.Sprintf("c%02dr%02di%02d!!!!!!!", c, round, i))
							if err := tx.Write(oid, 0, val); err != nil {
								errs[c] = err
								return
							}
						}
						if err := tx.Commit(); err != nil {
							errs[c] = err
							return
						}
					}
				}()
			}
			wg.Wait()
			for c, err := range errs {
				if err != nil {
					t.Fatalf("client %d: %v", c, err)
				}
			}
			srv.Crash()
			if err := srv.NewSession(nil, nil).Restart(); err != nil {
				t.Fatal(err)
			}
			// A fresh client verifies every object's final value.
			verifier := New(Config{
				Scheme:         PD,
				PoolPages:      64,
				ShipDirtyPages: v.serverMode != server.ModeREDO,
			}, wire.NewDirect(srv, nil, nil))
			vtx, err := verifier.Begin()
			if err != nil {
				t.Fatal(err)
			}
			for c := range oids {
				for i, oid := range oids[c] {
					got, err := vtx.ReadObject(oid)
					if err != nil {
						t.Fatalf("client %d object %d: %v", c, i, err)
					}
					want := []byte(fmt.Sprintf("c%02dr%02di%02d!!!!!!!", c, nTxns-1, i))
					if !bytes.Equal(got, want) {
						t.Fatalf("client %d object %d: %q, want %q", c, i, got, want)
					}
				}
			}
			vtx.Commit()
		})
	}
}

// TestTwoClientsContendOnSharedPage checks two-phase locking through the
// full client stack: a reader sees either the before or after value, never a
// torn intermediate, while a writer commits.
func TestTwoClientsContendOnSharedPage(t *testing.T) {
	srv := server.New(server.Config{
		Mode:            server.ModeESM,
		PoolPages:       64,
		LogCapacity:     32 << 20,
		LockTimeout:     5 * time.Second,
		CheckpointEvery: 1 << 30,
	})
	setup := New(Config{Scheme: PD, PoolPages: 32, ShipDirtyPages: true},
		wire.NewDirect(srv, nil, nil))
	tx, _ := setup.Begin()
	oid, _ := tx.Allocate(16)
	tx.Write(oid, 0, bytes.Repeat([]byte{'A'}, 16))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var torn bool
	var mu sync.Mutex
	// Reader client.
	wg.Add(1)
	go func() {
		defer wg.Done()
		cli := New(Config{Scheme: PD, PoolPages: 32, ShipDirtyPages: true},
			wire.NewDirect(srv, nil, nil))
		for {
			select {
			case <-stop:
				return
			default:
			}
			tx, err := cli.Begin()
			if err != nil {
				continue
			}
			got, err := tx.ReadObject(oid)
			tx.Abort()
			if err != nil {
				continue
			}
			allA := bytes.Equal(got, bytes.Repeat([]byte{'A'}, 16))
			allB := bytes.Equal(got, bytes.Repeat([]byte{'B'}, 16))
			if !allA && !allB {
				mu.Lock()
				torn = true
				mu.Unlock()
				return
			}
		}
	}()
	// Writer client flips the object in two writes within one transaction.
	writer := New(Config{Scheme: PD, PoolPages: 32, ShipDirtyPages: true},
		wire.NewDirect(srv, nil, nil))
	for round := 0; round < 20; round++ {
		tx, err := writer.Begin()
		if err != nil {
			t.Fatal(err)
		}
		tx.Write(oid, 0, bytes.Repeat([]byte{'B'}, 8))
		tx.Write(oid, 8, bytes.Repeat([]byte{'B'}, 8))
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		tx2, _ := writer.Begin()
		tx2.Write(oid, 0, bytes.Repeat([]byte{'A'}, 16))
		if err := tx2.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if torn {
		t.Fatal("reader observed a torn write under page locking")
	}
}

// TestDeferredLockTimeoutAbortsAndRetries: a write to a cached page does not
// wait for its exclusive lock, so a writer whose page another client holds X
// on finds out at its commit — ErrDeadlock once the lock timeout passes. It
// aborts, which drops its copy of the page, and its retry reads the holder's
// committed value before writing its own.
func TestDeferredLockTimeoutAbortsAndRetries(t *testing.T) {
	srv := server.New(server.Config{
		Mode:            server.ModeESM,
		PoolPages:       64,
		LogCapacity:     32 << 20,
		LockTimeout:     50 * time.Millisecond,
		CheckpointEvery: 1 << 30,
	})
	cfg := Config{Scheme: PD, PoolPages: 32, ShipDirtyPages: true}
	writer := New(cfg, wire.NewDirect(srv, nil, nil))
	tx := mustBegin(t, writer)
	oid, err := tx.Allocate(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(oid, 0, []byte("original")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// The holder has no copy: its write fetches the page with X.
	holder := New(cfg, wire.NewDirect(srv, nil, nil))
	htx := mustBegin(t, holder)
	if err := htx.Write(oid, 0, []byte("holder!!")); err != nil {
		t.Fatal(err)
	}

	tx = mustBegin(t, writer)
	if err := tx.Write(oid, 0, []byte("writer!!")); err != nil {
		t.Fatalf("a write on a cached page = %v, want it to wait for nothing", err)
	}
	if err := tx.Commit(); !errors.Is(err, lock.ErrDeadlock) {
		t.Fatalf("commit behind the holder's X lock = %v, want ErrDeadlock", err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if writer.Space().ByPage(oid.Page) != nil || writer.Pool().Peek(oid.Page) != nil {
		t.Fatal("the aborted writer still caches its copy of the page")
	}
	if err := htx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx = mustBegin(t, writer)
	got, err := tx.ReadObject(oid)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "holder!!" {
		t.Fatalf("the retry read %q, want the holder's committed value", got)
	}
	if err := tx.Write(oid, 0, []byte("writer!!")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("the retry's commit: %v", err)
	}
	if got := srv.Stats().Commits; got != 3 {
		t.Fatalf("commits = %d, want the setup's, the holder's and the retry's", got)
	}
}
