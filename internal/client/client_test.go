package client

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/lock"
	"repro/internal/logrec"
	"repro/internal/page"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
)

// version is one of the paper's software versions (Table 3).
type version struct {
	name       string
	scheme     Scheme
	serverMode server.Mode
}

var versions = []version{
	{"PD-ESM", PD, server.ModeESM},
	{"SD-ESM", SD, server.ModeESM},
	{"SL-ESM", SL, server.ModeESM},
	{"PD-REDO", PD, server.ModeREDO},
	{"WPL", WPL, server.ModeWPL},
}

type rig struct {
	srv *server.Server
	cli *Client
}

func newRig(v version, clientPool int, recBytes int) *rig {
	srv := server.New(server.Config{
		Mode:            v.serverMode,
		PoolPages:       256,
		LogCapacity:     32 << 20,
		LockTimeout:     time.Second,
		CheckpointEvery: 1 << 30,
	})
	cli := New(Config{
		Scheme:         v.scheme,
		PoolPages:      clientPool,
		RecoveryBytes:  recBytes,
		ShipDirtyPages: v.serverMode != server.ModeREDO,
	}, wire.NewDirect(srv, nil, nil))
	return &rig{srv: srv, cli: cli}
}

// reconnect simulates a client restart: a fresh client against the same
// server (empty pool, no cached pages).
func (r *rig) reconnect(v version) {
	r.cli = New(Config{
		Scheme:         v.scheme,
		PoolPages:      r.cli.cfg.PoolPages,
		RecoveryBytes:  r.cli.cfg.RecoveryBytes,
		ShipDirtyPages: v.serverMode != server.ModeREDO,
	}, wire.NewDirect(r.srv, nil, nil))
}

func mustBegin(t *testing.T, c *Client) *Tx {
	t.Helper()
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

func TestAllocateWriteReadCommit(t *testing.T) {
	for _, v := range versions {
		t.Run(v.name, func(t *testing.T) {
			r := newRig(v, 64, 1<<20)
			tx := mustBegin(t, r.cli)
			oid, err := tx.Allocate(32)
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Write(oid, 4, []byte("persistent!!")); err != nil {
				t.Fatal(err)
			}
			// Read back inside the same transaction.
			got := make([]byte, 12)
			if err := tx.Read(oid, 4, got); err != nil {
				t.Fatal(err)
			}
			if string(got) != "persistent!!" {
				t.Fatalf("in-txn read: %q", got)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			// Read back in a new transaction.
			tx2 := mustBegin(t, r.cli)
			got2 := make([]byte, 12)
			if err := tx2.Read(oid, 4, got2); err != nil {
				t.Fatal(err)
			}
			if string(got2) != "persistent!!" {
				t.Fatalf("next-txn read: %q", got2)
			}
			if err := tx2.Commit(); err != nil {
				t.Fatal(err)
			}
			// Read back from a brand-new client (server round trip).
			r.reconnect(v)
			tx3 := mustBegin(t, r.cli)
			got3 := make([]byte, 12)
			if err := tx3.Read(oid, 4, got3); err != nil {
				t.Fatal(err)
			}
			if string(got3) != "persistent!!" {
				t.Fatalf("fresh-client read: %q", got3)
			}
			tx3.Commit()
		})
	}
}

func TestCommittedSurvivesServerCrash(t *testing.T) {
	for _, v := range versions {
		t.Run(v.name, func(t *testing.T) {
			r := newRig(v, 64, 1<<20)
			tx := mustBegin(t, r.cli)
			oid, _ := tx.Allocate(16)
			tx.Write(oid, 0, []byte("crash-proof data"))
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			// Update it again so both page-image and update paths recover.
			tx2 := mustBegin(t, r.cli)
			tx2.Write(oid, 0, []byte("second version!!"))
			if err := tx2.Commit(); err != nil {
				t.Fatal(err)
			}
			r.srv.Crash()
			if err := r.srv.NewSession(nil, nil).Restart(); err != nil {
				t.Fatal(err)
			}
			r.reconnect(v)
			tx3 := mustBegin(t, r.cli)
			got, err := tx3.ReadObject(oid)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "second version!!" {
				t.Fatalf("got %q", got)
			}
		})
	}
}

func TestUncommittedLostAtCrash(t *testing.T) {
	for _, v := range versions {
		t.Run(v.name, func(t *testing.T) {
			r := newRig(v, 64, 1<<20)
			tx := mustBegin(t, r.cli)
			oid, _ := tx.Allocate(16)
			tx.Write(oid, 0, []byte("committed-value!"))
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			tx2 := mustBegin(t, r.cli)
			tx2.Write(oid, 0, []byte("doomed-update..."))
			// Force the update to reach the server without committing:
			// generate and ship everything a commit would, minus the commit.
			if err := tx2.emitLogForPage(oid.Page); err != nil {
				t.Fatal(err)
			}
			if err := tx2.flushLog(); err != nil {
				t.Fatal(err)
			}
			if r.cli.cfg.ShipDirtyPages {
				f := r.cli.pool.Peek(oid.Page)
				if err := r.cli.svc.ShipPage(tx2.tid, oid.Page, f.Bytes()); err != nil {
					t.Fatal(err)
				}
			}
			// The shipped frames travel with the transaction's next call.
			if err := r.cli.svc.Lock(tx2.tid, oid.Page, lock.Exclusive); err != nil {
				t.Fatal(err)
			}
			r.srv.Crash()
			if err := r.srv.NewSession(nil, nil).Restart(); err != nil {
				t.Fatal(err)
			}
			r.reconnect(v)
			tx3 := mustBegin(t, r.cli)
			got, err := tx3.ReadObject(oid)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "committed-value!" {
				t.Fatalf("got %q", got)
			}
		})
	}
}

func TestAbortRestoresState(t *testing.T) {
	for _, v := range versions {
		t.Run(v.name, func(t *testing.T) {
			r := newRig(v, 64, 1<<20)
			tx := mustBegin(t, r.cli)
			oid, _ := tx.Allocate(8)
			tx.Write(oid, 0, []byte("original"))
			tx.Commit()
			tx2 := mustBegin(t, r.cli)
			tx2.Write(oid, 0, []byte("mistake!"))
			if err := tx2.Abort(); err != nil {
				t.Fatal(err)
			}
			tx3 := mustBegin(t, r.cli)
			got, err := tx3.ReadObject(oid)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "original" {
				t.Fatalf("after abort: %q", got)
			}
		})
	}
}

func TestRepeatedUpdatesBatchIntoOneRecord(t *testing.T) {
	// The motivating OODBMS behaviour (§2): many updates to one object must
	// not generate one log record each. PD diffing batches them.
	r := newRig(versions[0], 64, 1<<20) // PD-ESM
	tx := mustBegin(t, r.cli)
	oid, _ := tx.Allocate(8)
	tx.Commit()
	tx2 := mustBegin(t, r.cli)
	for i := 0; i < 100; i++ {
		if err := tx2.Write(oid, 0, []byte{byte(i), byte(i), 0, 0, 0, 0, 0, byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	before := r.cli.Stats().LogRecords
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	recs := r.cli.Stats().LogRecords - before
	if recs != 1 {
		t.Fatalf("100 updates generated %d log records, want 1", recs)
	}
	if got := r.cli.Stats().Updates; got < 100 {
		t.Fatalf("updates = %d", got)
	}
}

func TestOneFaultPerPagePerTransaction(t *testing.T) {
	for _, v := range []version{versions[0], versions[4]} { // PD, WPL
		t.Run(v.name, func(t *testing.T) {
			r := newRig(v, 64, 1<<20)
			tx := mustBegin(t, r.cli)
			oid, _ := tx.Allocate(8)
			tx.Commit()
			tx2 := mustBegin(t, r.cli)
			for i := 0; i < 50; i++ {
				tx2.Write(oid, 0, []byte{byte(i)})
			}
			tx2.Commit()
			// Fresh pages are pre-enabled, so only tx2's first write faults.
			if f := r.cli.Stats().Faults; f != 1 {
				t.Fatalf("faults = %d, want 1", f)
			}
			// Next transaction faults again (protection restored at commit).
			tx3 := mustBegin(t, r.cli)
			tx3.Write(oid, 0, []byte{99})
			tx3.Commit()
			if f := r.cli.Stats().Faults; f != 2 {
				t.Fatalf("faults = %d, want 2", f)
			}
		})
	}
}

// lockRecorder is a Service that writes down every lock request it passes
// on, a ReadPage's included.
type lockRecorder struct {
	wire.Service
	locks []string
}

func (r *lockRecorder) Lock(tid logrec.TID, pid page.ID, mode lock.Mode) error {
	r.locks = append(r.locks, "lock "+mode.String())
	return r.Service.Lock(tid, pid, mode)
}

func (r *lockRecorder) ReadPage(tid logrec.TID, pid page.ID, mode lock.Mode) ([]byte, error) {
	r.locks = append(r.locks, "read-page "+mode.String())
	return r.Service.ReadPage(tid, pid, mode)
}

// TestWriteTakesItsExclusiveLockUpFront: a write to a cached page the
// transaction has not locked asks for the exclusive lock at once, with no
// shared lock to upgrade — on an uncached page, in the ReadPage — while a read
// followed by a write still takes the paper's shared lock and upgrades it.
func TestWriteTakesItsExclusiveLockUpFront(t *testing.T) {
	for _, v := range versions {
		t.Run(v.name, func(t *testing.T) {
			r := newRig(v, 64, 1<<20)
			rec := &lockRecorder{Service: r.cli.svc}
			r.cli.svc = rec
			tx := mustBegin(t, r.cli)
			oid, err := tx.Allocate(8)
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			run := func(ops ...func(*Tx) error) string {
				t.Helper()
				rec.locks = nil
				tx := mustBegin(t, r.cli)
				for _, op := range ops {
					if err := op(tx); err != nil {
						t.Fatal(err)
					}
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				return fmt.Sprint(rec.locks)
			}
			write := func(tx *Tx) error { return tx.Write(oid, 0, []byte("written!")) }
			read := func(tx *Tx) error { _, err := tx.ReadObject(oid); return err }
			for _, c := range []struct {
				what string
				ops  []func(*Tx) error
				want string
			}{
				{"write on a cached page", []func(*Tx) error{write}, "[lock X]"},
				{"read then write", []func(*Tx) error{read, write}, "[lock S lock X]"},
			} {
				if got := run(c.ops...); got != c.want {
					t.Errorf("%s: %s, want %s", c.what, got, c.want)
				}
			}
			r.reconnect(v)
			rec.Service = r.cli.svc
			r.cli.svc = rec
			if got := run(write); got != "[read-page X]" {
				t.Errorf("write on an uncached page: %s, want [read-page X]", got)
			}
		})
	}
}

func TestSDBlockCopiesAndNoFaults(t *testing.T) {
	r := newRig(versions[1], 64, 1<<20) // SD-ESM
	tx := mustBegin(t, r.cli)
	oid, _ := tx.Allocate(256)
	tx.Commit()
	tx2 := mustBegin(t, r.cli)
	// Two writes in the same 64-byte block: one copy. One in another block.
	tx2.Write(oid, 0, []byte{1, 2, 3, 4})
	tx2.Write(oid, 8, []byte{5, 6, 7, 8})
	tx2.Write(oid, 200, []byte{9})
	tx2.Commit()
	st := r.cli.Stats()
	if st.Faults != 0 {
		t.Fatalf("SD faulted %d times", st.Faults)
	}
	// The object may straddle block boundaries, so allow 2 or 3, but the
	// same-block write must not re-copy.
	if st.BlockCopies < 2 || st.BlockCopies > 3 {
		t.Fatalf("block copies = %d", st.BlockCopies)
	}
	if st.PageCopies != 0 {
		t.Fatalf("SD made %d page copies", st.PageCopies)
	}
}

func TestSLLogsMoreThanSD(t *testing.T) {
	run := func(v version) int64 {
		r := newRig(v, 64, 1<<20)
		tx := mustBegin(t, r.cli)
		oid, _ := tx.Allocate(1024)
		tx.Commit()
		tx2 := mustBegin(t, r.cli)
		// Sparse single-byte updates: diffing pays off, whole blocks don't.
		for i := 0; i < 16; i++ {
			tx2.Write(oid, i*64, []byte{byte(i + 1)})
		}
		tx2.Commit()
		return r.cli.Stats().LogBytesShipped
	}
	sd := run(versions[1])
	sl := run(versions[2])
	if sl <= sd {
		t.Fatalf("SL shipped %d bytes, SD %d: SL should log more on sparse updates", sl, sd)
	}
}

func TestREDOShipsNoDirtyPages(t *testing.T) {
	r := newRig(versions[3], 64, 1<<20) // PD-REDO
	tx := mustBegin(t, r.cli)
	oid, _ := tx.Allocate(16)
	tx.Write(oid, 0, []byte("redo at server!!"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	st := r.cli.Stats()
	if st.DirtyPagesShipped != 0 {
		t.Fatalf("REDO shipped %d dirty pages", st.DirtyPagesShipped)
	}
	if st.LogPagesShipped == 0 {
		t.Fatal("REDO shipped no log pages")
	}
	// The server's copy must still be current.
	r.reconnect(versions[3])
	tx2 := mustBegin(t, r.cli)
	got, _ := tx2.ReadObject(oid)
	if string(got) != "redo at server!!" {
		t.Fatalf("server copy stale: %q", got)
	}
}

func TestWPLGeneratesNoLogRecords(t *testing.T) {
	r := newRig(versions[4], 64, 1<<20)
	tx := mustBegin(t, r.cli)
	oid, _ := tx.Allocate(16)
	tx.Write(oid, 0, []byte("whole page log!!"))
	tx.Commit()
	st := r.cli.Stats()
	if st.LogRecords != 0 || st.LogPagesShipped != 0 {
		t.Fatalf("WPL generated log records: %+v", st)
	}
	if st.DirtyPagesShipped == 0 {
		t.Fatal("WPL shipped no pages")
	}
	if st.PageCopies != 0 || st.BlockCopies != 0 {
		t.Fatal("WPL made recovery copies")
	}
}

func TestRecoveryBufferSpills(t *testing.T) {
	// Recovery buffer of 1 page (the minimum); updating 5 pages forces
	// spills mid-transaction, with log records generated early.
	v := versions[0] // PD-ESM
	r := newRig(v, 64, page.Size)
	tx := mustBegin(t, r.cli)
	var oids []page.OID
	for i := 0; i < 5; i++ {
		if _, err := tx.NewPage(); err != nil {
			t.Fatal(err)
		}
		oid, err := tx.Allocate(64)
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	tx.Commit()
	tx2 := mustBegin(t, r.cli)
	for i, oid := range oids {
		if err := tx2.Write(oid, 0, []byte{byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if r.cli.Stats().RecbufSpills == 0 {
		t.Fatal("no spills with a one-page recovery buffer")
	}
	// Correctness across crash.
	r.srv.Crash()
	if err := r.srv.NewSession(nil, nil).Restart(); err != nil {
		t.Fatal(err)
	}
	r.reconnect(v)
	tx3 := mustBegin(t, r.cli)
	for i, oid := range oids {
		got := make([]byte, 1)
		if err := tx3.Read(oid, 0, got); err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i+1) {
			t.Fatalf("object %d: got %d", i, got[0])
		}
	}
}

func TestSpilledPageReupdatedStillCorrect(t *testing.T) {
	// Update page A, spill it (via pressure from page B), update A again:
	// both updates must survive, via two generations of log records.
	v := versions[0]
	r := newRig(v, 64, page.Size)
	tx := mustBegin(t, r.cli)
	tx.NewPage()
	a, _ := tx.Allocate(8)
	tx.NewPage()
	b, _ := tx.Allocate(8)
	tx.Commit()

	tx2 := mustBegin(t, r.cli)
	tx2.Write(a, 0, []byte{1, 1, 1, 1, 0, 0, 0, 0})
	tx2.Write(b, 0, []byte{2, 2, 2, 2, 0, 0, 0, 0}) // spills A
	tx2.Write(a, 4, []byte{3, 3, 3, 3})             // re-faults, re-copies A
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if r.cli.Stats().Faults < 3 {
		t.Fatalf("faults = %d, want ≥3 (A refaults after spill)", r.cli.Stats().Faults)
	}
	r.srv.Crash()
	if err := r.srv.NewSession(nil, nil).Restart(); err != nil {
		t.Fatal(err)
	}
	r.reconnect(v)
	tx3 := mustBegin(t, r.cli)
	got, _ := tx3.ReadObject(a)
	if !bytes.Equal(got, []byte{1, 1, 1, 1, 3, 3, 3, 3}) {
		t.Fatalf("a = %v", got)
	}
	got, _ = tx3.ReadObject(b)
	if !bytes.Equal(got, []byte{2, 2, 2, 2, 0, 0, 0, 0}) {
		t.Fatalf("b = %v", got)
	}
}

func TestClientPoolEviction(t *testing.T) {
	// Client pool of 8 frames, 30 pages touched per transaction: evictions
	// mid-transaction must ship state correctly for every scheme.
	for _, v := range versions {
		t.Run(v.name, func(t *testing.T) {
			r := newRig(v, 8, 1<<20)
			tx := mustBegin(t, r.cli)
			var oids []page.OID
			for i := 0; i < 30; i++ {
				if _, err := tx.NewPage(); err != nil {
					t.Fatal(err)
				}
				oid, err := tx.Allocate(128)
				if err != nil {
					t.Fatal(err)
				}
				oids = append(oids, oid)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			tx2 := mustBegin(t, r.cli)
			for i, oid := range oids {
				if err := tx2.Write(oid, 0, []byte{byte(i), byte(i >> 8)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx2.Commit(); err != nil {
				t.Fatal(err)
			}
			if r.cli.Stats().Evictions == 0 {
				t.Fatal("no evictions with a tiny pool")
			}
			r.srv.Crash()
			if err := r.srv.NewSession(nil, nil).Restart(); err != nil {
				t.Fatal(err)
			}
			r.reconnect(v)
			tx3 := mustBegin(t, r.cli)
			for i, oid := range oids {
				got := make([]byte, 2)
				if err := tx3.Read(oid, 0, got); err != nil {
					t.Fatalf("object %d: %v", i, err)
				}
				if got[0] != byte(i) || got[1] != byte(i>>8) {
					t.Fatalf("object %d: got %v", i, got)
				}
			}
		})
	}
}

func TestWriteOutsideTransactionFails(t *testing.T) {
	r := newRig(versions[0], 64, 1<<20)
	tx := mustBegin(t, r.cli)
	oid, _ := tx.Allocate(8)
	tx.Commit()
	if err := tx.Write(oid, 0, []byte{1}); err == nil {
		t.Fatal("write on committed transaction succeeded")
	}
	if _, err := r.cli.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.cli.Begin(); err != ErrTxnActive {
		t.Fatalf("second Begin: %v", err)
	}
}

func TestBoundsChecks(t *testing.T) {
	r := newRig(versions[0], 64, 1<<20)
	tx := mustBegin(t, r.cli)
	oid, _ := tx.Allocate(8)
	if err := tx.Write(oid, 4, []byte("12345")); err == nil {
		t.Fatal("overflow write accepted")
	}
	if err := tx.Read(oid, -1, make([]byte, 2)); err == nil {
		t.Fatal("negative offset read accepted")
	}
	if _, err := tx.ReadObject(page.OID{Page: oid.Page, Slot: 99}); err == nil {
		t.Fatal("bad slot accepted")
	}
}

func TestFreeAndReuse(t *testing.T) {
	r := newRig(versions[0], 64, 1<<20)
	tx := mustBegin(t, r.cli)
	oid, _ := tx.Allocate(64)
	tx.Write(oid, 0, []byte("gone"))
	tx.Commit()
	tx2 := mustBegin(t, r.cli)
	if err := tx2.Free(oid); err != nil {
		t.Fatal(err)
	}
	tx2.Commit()
	tx3 := mustBegin(t, r.cli)
	if _, err := tx3.ReadObject(oid); err == nil {
		t.Fatal("freed object readable")
	}
	tx3.Commit()
}

// TestSchemeEquivalenceRandomWorkload runs an identical random workload of
// transactions (allocations, updates, commits, aborts, crashes) under every
// software version and checks that the final database contents match a plain
// in-memory model.
func TestSchemeEquivalenceRandomWorkload(t *testing.T) {
	for _, v := range versions {
		t.Run(v.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			r := newRig(v, 16, page.Size) // tiny pool and recbuf: all paths hot
			model := make(map[page.OID][]byte)

			// Seed objects.
			tx := mustBegin(t, r.cli)
			var oids []page.OID
			for i := 0; i < 40; i++ {
				size := 16 + rng.Intn(200)
				if rng.Intn(4) == 0 {
					tx.NewPage()
				}
				oid, err := tx.Allocate(size)
				if err != nil {
					t.Fatal(err)
				}
				oids = append(oids, oid)
				model[oid] = make([]byte, size)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}

			for round := 0; round < 15; round++ {
				tx := mustBegin(t, r.cli)
				pending := make(map[page.OID][]byte)
				for _, oid := range oids {
					if cur, ok := pending[oid]; !ok {
						cp := make([]byte, len(model[oid]))
						copy(cp, model[oid])
						pending[oid] = cp
						_ = cur
					}
				}
				nops := 1 + rng.Intn(20)
				for i := 0; i < nops; i++ {
					oid := oids[rng.Intn(len(oids))]
					buf := pending[oid]
					off := rng.Intn(len(buf))
					n := 1 + rng.Intn(len(buf)-off)
					data := make([]byte, n)
					rng.Read(data)
					if err := tx.Write(oid, off, data); err != nil {
						t.Fatalf("round %d write: %v", round, err)
					}
					copy(buf[off:], data)
				}
				switch rng.Intn(4) {
				case 0: // abort
					if err := tx.Abort(); err != nil {
						t.Fatal(err)
					}
				case 1: // commit then crash+restart
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
					for oid, buf := range pending {
						model[oid] = buf
					}
					r.srv.Crash()
					if err := r.srv.NewSession(nil, nil).Restart(); err != nil {
						t.Fatal(err)
					}
					r.reconnect(v)
				default: // plain commit
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
					for oid, buf := range pending {
						model[oid] = buf
					}
				}
			}

			// Verify every object from a cold client.
			r.reconnect(v)
			vtx := mustBegin(t, r.cli)
			for _, oid := range oids {
				got, err := vtx.ReadObject(oid)
				if err != nil {
					t.Fatalf("%v: %v", oid, err)
				}
				if !bytes.Equal(got, model[oid]) {
					t.Fatalf("%v diverged from model", oid)
				}
			}
			vtx.Commit()
		})
	}
}

func TestStatsStringersAndErrors(t *testing.T) {
	for s, want := range map[Scheme]string{PD: "PD", SD: "SD", SL: "SL", WPL: "WPL", Scheme(9): "Scheme(9)"} {
		if s.String() != want {
			t.Fatalf("%d.String() = %q", int(s), s.String())
		}
	}
	if fmt.Sprint(ErrTxnActive) == "" || fmt.Sprint(ErrNoTxn) == "" {
		t.Fatal("empty error strings")
	}
}

// TestReopenedVolumeKeepsCommitsAcrossCrash: a volume checkpointed by one
// process and reopened by the next under a fresh wal.New — what quickstored
// does on every start — must not lose the new process's commits at its first
// crash. The pages carry page LSNs from the old log; a new log that started
// over below them would have conditional redo skip every committed record.
func TestReopenedVolumeKeepsCommitsAcrossCrash(t *testing.T) {
	// Each opener returns the store over the same volume on every call; the
	// file-backed ones really close and reopen it.
	file := func(t *testing.T, wrap func(disk.Store) disk.Store) func() disk.Store {
		path := filepath.Join(t.TempDir(), "vol.db")
		var open *disk.FileStore
		t.Cleanup(func() { open.Close() })
		return func() disk.Store {
			if open != nil {
				if err := open.Close(); err != nil {
					t.Fatal(err)
				}
			}
			var err error
			if open, err = disk.OpenFileStore(path); err != nil {
				t.Fatal(err)
			}
			return wrap(open)
		}
	}
	stores := []struct {
		name string
		open func(t *testing.T) func() disk.Store
	}{
		{"MemStore", func(*testing.T) func() disk.Store {
			mem := disk.NewMemStore()
			return func() disk.Store { return mem }
		}},
		{"FileStore", func(t *testing.T) func() disk.Store {
			return file(t, func(s disk.Store) disk.Store { return s })
		}},
		{"checksummed FileStore", func(t *testing.T) func() disk.Store {
			return file(t, func(s disk.Store) disk.Store { return disk.NewChecksummed(s) })
		}},
	}
	for _, st := range stores {
		for _, v := range []version{versions[0], versions[3], versions[4]} { // ESM, REDO, WPL
			st, v := st, v
			t.Run(st.name+"/"+v.name, func(t *testing.T) {
				open := st.open(t)
				connect := func(srv *server.Server) *Client {
					return New(Config{
						Scheme:         v.scheme,
						PoolPages:      64,
						ShipDirtyPages: v.serverMode != server.ModeREDO,
					}, wire.NewDirect(srv, nil, nil))
				}
				process := func() (*server.Server, *Client) {
					srv := server.New(server.Config{
						Mode:            v.serverMode,
						Store:           open(),
						Log:             wal.New(16 << 20),
						PoolPages:       64,
						CheckpointEvery: 1 << 30,
					})
					return srv, connect(srv)
				}

				// First process: enough pages that its log ends far above where
				// a fresh one starts, then an orderly checkpoint and exit.
				srv, cli := process()
				tx := mustBegin(t, cli)
				var oid page.OID
				for i := 0; i < 20; i++ {
					if _, err := tx.NewPage(); err != nil {
						t.Fatal(err)
					}
					var err error
					if oid, err = tx.Allocate(16); err != nil {
						t.Fatal(err)
					}
					if err := tx.Write(oid, 0, []byte("old value 000000")); err != nil {
						t.Fatal(err)
					}
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				if err := srv.NewSession(nil, nil).Checkpoint(); err != nil {
					t.Fatal(err)
				}
				srv.Close()

				// Second process: reopen, recover, commit an update, crash.
				srv, cli = process()
				defer srv.Close()
				sn := srv.NewSession(nil, nil)
				if err := sn.Restart(); err != nil {
					t.Fatalf("restart over the reopened volume: %v", err)
				}
				tx = mustBegin(t, cli)
				if err := tx.Write(oid, 0, []byte("new value 111111")); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				srv.Crash()
				if err := sn.Restart(); err != nil {
					t.Fatalf("restart after the crash: %v", err)
				}
				tx = mustBegin(t, connect(srv))
				defer tx.Abort()
				got, err := tx.ReadObject(oid)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != "new value 111111" {
					t.Fatalf("object reads %q after crash and restart: the committed update was lost", got)
				}
			})
		}
	}
}
