package client

import (
	"bytes"
	"testing"
	"unsafe"

	"repro/internal/disk"
	"repro/internal/logrec"
	"repro/internal/page"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
)

// relay is a client's transport to whichever in-process server it was last
// pointed at: one client, cache and all, outlives a server process.
type relay struct{ *wire.Client }

// served returns the frames the current server's daemon has served, per
// wire op.
func (r *relay) served(t *testing.T) map[string]int64 {
	t.Helper()
	ds, err := r.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	return ds.Ops
}

// TestCachedPageRelocksEveryTransaction: the lock a descriptor caches is
// this transaction's, never an earlier one's. A page cached by one
// transaction costs the next exactly one Lock however often it is read. It
// still costs one after the server crashes and a new server process
// restarts from the volume between two transactions, although that server
// hands out the last transaction's tid again — the first of a block reserved
// after the checkpoint and never recorded. A page evicted and fetched
// again inside one transaction comes back in one ReadPage under the lock the
// transaction already holds: no Lock.
func TestCachedPageRelocksEveryTransaction(t *testing.T) {
	for _, v := range versions {
		t.Run(v.name, func(t *testing.T) {
			store := disk.NewMemStore()
			process := func() *server.Server {
				return server.New(server.Config{
					Mode:            v.serverMode,
					Store:           store,
					Log:             wal.New(16 << 20),
					PoolPages:       64,
					CheckpointEvery: 1 << 30,
				})
			}
			srv := process()
			link := &relay{wire.NewDirect(srv, nil, nil)}
			cli := New(Config{
				Scheme:         v.scheme,
				PoolPages:      64,
				ShipDirtyPages: v.serverMode != server.ModeREDO,
			}, link)
			load := mustBegin(t, cli)
			var oids [3]page.OID
			for i := range oids {
				if _, err := load.NewPage(); err != nil {
					t.Fatal(err)
				}
				oid, err := load.Allocate(16)
				if err != nil {
					t.Fatal(err)
				}
				oids[i] = oid
			}
			if err := load.Commit(); err != nil {
				t.Fatal(err)
			}
			a := oids[0]

			// readA runs one transaction reading a several ways and returns
			// its tid and the Lock and ReadPage frames it cost.
			readA := func() (tid logrec.TID, locks, reads int64) {
				t.Helper()
				before := link.served(t)
				tx := mustBegin(t, cli)
				tid = tx.TID()
				for i := 0; i < 3; i++ {
					if _, err := tx.ReadObject(a); err != nil {
						t.Fatal(err)
					}
				}
				if err := tx.Read(a, 0, make([]byte, 4)); err != nil {
					t.Fatal(err)
				}
				if _, err := tx.Size(a); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				after := link.served(t)
				return tid, after["lock"] - before["lock"], after["read-page"] - before["read-page"]
			}
			for i := 1; i <= 2; i++ {
				if _, locks, reads := readA(); locks != 1 || reads != 0 {
					t.Fatalf("transaction %d on a cached page: %d Lock, %d ReadPage frames; want 1, 0", i, locks, reads)
				}
			}

			// The last transaction before the crash takes the first id of a
			// block its connection reserves right after a checkpoint, so a
			// restart from that checkpoint hands the id out again.
			if err := srv.NewSession(nil, nil).Checkpoint(); err != nil {
				t.Fatal(err)
			}
			link.Client = wire.NewDirect(srv, nil, nil)
			last, _, _ := readA()
			srv.Crash()
			srv.Close()
			srv = process()
			defer srv.Close()
			if err := srv.NewSession(nil, nil).Restart(); err != nil {
				t.Fatal(err)
			}
			link.Client = wire.NewDirect(srv, nil, nil)
			tid, locks, reads := readA()
			if tid != last {
				t.Fatalf("the restarted server handed out %v, not the last tid %v: the case this test exists for did not arise", tid, last)
			}
			if locks != 1 || reads != 0 {
				t.Fatalf("after a server restart, under a reused tid: %d Lock, %d ReadPage frames; want 1, 0", locks, reads)
			}

			// A two-frame pool: reading the other two pages pushes a out.
			cli = New(Config{
				Scheme:         v.scheme,
				PoolPages:      2,
				ShipDirtyPages: v.serverMode != server.ModeREDO,
			}, link)
			tx := mustBegin(t, cli)
			for _, oid := range oids {
				if _, err := tx.ReadObject(oid); err != nil {
					t.Fatal(err)
				}
			}
			if cli.space.ByPage(a.Page) != nil {
				t.Fatal("a's page still resident in a two-frame pool after reading three pages")
			}
			before := link.served(t)
			if _, err := tx.ReadObject(a); err != nil {
				t.Fatal(err)
			}
			after := link.served(t)
			if locks, reads := after["lock"]-before["lock"], after["read-page"]-before["read-page"]; locks != 0 || reads != 1 {
				t.Fatalf("re-fetching an evicted page: %d Lock, %d ReadPage frames; want 0, 1", locks, reads)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReadObjectCopiesAreIndependent: ReadObject cuts its copies from one
// slab, yet each behaves as a slice of its own.
func TestReadObjectCopiesAreIndependent(t *testing.T) {
	for _, v := range versions {
		t.Run(v.name, func(t *testing.T) {
			r := newRig(v, 64, 1<<20)
			tx := mustBegin(t, r.cli)
			x, _ := tx.Allocate(8)
			y, _ := tx.Allocate(8)
			tx.Write(x, 0, []byte("xxxxxxxx"))
			tx.Write(y, 0, []byte("yyyyyyyy"))
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}

			tx = mustBegin(t, r.cli)
			cx, err := tx.ReadObject(x)
			if err != nil {
				t.Fatal(err)
			}
			cy, err := tx.ReadObject(y)
			if err != nil {
				t.Fatal(err)
			}
			if unsafe.Pointer(unsafe.SliceData(cy)) != unsafe.Add(unsafe.Pointer(unsafe.SliceData(cx)), len(cx)) {
				t.Fatal("the two copies were not cut from one slab back to back")
			}
			grown := append(cx, "!!!!"...)
			if string(cy) != "yyyyyyyy" || string(grown) != "xxxxxxxx!!!!" {
				t.Fatalf("appending to the first copy: first %q, second %q", grown, cy)
			}
			if err := tx.Write(x, 0, []byte("XXXXXXXX")); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cx, []byte("xxxxxxxx")) {
				t.Fatalf("a write to the object changed an earlier copy: %q", cx)
			}
			if now, _ := tx.ReadObject(x); string(now) != "XXXXXXXX" {
				t.Fatalf("read after write: %q", now)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// BenchmarkReadObject measures the dereference of a resident object: the
// page is cached and locked, so each op is the descriptor lookup and a copy.
func BenchmarkReadObject(b *testing.B) {
	r := newRig(versions[0], 64, 1<<20)
	tx, err := r.cli.Begin()
	if err != nil {
		b.Fatal(err)
	}
	var oids []page.OID
	for i := 0; i < 32; i++ {
		oid, err := tx.Allocate(64)
		if err != nil {
			b.Fatal(err)
		}
		oids = append(oids, oid)
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	if tx, err = r.cli.Begin(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tx.ReadObject(oids[i%len(oids)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
}
