package oo7

import (
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/costmodel"
	"repro/internal/disk"
	"repro/internal/server"
	"repro/internal/wire"
)

// BenchmarkTraverseT1 times one read-only T1 traversal transaction of a
// module with the shape the oo7-read workload uses (a tenth of the small
// module's composite parts under a five-level assembly tree), by a PD-ESM
// client in process over wire.NewDirect. Most of an op is the client's own
// work. With a pool that holds half the module (half-pool) that is the
// dereferences of resident objects and the page faults and evictions; with
// one that holds all of it (resident) it is the dereferences alone, plus a
// lock per page per transaction.
func BenchmarkTraverseT1(b *testing.B) {
	b.Run("half-pool", func(b *testing.B) { benchTraverse(b, client.PD, T1, false) })
	b.Run("resident", func(b *testing.B) { benchTraverse(b, client.PD, T1, true) })
}

// BenchmarkTraverseT2B times one T2B transaction — every atomic part of the
// module updated, then committed — on BenchmarkTraverseT1's module and pool,
// with a 96 KB recovery buffer: the update path of the oo7-update workload.
// An op is dominated by log generation (the recovery-buffer copies, the
// diffs, the record encoding, spills included) and by the server's logging
// of the shipped log pages.
func BenchmarkTraverseT2B(b *testing.B) {
	b.Run("PD-ESM", func(b *testing.B) { benchTraverse(b, client.PD, T2B, false) })
	b.Run("SD-ESM", func(b *testing.B) { benchTraverse(b, client.SD, T2B, false) })
}

// benchTraverse loads the module, warms a client of scheme up with one
// traversal of kind tr, and times traversal transactions of that kind. The
// client's pool holds the whole volume when resident, half of it otherwise.
func benchTraverse(b *testing.B, scheme client.Scheme, tr Traversal, resident bool) {
	cfg := SmallConfig().Scale(10)
	cfg.NumAssmLevels = 5
	cfg.NumModules = 1
	store := disk.NewMemStore()
	srv := server.New(server.Config{
		Mode:            server.ModeESM,
		Store:           store,
		PoolPages:       4096,
		LogCapacity:     64 << 20,
		LockTimeout:     time.Second,
		CheckpointEvery: 1 << 30,
	})
	defer srv.Close()
	loader := client.New(client.Config{PoolPages: 2048, RecoveryBytes: 8 << 20, ShipDirtyPages: true},
		wire.NewDirect(srv, nil, nil))
	db, err := Build(loader, cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.NewSession(nil, nil).Checkpoint(); err != nil {
		b.Fatal(err)
	}
	poolPages := store.Pages() / 2
	if resident {
		poolPages = store.Pages()
	}
	cli := client.New(client.Config{Scheme: scheme, PoolPages: poolPages, RecoveryBytes: 96 << 10, ShipDirtyPages: true},
		wire.NewDirect(srv, nil, nil))
	mod := &db.Modules[0]
	want := Result{CompVisits: cfg.BaseAssemblies() * cfg.NumCompPerAssm}
	want.AtomicVisits = want.CompVisits * cfg.NumAtomicPerComp
	if tr == T2B {
		want.Updates = want.AtomicVisits
	}
	if res, err := Run(cli, mod, tr, costmodel.NopMeter{}, nil); err != nil || res != want {
		b.Fatalf("warm-up %v: %+v, %v; want %+v", tr, res, err, want)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cli, mod, tr, costmodel.NopMeter{}, nil); err != nil {
			b.Fatal(err)
		}
	}
}
