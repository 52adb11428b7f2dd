package oo7

import (
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/costmodel"
	"repro/internal/disk"
	"repro/internal/page"
	"repro/internal/server"
	"repro/internal/wire"
)

// testConfig is a shrunken small configuration: full graph shape, fewer
// composite parts and levels so tests run fast.
func testConfig() Config {
	c := SmallConfig()
	c.NumCompPerModule = 12
	c.NumAssmLevels = 3
	c.NumModules = 2
	c.ManualSize = 10000
	return c
}

func newRig(t *testing.T, scheme client.Scheme, mode server.Mode) (*server.Server, *client.Client) {
	t.Helper()
	srv := server.New(server.Config{
		Mode:            mode,
		PoolPages:       512,
		LogCapacity:     64 << 20,
		LockTimeout:     time.Second,
		CheckpointEvery: 1 << 30,
	})
	cli := client.New(client.Config{
		Scheme:         scheme,
		PoolPages:      256,
		RecoveryBytes:  1 << 20,
		ShipDirtyPages: mode != server.ModeREDO,
	}, wire.NewDirect(srv, nil, nil))
	return srv, cli
}

func TestTable1Parameters(t *testing.T) {
	s := SmallConfig()
	if s.NumAtomicPerComp != 20 || s.NumConnPerAtomic != 3 || s.DocumentSize != 2000 ||
		s.ManualSize != 100<<10 || s.NumCompPerModule != 500 || s.NumAssmPerAssm != 3 ||
		s.NumAssmLevels != 7 || s.NumCompPerAssm != 3 || s.NumModules != 5 {
		t.Fatalf("small config diverges from Table 1: %+v", s)
	}
	b := BigConfig()
	if b.NumCompPerModule != 2000 || b.NumAssmLevels != 8 || b.NumModules != 5 {
		t.Fatalf("big config diverges from Table 1: %+v", b)
	}
	if s.BaseAssemblies() != 729 { // 3^6
		t.Fatalf("small base assemblies = %d", s.BaseAssemblies())
	}
	if b.BaseAssemblies() != 2187 { // 3^7
		t.Fatalf("big base assemblies = %d", b.BaseAssemblies())
	}
}

func TestBuildShape(t *testing.T) {
	cfg := testConfig()
	_, cli := newRig(t, client.PD, server.ModeESM)
	db, err := Build(cli, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Modules) != cfg.NumModules {
		t.Fatalf("%d modules", len(db.Modules))
	}
	for _, m := range db.Modules {
		if len(m.CompParts) != cfg.NumCompPerModule {
			t.Fatalf("%d composite parts", len(m.CompParts))
		}
		if m.Self.IsNil() || m.Root.IsNil() || m.Manual.IsNil() {
			t.Fatal("nil module handles")
		}
	}
	// Composite parts must be clustered: each part's atomic parts live on
	// the same page run, distinct from other parts'.
	tx, _ := cli.Begin()
	defer tx.Commit()
	seen := map[page.ID]int{}
	for _, cp := range db.Modules[0].CompParts {
		seen[cp.Page]++
	}
	for pid, n := range seen {
		if n > 2 {
			t.Fatalf("%d composite part headers share page %v: clustering broken", n, pid)
		}
	}
	// The assembly hierarchy has the right shape: walking it visits
	// 3^(levels-1) base assemblies.
	var res Result
	m := costmodel.NopMeter{}
	if err := visitAssembly(tx, db.Modules[0].Root, T2A, m, &res); err != nil {
		t.Fatal(err)
	}
	wantComp := cfg.BaseAssemblies() * cfg.NumCompPerAssm
	if res.CompVisits != wantComp {
		t.Fatalf("comp visits = %d, want %d", res.CompVisits, wantComp)
	}
}

func TestTraversalCounts(t *testing.T) {
	cfg := testConfig()
	_, cli := newRig(t, client.PD, server.ModeESM)
	db, err := Build(cli, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := costmodel.NopMeter{}
	visits := cfg.BaseAssemblies() * cfg.NumCompPerAssm
	for _, tc := range []struct {
		tr   Traversal
		want int
	}{
		{T2A, visits},                            // one update per composite visit
		{T2B, visits * cfg.NumAtomicPerComp},     // every atomic part
		{T2C, visits * cfg.NumAtomicPerComp * 4}, // every atomic part, 4 times
	} {
		res, err := Run(cli, &db.Modules[0], tc.tr, m, nil)
		if err != nil {
			t.Fatalf("%v: %v", tc.tr, err)
		}
		if res.Updates != tc.want {
			t.Fatalf("%v updates = %d, want %d", tc.tr, res.Updates, tc.want)
		}
		// The DFS must reach every atomic part of every visited composite
		// part (the ring connection guarantees reachability).
		if res.AtomicVisits != visits*cfg.NumAtomicPerComp {
			t.Fatalf("%v atomic visits = %d, want %d", tc.tr, res.AtomicVisits, visits*cfg.NumAtomicPerComp)
		}
	}
}

func TestTraversalUpdatesPersistAcrossCrash(t *testing.T) {
	cfg := testConfig()
	cfg.NumModules = 1
	srv, cli := newRig(t, client.PD, server.ModeESM)
	db, err := Build(cli, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	mod := &db.Modules[0]
	// Record an atomic part's x before.
	tx, _ := cli.Begin()
	cpBuf, _ := tx.ReadObject(mod.CompParts[0])
	root := rdOID(cpBuf, cpRootPart)
	partBuf, _ := tx.ReadObject(root)
	xBefore := rd32(partBuf, apX)
	tx.Commit()

	if _, err := Run(cli, mod, T2B, costmodel.NopMeter{}, nil); err != nil {
		t.Fatal(err)
	}
	srv.Crash()
	if err := srv.NewSession(nil, nil).Restart(); err != nil {
		t.Fatal(err)
	}
	// Fresh client: read x after.
	cli2 := client.New(client.Config{Scheme: client.PD, PoolPages: 256, ShipDirtyPages: true},
		wire.NewDirect(srv, nil, nil))
	tx2, _ := cli2.Begin()
	partBuf2, err := tx2.ReadObject(root)
	if err != nil {
		t.Fatal(err)
	}
	xAfter := rd32(partBuf2, apX)
	tx2.Commit()
	// T2B visits the root part once per composite-part visit of this part;
	// it is updated at least once.
	if xAfter <= xBefore {
		t.Fatalf("x not incremented durably: %d → %d", xBefore, xAfter)
	}
}

func TestTraversalDeterministicAcrossSchemes(t *testing.T) {
	// All five software versions perform the identical logical traversal:
	// same visit and update counts.
	cfg := testConfig()
	cfg.NumModules = 1
	type verdict struct{ res Result }
	var results []Result
	for _, v := range []struct {
		scheme client.Scheme
		mode   server.Mode
	}{
		{client.PD, server.ModeESM},
		{client.SD, server.ModeESM},
		{client.SL, server.ModeESM},
		{client.PD, server.ModeREDO},
		{client.WPL, server.ModeWPL},
	} {
		_, cli := newRig(t, v.scheme, v.mode)
		db, err := Build(cli, cfg, 7)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(cli, &db.Modules[0], T2B, costmodel.NopMeter{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Fatalf("traversal diverges across schemes: %+v vs %+v", results[i], results[0])
		}
	}
	_ = verdict{}
}

func TestModuleSizeBallpark(t *testing.T) {
	// A full small module should occupy roughly the paper's 6.6 MB — we
	// accept 4–8 MB, recorded precisely in EXPERIMENTS.md via Table 2.
	if testing.Short() {
		t.Skip("full small module build")
	}
	cfg := SmallConfig()
	cfg.NumModules = 1
	store := disk.NewMemStore()
	srv := server.New(server.Config{
		Mode:            server.ModeESM,
		Store:           store,
		PoolPages:       512,
		LogCapacity:     256 << 20,
		CheckpointEvery: 1 << 30,
	})
	cli := client.New(client.Config{Scheme: client.PD, PoolPages: 1024, ShipDirtyPages: true},
		wire.NewDirect(srv, nil, nil))
	if _, err := Build(cli, cfg, 5); err != nil {
		t.Fatal(err)
	}
	if err := srv.NewSession(nil, nil).Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mb := float64(int64(store.Pages())*page.Size) / (1 << 20)
	if mb < 4 || mb > 9 {
		t.Fatalf("small module ≈ %.1f MB, outside 4–9 MB ballpark", mb)
	}
	t.Logf("small module = %.2f MB (paper: 6.6 MB)", mb)
}

// TestT1ReadOnlyHasNoRecoveryOverhead reproduces the paper's §6 claim: under
// QuickStore's in-place, page-at-a-time scheme a page's protection is only
// manipulated when the first object on it is updated, so read-only
// transactions trigger no faults, no copies, and no log records.
func TestT1ReadOnlyHasNoRecoveryOverhead(t *testing.T) {
	cfg := testConfig()
	cfg.NumModules = 1
	for _, scheme := range []client.Scheme{client.PD, client.SD, client.WPL} {
		_, cli := newRig(t, scheme, server.ModeESM)
		if scheme == client.WPL {
			_, cli = newRig(t, scheme, server.ModeWPL)
		}
		db, err := Build(cli, cfg, 11)
		if err != nil {
			t.Fatal(err)
		}
		before := cli.Stats()
		res, err := Run(cli, &db.Modules[0], T1, costmodel.NopMeter{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		after := cli.Stats()
		if res.Updates != 0 {
			t.Fatalf("%v: T1 performed %d updates", scheme, res.Updates)
		}
		if res.AtomicVisits == 0 {
			t.Fatalf("%v: T1 visited nothing", scheme)
		}
		if d := after.Faults - before.Faults; d != 0 {
			t.Errorf("%v: read-only traversal faulted %d times", scheme, d)
		}
		if d := after.PageCopies - before.PageCopies + after.BlockCopies - before.BlockCopies; d != 0 {
			t.Errorf("%v: read-only traversal made %d recovery copies", scheme, d)
		}
		if d := after.LogRecords - before.LogRecords; d != 0 {
			t.Errorf("%v: read-only traversal generated %d log records", scheme, d)
		}
		if d := after.DirtyPagesShipped - before.DirtyPagesShipped; d != 0 {
			t.Errorf("%v: read-only traversal shipped %d dirty pages", scheme, d)
		}
	}
}

// TestDocumentsAndManualIntact verifies the generator's secondary objects:
// every composite part's document is readable with the expected prefix, and
// the manual chunk chain has the configured total size.
func TestDocumentsAndManualIntact(t *testing.T) {
	cfg := testConfig()
	cfg.NumModules = 1
	_, cli := newRig(t, client.PD, server.ModeESM)
	db, err := Build(cli, cfg, 12)
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := cli.Begin()
	defer tx.Commit()
	mod := db.Modules[0]
	for i, cp := range mod.CompParts {
		hdr, err := tx.ReadObject(cp)
		if err != nil {
			t.Fatal(err)
		}
		doc := rdOID(hdr, cpDocument)
		if doc.IsNil() {
			t.Fatalf("composite part %d has no document", i)
		}
		data, err := tx.ReadObject(doc)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != cfg.DocumentSize {
			t.Fatalf("document size %d, want %d", len(data), cfg.DocumentSize)
		}
		want := []byte("Composite part")
		for j := range want {
			if data[j] != want[j] {
				t.Fatalf("document %d prefix %q", i, data[:20])
			}
		}
	}
	// Walk the manual chain.
	total := 0
	for oid := mod.Manual; !oid.IsNil(); {
		data, err := tx.ReadObject(oid)
		if err != nil {
			t.Fatal(err)
		}
		total += len(data)
		if len(data) < page.OIDSize {
			break
		}
		next := page.DecodeOID(data)
		oid = next
	}
	if total < cfg.ManualSize || total > cfg.ManualSize+ManualChunk {
		t.Fatalf("manual totals %d bytes, want ≈%d", total, cfg.ManualSize)
	}
}
