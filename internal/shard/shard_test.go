package shard_test

import (
	"testing"

	"repro/internal/client"
	"repro/internal/logrec"
	"repro/internal/page"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/wire"
)

func newCluster(t *testing.T, n int) (*client.Client, *shard.Router, []*server.Server) {
	t.Helper()
	srvs := make([]*server.Server, n)
	backends := make([]shard.Backend, n)
	for s := 0; s < n; s++ {
		srvs[s] = server.New(server.Config{
			Mode:        server.ModeESM,
			PoolPages:   64,
			LogCapacity: 8 << 20,
			ShardID:     s,
			ShardCount:  n,
		})
		backends[s] = wire.NewDirect(srvs[s], nil, nil)
	}
	router := shard.NewRouter(backends)
	cli := client.New(client.Config{
		Scheme:         client.PD,
		PoolPages:      32,
		ShipDirtyPages: true,
	}, router)
	return cli, router, srvs
}

// TestMapResidueClasses pins the pure-function shard map: page ids and TIDs
// allocated by shard i must map back to shard i for every shard count.
func TestMapResidueClasses(t *testing.T) {
	for n := 1; n <= 4; n++ {
		m := shard.Map{N: n}
		for s := 0; s < n; s++ {
			// Shard s allocates ids ≡ s+1 (mod n): s+1, s+1+n, s+1+2n, ...
			for k := 0; k < 3; k++ {
				id := uint32(s + 1 + k*n)
				if got := m.ShardOf(page.ID(id)); got != s {
					t.Errorf("n=%d: ShardOf(%d) = %d, want %d", n, id, got, s)
				}
				if got := m.CoordinatorOf(logrec.TID(id)); got != s {
					t.Errorf("n=%d: CoordinatorOf(%d) = %d, want %d", n, id, got, s)
				}
			}
		}
	}
}

// TestCrossShardCommitAndAbort drives a cross-shard transaction through the
// router: a commit must land both halves, an abort must land neither, and a
// single-shard transaction must keep working alongside.
func TestCrossShardCommitAndAbort(t *testing.T) {
	cli, router, srvs := newCluster(t, 2)

	// Build: one object on each shard.
	tx, err := cli.Begin()
	if err != nil {
		t.Fatal(err)
	}
	var objs [2]page.OID
	for s := 0; s < 2; s++ {
		router.SetAllocShard(s)
		if _, err := tx.NewPage(); err != nil {
			t.Fatalf("new page on shard %d: %v", s, err)
		}
		oid, err := tx.Allocate(4)
		if err != nil {
			t.Fatal(err)
		}
		objs[s] = oid
		if err := tx.Write(oid, 0, []byte{byte(s), 0, 0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	router.SetAllocShard(-1)
	if err := tx.Commit(); err != nil {
		t.Fatalf("cross-shard build commit: %v", err)
	}
	if m := router.Map(); m.ShardOf(objs[0].Page) == m.ShardOf(objs[1].Page) {
		t.Fatalf("objects %v and %v landed on the same shard", objs[0], objs[1])
	}

	// Cross-shard update, committed: both halves visible.
	tx, err = cli.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		if err := tx.Write(o, 0, []byte{42, 0, 0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("cross-shard commit: %v", err)
	}

	// Cross-shard update, aborted: neither half visible.
	tx, err = cli.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		if err := tx.Write(o, 0, []byte{99, 0, 0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Abort(); err != nil {
		t.Fatalf("cross-shard abort: %v", err)
	}

	tx, err = cli.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		var buf [4]byte
		if err := tx.Read(o, 0, buf[:]); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 42 {
			t.Errorf("object %v = %d after abort, want 42", o, buf[0])
		}
	}
	tx.Abort()

	// Each shard saw 2PC work: the two cross-shard commits forced prepares.
	var prepares int64
	for _, srv := range srvs {
		prepares += srv.Stats().TwoPCPrepares
	}
	if prepares < 4 {
		t.Errorf("cluster logged %d prepares, want >= 4 (two cross-shard commits, two shards)", prepares)
	}
}

// TestRecoverWithNothingInDoubt pins the no-op path: Recover on a healthy
// cluster settles nothing.
func TestRecoverWithNothingInDoubt(t *testing.T) {
	_, router, _ := newCluster(t, 2)
	res, err := router.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("Recover settled %d branches on a healthy cluster", len(res))
	}
}

// TestJoiningAShardCostsNoFrame: the router's Adopt of a branch onto a
// second shard rides that branch's first carrying call, as a Begin's open
// does on the coordinator. A cross-shard update of one cached object per
// shard costs the coordinator four frames — open+lock, ships+prepare,
// decide, forget — and the participant three, neither a frame of its own to
// begin or join.
func TestJoiningAShardCostsNoFrame(t *testing.T) {
	const n = 2
	backends := make([]shard.Backend, n)
	wires := make([]*wire.Client, n)
	for s := 0; s < n; s++ {
		wires[s] = wire.NewDirect(server.New(server.Config{Mode: server.ModeESM, PoolPages: 64,
			LogCapacity: 8 << 20, ShardID: s, ShardCount: n}), nil, nil)
		backends[s] = wires[s]
	}
	router := shard.NewRouter(backends)
	cli := client.New(client.Config{Scheme: client.PD, PoolPages: 32, ShipDirtyPages: true}, router)
	tx, err := cli.Begin()
	if err != nil {
		t.Fatal(err)
	}
	var objs [n]page.OID
	for s := range objs {
		router.SetAllocShard(s)
		if _, err := tx.NewPage(); err != nil {
			t.Fatal(err)
		}
		if objs[s], err = tx.Allocate(4); err != nil {
			t.Fatal(err)
		}
	}
	router.SetAllocShard(-1)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	update := func(v byte) logrec.TID {
		t.Helper()
		tx, err := cli.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range objs {
			if err := tx.Write(o, 0, []byte{v, 0, 0, 0}); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		return tx.TID()
	}
	ops := func() (out [n]map[string]int64) {
		t.Helper()
		for s, w := range wires {
			ds, err := w.ServerStats()
			if err != nil {
				t.Fatal(err)
			}
			out[s] = ds.Ops
		}
		return out
	}
	update(1) // coordinated by shard 1: both shards have reserved ids now
	before := ops()
	tid := update(2)
	after := ops()
	coord := router.Map().CoordinatorOf(tid)
	for s := 0; s < n; s++ {
		var frames int64
		for op, k := range after[s] {
			switch op {
			case "batch", "open", "ship-log", "ship-page", "stats":
			default:
				frames += k - before[s][op]
			}
		}
		want := int64(3)
		if s == coord {
			want = 4
		}
		if opens := after[s]["open"] - before[s]["open"]; frames != want || opens != 1 {
			t.Errorf("shard %d (coordinator %d) served %d frames and %d opens, want %d and 1", s, coord, frames, opens, want)
		}
	}
}
