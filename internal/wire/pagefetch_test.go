package wire_test

import (
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/page"
	"repro/internal/server"
	"repro/internal/wire"
)

// pageCycle is a loopback-TCP daemon and a PD client whose pools are both
// smaller than the volume, with one object on each of its pages: reading the
// objects in order misses the client pool, then the server pool, on every
// page, and reads each from the data volume.
type pageCycle struct {
	srv  *server.Server
	cli  *client.Client
	oids []page.OID
}

const (
	cyclePages = 32
	cyclePool  = 8 // frames in each pool
)

func newPageCycle(tb testing.TB) *pageCycle {
	tb.Helper()
	srv := server.New(server.Config{Mode: server.ModeESM, PoolPages: cyclePool, LogCapacity: 16 << 20,
		LockTimeout: time.Second, CheckpointEvery: 1 << 30})
	tb.Cleanup(func() { srv.Close() })
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { lis.Close() })
	go wire.Serve(lis, srv)
	conn, err := wire.Dial(lis.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { conn.Close() })
	pc := &pageCycle{srv: srv, cli: client.New(client.Config{Scheme: client.PD, ShipDirtyPages: true, PoolPages: cyclePool}, conn)}
	for len(pc.oids) < cyclePages {
		tx, err := pc.cli.Begin()
		if err != nil {
			tb.Fatal(err)
		}
		for i := 0; i < cyclePool/2; i++ {
			if _, err := tx.NewPage(); err != nil {
				tb.Fatal(err)
			}
			oid, err := tx.Allocate(8)
			if err != nil {
				tb.Fatal(err)
			}
			pc.oids = append(pc.oids, oid)
		}
		if err := tx.Commit(); err != nil {
			tb.Fatal(err)
		}
	}
	return pc
}

// read reads the first n objects in one transaction.
func (pc *pageCycle) read(tb testing.TB, n int) {
	tx, err := pc.cli.Begin()
	if err != nil {
		tb.Fatal(err)
	}
	var buf [8]byte
	for _, oid := range pc.oids[:n] {
		if err := tx.Read(oid, 0, buf[:]); err != nil {
			tb.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		tb.Fatal(err)
	}
}

// TestPageFetchAllocatesNoPages: a page fetch that misses both pools —
// disk to server pool to TCP to client pool — allocates nothing page-sized.
// The pools recycle the buffers of the frames they evict, the server reads
// into its shard's buffer and replies from the connection's, and the client
// carrier reads the reply into one buffer it reuses.
func TestPageFetchAllocatesNoPages(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	pc := newPageCycle(t)
	pc.read(t, cyclePages) // the pools reach their steady state
	const rounds = 20
	fetched0, reads0 := pc.cli.Stats().PagesFetched, pc.srv.Stats().DataReads
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < rounds; i++ {
		pc.read(t, cyclePages)
	}
	runtime.ReadMemStats(&m1)
	fetched := pc.cli.Stats().PagesFetched - fetched0
	if reads := pc.srv.Stats().DataReads - reads0; fetched != rounds*cyclePages || reads != fetched {
		t.Fatalf("%d fetches and %d disk reads for %d object reads: the cycle does not miss both pools",
			fetched, reads, rounds*cyclePages)
	}
	perFetch := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(fetched)
	t.Logf("%.0f B and %.1f allocations per page fetch", perFetch, float64(m1.Mallocs-m0.Mallocs)/float64(fetched))
	if perFetch >= 1024 {
		t.Fatalf("%.0f bytes allocated per page fetch, want under 1 KiB", perFetch)
	}
}

// BenchmarkPageFetch: one page fetch per op that misses both pools, over
// loopback TCP (the cycle of TestPageFetchAllocatesNoPages, one transaction
// per pass over the volume). B/op and allocs/op are the whole process's:
// client and daemon.
func BenchmarkPageFetch(b *testing.B) {
	pc := newPageCycle(b)
	pc.read(b, cyclePages)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := min(cyclePages, b.N-done)
		pc.read(b, n)
		done += n
	}
}
