package wire_test

import (
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/wire"
)

// TestOneObjectUpdateIsOneFrame: a PD-ESM transaction updating one object on
// a cached page crosses the wire to a daemon in one request frame — a batch
// of the transaction's open, the write's exclusive lock, the ship-log and the
// ship-page ahead of the commit — where the paper's protocol sends six. Begin
// itself sends nothing: its id comes from the block the connection reserved
// for the first transaction; and the write waits for nothing: its lock rides
// the commit.
func TestOneObjectUpdateIsOneFrame(t *testing.T) {
	srv := server.New(server.Config{Mode: server.ModeESM, PoolPages: 64, LogCapacity: 16 << 20,
		LockTimeout: time.Second, CheckpointEvery: 1 << 30})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go wire.Serve(lis, srv)
	conn, err := wire.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cli := client.New(client.Config{Scheme: client.PD, ShipDirtyPages: true}, conn)

	tx, err := cli.Begin()
	if err != nil {
		t.Fatal(err)
	}
	oid, err := tx.Allocate(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	ops := func() map[string]int64 {
		t.Helper()
		ds, err := conn.ServerStats()
		if err != nil {
			t.Fatal(err)
		}
		return ds.Ops
	}
	before := ops()
	if tx, err = cli.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(oid, 0, []byte("updated!")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	after := ops()
	delta := map[string]int64{}
	for name, n := range after {
		if d := n - before[name]; d != 0 && name != "stats" {
			delta[name] = d
		}
	}
	// Members count under their own ops as well: the frame is one batch.
	const want = "map[batch:1 commit:1 lock-x:1 open:1 ship-log:1 ship-page:1]"
	if got := fmt.Sprint(delta); got != want {
		t.Fatalf("one update was served as %s, want %s", got, want)
	}
}

// BenchmarkOneObjectUpdate: a PD-ESM client updates one object on a cached
// page per transaction, over loopback TCP to a daemon. frames/op is the
// request frames the daemon served per transaction, read from its per-op
// counters: every frame is a plain one, counted under its op, or a batch,
// counted under the call that ends it — so the batch row and the deferred
// members (open, lock-x, ship-log, ship-page) are left out.
func BenchmarkOneObjectUpdate(b *testing.B) {
	srv := server.New(server.Config{Mode: server.ModeESM, PoolPages: 64, LogCapacity: 16 << 20})
	defer srv.Close()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer lis.Close()
	go wire.Serve(lis, srv)
	conn, err := wire.Dial(lis.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	cli := client.New(client.Config{Scheme: client.PD, ShipDirtyPages: true}, conn)
	tx, err := cli.Begin()
	if err != nil {
		b.Fatal(err)
	}
	oid, err := tx.Allocate(8)
	if err != nil {
		b.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	ops := func() map[string]int64 {
		ds, err := conn.ServerStats()
		if err != nil {
			b.Fatal(err)
		}
		return ds.Ops
	}
	before := ops()
	val := []byte("updated!")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := cli.Begin()
		if err != nil {
			b.Fatal(err)
		}
		val[0] = byte(i)
		if err := tx.Write(oid, 0, val); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var frames int64
	for op, n := range ops() {
		switch op {
		case "batch", "open", "lock-x", "ship-log", "ship-page", "stats":
		default:
			frames += n - before[op]
		}
	}
	b.ReportMetric(float64(frames)/float64(b.N), "frames/op")
}
