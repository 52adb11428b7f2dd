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

// TestOneObjectUpdateIsThreeFrames: a PD-ESM transaction updating one object
// on a cached page crosses the wire to a daemon in three request frames —
// begin, the write's exclusive lock, and one batch carrying the ship-log and
// ship-page ahead of the commit — where the paper's protocol sends six.
func TestOneObjectUpdateIsThreeFrames(t *testing.T) {
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
	// Members count under their own ops as well: the frames are begin, lock
	// and batch.
	const want = "map[batch:1 begin:1 commit:1 lock:1 ship-log:1 ship-page:1]"
	if got := fmt.Sprint(delta); got != want {
		t.Fatalf("one update was served as %s, want %s", got, want)
	}
}
