package wire

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/lock"
	"repro/internal/logrec"
	"repro/internal/page"
)

// These tests pin the protocol's observable bytes: what the in-process
// transport charges the meter per message (the simulated Ethernet every
// figure is built on) and what crosses a TCP connection. Both must stay
// identical whatever carries the frames.

// pinnedTransport is the surface the pinned sequence drives.
type pinnedTransport interface {
	Service
	TwoPC
}

// pinnedSequence runs a fixed sequence of every Service op, the 2PC calls
// but InDoubt, and error replies against a fresh ESM server, shard 0 of 2.
func pinnedSequence(t *testing.T, svc pinnedTransport) {
	t.Helper()
	must := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	fails := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s succeeded, want an error reply", what)
		}
	}
	tid, err := svc.Begin()
	must("begin", err)
	pid, err := svc.AllocPage(tid)
	must("alloc", err)
	pg := page.New(pid)
	slot, _ := pg.Allocate(8)
	pg.WriteAt(slot, 0, []byte("pinned!!"))
	must("ship log", svc.ShipLog(tid, logrec.NewPageImage(tid, pid, pg.Bytes()).Encode(nil)))
	must("ship page", svc.ShipPage(tid, pid, pg.Bytes()))
	must("commit", svc.Commit(tid))

	tid2, err := svc.Begin()
	must("begin", err)
	must("lock", svc.Lock(tid2, pid, lock.Exclusive))
	_, err = svc.ReadPage(tid2, pid, lock.Exclusive)
	must("read", err)
	must("abort", svc.Abort(tid2))

	// A branch under an id shard 1 issued: adopted, updated, prepared,
	// decided, resolved, forgotten, resolved again (now presumed abort).
	const g = logrec.TID(1 << 20)
	must("adopt", svc.Adopt(g))
	must("lock", svc.Lock(g, pid, lock.Exclusive))
	upd := logrec.NewUpdate(g, pid, page.HeaderSize, []byte("pinned!!"), []byte("decided!"))
	must("ship log", svc.ShipLog(g, upd.Encode(nil)))
	must("prepare", svc.Prepare(g, 0, []int{0, 1}))
	must("decide", svc.Decide(g, true))
	commit, parts, err := svc.Resolve(g)
	must("resolve", err)
	if !commit || len(parts) != 2 {
		t.Fatalf("resolve = %v %v, want commit over two participants", commit, parts)
	}
	must("forget", svc.Forget(g))
	commit, _, err = svc.Resolve(g)
	must("resolve", err)
	if commit {
		t.Fatal("resolve after forget = commit, want presumed abort")
	}

	// Error replies: every op against a transaction the server never saw. The
	// ship-log and ship-page wait for the commit that carries them, and the
	// ship-log's error stops that batch.
	const none = logrec.TID(999)
	_, err = svc.AllocPage(none)
	fails("alloc", err)
	_, err = svc.ReadPage(none, pid, lock.Shared)
	fails("read", err)
	must("ship log", svc.ShipLog(none, upd.Encode(nil)))
	must("ship page", svc.ShipPage(none, pid, pg.Bytes()))
	fails("commit", svc.Commit(none))
	fails("abort", svc.Abort(none))
	fails("prepare", svc.Prepare(none, 0, []int{0}))
	must("decide abort of a finished branch", svc.Decide(none, false))
}

// recordingMeter writes down every message event, in order.
type recordingMeter struct{ msgs []string }

func (m *recordingMeter) Add(e costmodel.Event, n int) {
	switch e {
	case costmodel.MsgToServer:
		m.msgs = append(m.msgs, fmt.Sprintf(">%d", n))
	case costmodel.MsgToClient:
		m.msgs = append(m.msgs, fmt.Sprintf("<%d", n))
	}
}

// TestDirectChargesFrameSizes: the in-process transport charges each
// request and reply exactly these byte counts — a batch's members each as
// the request and reply the paper's protocol sends, a transaction's open as
// its begin, and the connection's one reserve as a message of its own. Only
// a batch stopped by an error charges less: its members after the failed one
// are never served.
func TestDirectChargesFrameSizes(t *testing.T) {
	m := &recordingMeter{}
	pinnedSequence(t, NewDirect(shardServer(), m, nil))
	const want = "" +
		">28 <28 >28 <12 >28 <16 >8272 <12 >8220 <12 >28 <12 " + // reserve open alloc shiplog shippage commit
		">28 <12 >28 <12 >28 <8204 >28 <12 " + // open lock readpage abort
		">28 <12 >28 <12 >96 <12 >44 <12 >28 <12 >28 <25 >28 <12 >28 <17 " + // open(adopt) lock shiplog prepare decide resolve forget resolve
		">28 <16 >28 <12 >96 <12 >28 <12 >40 <12 >28 <12" // error replies: alloc read shiplog(stops its batch) abort prepare decide
	if got := strings.Join(m.msgs, " "); got != want {
		t.Fatalf("meter charges changed:\n got %s\nwant %s", got, want)
	}
}

// recordingConn keeps a copy of every byte written to and read from a
// connection.
type recordingConn struct {
	net.Conn
	tx, rx []byte
}

func (c *recordingConn) Write(p []byte) (int, error) {
	c.tx = append(c.tx, p...)
	return c.Conn.Write(p)
}

func (c *recordingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.rx = append(c.rx, p[:n]...)
	return n, err
}

// TestFrameBytesUnchanged: the same sequence over TCP sends and receives
// exactly these bytes. One reserve frame stands for both Begins. Each
// transaction's open and exclusive locks, and its three ship-log/ship-page
// runs, travel in the batch frame of the call after them: 18 more request
// bytes per batch (its own length and head), one reply for the batch instead
// of one per member, and no replies at all for the members the failed
// ship-log stops. The adopted branch is one batch: open, lock-x, ship-log,
// prepare.
func TestFrameBytesUnchanged(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go Serve(lis, shardServer())
	raw, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := &recordingConn{Conn: raw}
	cli := NewTCPClient(conn)
	defer cli.Close()
	pinnedSequence(t, cli)
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return fmt.Sprintf("%d:%s", len(b), hex.EncodeToString(sum[:8]))
	}
	const wantTx, wantRx = "25350:af4db9d5d2d64301", "8535:d38350fb9a81fbd0"
	if got := digest(conn.tx); got != wantTx {
		t.Errorf("request bytes changed: got %s, want %s", got, wantTx)
	}
	if got := digest(conn.rx); got != wantRx {
		t.Errorf("response bytes changed: got %s, want %s", got, wantRx)
	}
}
