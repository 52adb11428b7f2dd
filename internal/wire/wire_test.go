package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/lock"
	"repro/internal/logrec"
	"repro/internal/page"
	"repro/internal/server"
)

func testServer(mode server.Mode) *server.Server {
	return server.New(server.Config{
		Mode:            mode,
		PoolPages:       64,
		LogCapacity:     16 << 20,
		LockTimeout:     500 * time.Millisecond,
		CheckpointEvery: 1 << 30,
	})
}

// shardServer is testServer as shard 0 of 2, so that an odd id is its own
// and an even one — a coordinator-issued id of shard 1 — it adopts.
func shardServer() *server.Server {
	return server.New(server.Config{
		Mode:            server.ModeESM,
		PoolPages:       64,
		LogCapacity:     16 << 20,
		LockTimeout:     500 * time.Millisecond,
		CheckpointEvery: 1 << 30,
		ShardID:         0,
		ShardCount:      2,
	})
}

// exerciseService runs the standard create/update/read protocol against any
// Service implementation.
func exerciseService(t *testing.T, svc Service) {
	t.Helper()
	tid, err := svc.Begin()
	if err != nil {
		t.Fatal(err)
	}
	pid, err := svc.AllocPage(tid)
	if err != nil {
		t.Fatal(err)
	}
	pg := page.New(pid)
	slot, _ := pg.Allocate(16)
	pg.WriteAt(slot, 0, []byte("through the wire"))
	img := logrec.NewPageImage(tid, pid, pg.Bytes())
	if err := svc.ShipLog(tid, img.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	if err := svc.ShipPage(tid, pid, pg.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := svc.Commit(tid); err != nil {
		t.Fatal(err)
	}

	tid2, err := svc.Begin()
	if err != nil {
		t.Fatal(err)
	}
	data, err := svc.ReadPage(tid2, pid, lock.Shared)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 16)
	if err := page.Wrap(data).ReadAt(slot, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("through the wire")) {
		t.Fatalf("got %q", got)
	}
	if err := svc.Abort(tid2); err != nil {
		t.Fatal(err)
	}
}

func TestDirectTransport(t *testing.T) {
	srv := testServer(server.ModeESM)
	exerciseService(t, NewDirect(srv, nil, nil))
}

func TestTCPTransport(t *testing.T) {
	srv := testServer(server.ModeESM)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go Serve(lis, srv)
	cli, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	exerciseService(t, cli)
}

func TestTCPErrorsCrossWire(t *testing.T) {
	srv := testServer(server.ModeESM)
	lis, _ := net.Listen("tcp", "127.0.0.1:0")
	defer lis.Close()
	go Serve(lis, srv)
	cli, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	// Unknown transaction sentinel survives the wire.
	if err := cli.Commit(12345); !errors.Is(err, server.ErrNoTxn) {
		t.Fatalf("err = %v, want ErrNoTxn", err)
	}
	// Deadlock sentinel survives the wire: two txns contending via a second
	// connection.
	cli2, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()
	t1, _ := cli.Begin()
	t2, _ := cli2.Begin()
	pid, _ := cli.AllocPage(t1)
	pg := page.New(pid)
	img := logrec.NewPageImage(t1, pid, pg.Bytes())
	cli.ShipLog(t1, img.Encode(nil))
	cli.ShipPage(t1, pid, pg.Bytes())
	cli.Commit(t1)
	t1b, _ := cli.Begin()
	if err := cli.Lock(t1b, pid, lock.Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := cli2.Lock(t2, pid, lock.Exclusive); !errors.Is(err, lock.ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	srv := testServer(server.ModeESM)
	lis, _ := net.Listen("tcp", "127.0.0.1:0")
	defer lis.Close()
	go Serve(lis, srv)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli, err := Dial(lis.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer cli.Close()
			for i := 0; i < 10; i++ {
				exerciseService(t, cli)
			}
		}()
	}
	wg.Wait()
	if srv.Stats().Commits != 40 {
		t.Fatalf("commits = %d", srv.Stats().Commits)
	}
}

func TestFrameLimit(t *testing.T) {
	if _, err := readBody(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff}), nil); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestClientCrashAbortsItsTransactions(t *testing.T) {
	srv := testServer(server.ModeESM)
	lis, _ := net.Listen("tcp", "127.0.0.1:0")
	defer lis.Close()
	go Serve(lis, srv)

	// Client A creates a page, then starts a transaction, locks the page
	// exclusively, and crashes (drops the connection) without committing.
	cliA, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	tid, _ := cliA.Begin()
	pid, _ := cliA.AllocPage(tid)
	pg := page.New(pid)
	slot, _ := pg.Allocate(8)
	pg.WriteAt(slot, 0, []byte("original"))
	img := logrec.NewPageImage(tid, pid, pg.Bytes())
	cliA.ShipLog(tid, img.Encode(nil))
	cliA.ShipPage(tid, pid, pg.Bytes())
	if err := cliA.Commit(tid); err != nil {
		t.Fatal(err)
	}
	tid2, _ := cliA.Begin()
	if err := cliA.Lock(tid2, pid, lock.Exclusive); err != nil {
		t.Fatal(err)
	}
	pg.WriteAt(slot, 0, []byte("halfdone"))
	rec := logrec.NewUpdate(tid2, pid, 16, []byte("original"), []byte("halfdone"))
	cliA.ShipLog(tid2, rec.Encode(nil))
	cliA.Close() // crash: connection drops mid-transaction

	// Client B must be able to lock the page (A's abort released it) and
	// must see the committed value, not A's half-done update.
	cliB, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cliB.Close()
	tidB, _ := cliB.Begin()
	deadline := time.Now().Add(2 * time.Second)
	var data []byte
	for {
		data, err = cliB.ReadPage(tidB, pid, lock.Exclusive)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lock never released after client crash: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	got := make([]byte, 8)
	page.Wrap(data).ReadAt(slot, 0, got)
	if string(got) != "original" {
		t.Fatalf("got %q, want the committed value", got)
	}
}

// TestDisconnectAbortsATransactionOpenedInABatch: a transaction whose open
// rode the batch of its first Lock is booked for the disconnect abort like
// any other — the open is not the batch's last member — so when its client's
// socket dies, the X lock it took is released at once, not at LockTimeout.
func TestDisconnectAbortsATransactionOpenedInABatch(t *testing.T) {
	const timeout = 5 * time.Second
	srv := server.New(server.Config{Mode: server.ModeESM, PoolPages: 64, LogCapacity: 16 << 20,
		LockTimeout: timeout, CheckpointEvery: 1 << 30})
	addr := serveTCP(t, srv, ServeOpts{})
	cliA := dialTest(t, addr)
	tid, err := cliA.Begin()
	if err != nil {
		t.Fatal(err)
	}
	pid, err := cliA.AllocPage(tid)
	if err != nil {
		t.Fatal(err)
	}
	if err := cliA.Commit(tid); err != nil {
		t.Fatal(err)
	}
	if tid, err = cliA.Begin(); err != nil {
		t.Fatal(err)
	}
	before, err := cliA.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if err := cliA.Lock(tid, pid, lock.Exclusive); err != nil {
		t.Fatal(err)
	}
	after, err := cliA.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{"batch", "open", "lock"} {
		if d := after.Ops[op] - before.Ops[op]; d != 1 {
			t.Fatalf("the X lock was served with %d %s frames, want it in one batch after its open", d, op)
		}
	}
	cliA.c.(*tcpConn).Close() // the client crashes holding X

	cliB := dialTest(t, addr)
	tidB, err := cliB.Begin()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = cliB.Lock(tidB, pid, lock.Exclusive)
	if wait := time.Since(start); err != nil || wait > timeout/5 {
		t.Fatalf("second client's X lock: %v after %v, want it granted well inside the %v lock timeout", err, wait, timeout)
	}
}

// rawSession speaks the wire protocol over a bare connection so tests can
// cut it off mid-frame.
type rawSession struct {
	t    *testing.T
	conn net.Conn
}

func dialRaw(t *testing.T, addr string) *rawSession {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return &rawSession{t: t, conn: conn}
}

func (s *rawSession) call(f frame) []byte {
	s.t.Helper()
	if err := writeRequest(s.conn, f); err != nil {
		s.t.Fatal(err)
	}
	body, err := readBody(s.conn, nil)
	if err != nil {
		s.t.Fatal(err)
	}
	if body[0] != stOK {
		s.t.Fatalf("op %d: status %d: %s", f.op, body[0], body[1:])
	}
	return body[1:]
}

// setupMidCommit drives a raw connection to the point where a transaction
// with one un-committed update ("halfdone" over the committed "original") is
// ready to commit, and returns everything needed to finish the story.
func setupMidCommit(t *testing.T, addr string) (s *rawSession, tid logrec.TID, pid page.ID, slot int) {
	t.Helper()
	s = dialRaw(t, addr)
	tid = logrec.TID(binary.LittleEndian.Uint64(s.call(frame{op: opReserve})))
	s.call(frame{op: opOpen, tid: tid})
	pid = page.ID(binary.LittleEndian.Uint32(s.call(frame{op: opAllocPage, tid: tid})))
	pg := page.New(pid)
	slot, _ = pg.Allocate(8)
	pg.WriteAt(slot, 0, []byte("original"))
	img := logrec.NewPageImage(tid, pid, pg.Bytes())
	s.call(frame{op: opShipLog, tid: tid, payload: img.Encode(nil)})
	s.call(frame{op: opShipPage, tid: tid, pid: pid, payload: pg.Bytes()})
	s.call(frame{op: opCommit, tid: tid})

	tid++ // the block's next id
	s.call(frame{op: opOpen, tid: tid})
	s.call(frame{op: opLock, tid: tid, pid: pid, mode: byte(lock.Exclusive)})
	rec := logrec.NewUpdate(tid, pid, page.HeaderSize, []byte("original"), []byte("halfdone"))
	s.call(frame{op: opShipLog, tid: tid, payload: rec.Encode(nil)})
	pg.WriteAt(slot, 0, []byte("halfdone"))
	s.call(frame{op: opShipPage, tid: tid, pid: pid, payload: pg.Bytes()})
	return s, tid, pid, slot
}

// awaitValue polls until the page's lock is released, then returns its value.
func awaitValue(t *testing.T, addr string, pid page.ID, slot int) string {
	t.Helper()
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	tid, _ := cli.Begin()
	deadline := time.Now().Add(2 * time.Second)
	for {
		data, err := cli.ReadPage(tid, pid, lock.Exclusive)
		if err == nil {
			got := make([]byte, 8)
			page.Wrap(data).ReadAt(slot, 0, got)
			return string(got)
		}
		if time.Now().After(deadline) {
			t.Fatalf("lock never released: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestConnectionResetMidCommitFrame: the connection dies after only part of
// the commit request reached the server. The commit must not happen, the
// transaction must be aborted (locks released), and the committed value must
// survive.
func TestConnectionResetMidCommitFrame(t *testing.T) {
	srv := testServer(server.ModeESM)
	lis, _ := net.Listen("tcp", "127.0.0.1:0")
	defer lis.Close()
	go Serve(lis, srv)

	s, tid, pid, slot := setupMidCommit(t, lis.Addr().String())
	var buf bytes.Buffer
	if err := writeRequest(&buf, frame{op: opCommit, tid: tid}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.conn.Write(buf.Bytes()[:10]); err != nil { // 18-byte frame, cut at 10
		t.Fatal(err)
	}
	s.conn.Close() // reset mid-frame

	if got := awaitValue(t, lis.Addr().String(), pid, slot); got != "original" {
		t.Fatalf("got %q after a torn commit request, want the committed value", got)
	}
	if c := srv.Stats().Commits; c != 1 {
		t.Fatalf("commits = %d: a half-delivered commit request was executed", c)
	}
}

// TestConnectionResetAfterCommitFrame: the whole commit request reached the
// server but the connection died before the response. The transaction is
// durably committed (this is the ambiguity ErrCommitOutcomeUnknown reports)
// and its locks release.
func TestConnectionResetAfterCommitFrame(t *testing.T) {
	srv := testServer(server.ModeESM)
	lis, _ := net.Listen("tcp", "127.0.0.1:0")
	defer lis.Close()
	go Serve(lis, srv)

	s, tid, pid, slot := setupMidCommit(t, lis.Addr().String())
	if err := writeRequest(s.conn, frame{op: opCommit, tid: tid}); err != nil {
		t.Fatal(err)
	}
	// Half-close (FIN after the frame) so the request is guaranteed delivered;
	// a full close could RST and discard it from the server's receive buffer
	// before it is read. The client never reads the response.
	s.conn.(*net.TCPConn).CloseWrite()
	defer s.conn.Close()

	if got := awaitValue(t, lis.Addr().String(), pid, slot); got != "halfdone" {
		t.Fatalf("got %q after a delivered commit, want the new value", got)
	}
	if c := srv.Stats().Commits; c != 2 {
		t.Fatalf("commits = %d, want 2 (the delivered commit must execute)", c)
	}
}

// TestShipLogRejectsOutOfRangeRecords: a client-shipped record whose images
// fall outside the page is refused with an ordinary request error — before it
// is logged — and the transaction, the connection and the server all carry
// on. (Unchecked, the record panicked a REDO server on apply and sat in an
// ESM server's log as poison for the abort's undo and for restart.) The
// records travel with the transaction's next call, a Lock here, and the
// refusal is its reply.
func TestShipLogRejectsOutOfRangeRecords(t *testing.T) {
	past := logrec.NewUpdate(0, 0, 0, make([]byte, 64), make([]byte, 64))
	past.Off = page.Size - 8
	mismatch := logrec.NewUpdate(0, 0, 100, make([]byte, 8), make([]byte, 8))
	mismatch.Before = mismatch.Before[:4]
	short := logrec.NewPageImage(0, 0, make([]byte, page.Size-1))
	bad := map[string]*logrec.Record{"update past the page end": past, "before/after length mismatch": mismatch, "short page image": short}

	for _, mode := range []server.Mode{server.ModeREDO, server.ModeESM} {
		srv := testServer(mode)
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer lis.Close()
		go Serve(lis, srv)
		cli, err := Dial(lis.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		for transport, svc := range map[string]Service{"direct": NewDirect(srv, nil, nil), "tcp": cli} {
			tid, err := svc.Begin()
			if err != nil {
				t.Fatal(err)
			}
			pid, err := svc.AllocPage(tid)
			if err != nil {
				t.Fatal(err)
			}
			pg := page.New(pid)
			if err := svc.ShipLog(tid, logrec.NewPageImage(tid, pid, pg.Bytes()).Encode(nil)); err != nil {
				t.Fatal(err)
			}
			if err := svc.Lock(tid, pid, lock.Exclusive); err != nil {
				t.Fatal(err)
			}
			end := srv.Log().End()
			for name, r := range bad {
				r.Page = pid
				// A good record ahead of the bad one: the log page is refused whole.
				batch := logrec.NewUpdate(tid, pid, 200, make([]byte, 4), []byte("good")).Encode(nil)
				if err := svc.ShipLog(tid, r.Encode(batch)); err != nil {
					t.Fatalf("%v/%s: %s: ShipLog = %v, want it deferred", mode, transport, name, err)
				}
				err := svc.Lock(tid, pid, lock.Exclusive)
				if err == nil || errors.Is(err, server.ErrNoTxn) {
					t.Fatalf("%v/%s: %s: err = %v, want a request error", mode, transport, name, err)
				}
			}
			if got := srv.Log().End(); got != end {
				t.Fatalf("%v/%s: rejected batches grew the log from %d to %d", mode, transport, end, got)
			}
			// Same transaction, same connection: still usable, and its abort
			// (which undoes every logged update) finds no poison.
			if err := svc.ShipLog(tid, logrec.NewUpdate(tid, pid, 200, make([]byte, 4), []byte("good")).Encode(nil)); err != nil {
				t.Fatal(err)
			}
			if err := svc.Lock(tid, pid, lock.Exclusive); err != nil {
				t.Fatalf("%v/%s: ShipLog after a rejected batch: %v", mode, transport, err)
			}
			if err := svc.Abort(tid); err != nil {
				t.Fatalf("%v/%s: abort: %v", mode, transport, err)
			}
			// And so is the next transaction.
			tid2, err := svc.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := svc.ReadPage(tid2, pid, lock.Shared); err != nil {
				t.Fatalf("%v/%s: read after abort: %v", mode, transport, err)
			}
			if err := svc.Commit(tid2); err != nil {
				t.Fatalf("%v/%s: commit: %v", mode, transport, err)
			}
		}
	}
}
