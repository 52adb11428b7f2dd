package wire

import (
	"bytes"
	"net"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/faultinject"
	"repro/internal/lock"
	"repro/internal/logrec"
	"repro/internal/server"
)

// FuzzParseRequest hardens the server-side frame parser.
func FuzzParseRequest(f *testing.F) {
	f.Add([]byte{opReserve, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{opOpen, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xaa}, 64))
	// 2PC ops: a prepare frame carrying a participant-set payload, a decide
	// frame for each mode byte, and a resolution request.
	f.Add(append([]byte{opPrepare, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		logrec.EncodePrepareInfo(1, []int{0, 1})...))
	f.Add([]byte{opDecide, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, decideCommit})
	f.Add([]byte{opDecide, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, decideForget})
	f.Add([]byte{opResolveInDoubt, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	// A batch of a transaction's open, a deferred exclusive lock, a ship-log
	// and the commit that carries them.
	var batch []byte
	batch = appendMember(batch, frame{op: opOpen, tid: 7})
	batch = appendMember(batch, frame{op: opLockX, tid: 7, pid: 3, mode: byte(lock.Exclusive)})
	batch = appendMember(batch, frame{op: opShipLog, tid: 7, payload: []byte{1, 2, 3}})
	batch = appendMember(batch, frame{op: opCommit, tid: 7})
	f.Add(append([]byte{opBatch, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, batch...))
	f.Fuzz(func(t *testing.T, body []byte) {
		fr, err := parseRequest(body)
		if err != nil {
			return
		}
		if int(fr.op) < 0 {
			t.Fatal("impossible")
		}
	})
}

// FuzzServerAgainstGarbage throws arbitrary bytes at a live TCP server whose
// flaky-net plan is armed, so every frame also goes through the daemon's
// message-fault path: it must neither panic nor corrupt state for
// well-behaved clients that follow, which retry through the injected drops.
func FuzzServerAgainstGarbage(f *testing.F) {
	fs := faultinject.NewStore(disk.NewMemStore())
	srv := server.New(server.Config{
		Mode:        server.ModeESM,
		Store:       fs,
		PoolPages:   64,
		LogCapacity: 8 << 20,
		LockTimeout: 200 * time.Millisecond,
	})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	go ServeWith(lis, srv, ServeOpts{Faults: fs})
	retry := func(c *Client) *Client {
		return WithRetry(c, RetryPolicy{MaxAttempts: 20, Sleep: func(time.Duration) {}})
	}
	admin, err := Dial(lis.Addr().String())
	if err != nil {
		f.Fatal(err)
	}
	if _, err := retry(admin).Faults(true, "flaky-net", 1); err != nil {
		f.Fatal(err)
	}
	admin.Close()
	f.Add([]byte{1, 2, 3})
	f.Add(bytes.Repeat([]byte{0}, 32))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f})
	// Framed 2PC ops with garbage payloads: a prepare whose participant-set
	// blob is corrupt and a decide with an undefined mode byte must both come
	// back as clean errors, not crash the dispatcher.
	f.Add([]byte{18, 0, 0, 0, opPrepare, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef})
	f.Add([]byte{14, 0, 0, 0, opDecide, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 99})
	// Well-formed frames: reserve a block, open an id the connection never
	// reserved (refused), then ship that id an update whose bytes fall
	// outside the page. The record must be refused, not logged — the abort
	// that follows the disconnect undoes whatever is.
	oob := logrec.NewUpdate(0, 1, 0, make([]byte, 64), make([]byte, 64))
	oob.Off = 0xFFF8
	var frames bytes.Buffer
	writeRequest(&frames, frame{op: opReserve})
	writeRequest(&frames, frame{op: opOpen, tid: 1 << 40})
	writeRequest(&frames, frame{op: opShipLog, tid: 1 << 40, payload: oob.Encode(nil)})
	f.Add(frames.Bytes())
	// Frames of op codes past the table, which the fault path looks up.
	f.Add([]byte{14, 0, 0, 0, 200, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	// Batches the client codec never builds: nested, empty, a member whose
	// length runs past the frame, a management op as a member. Each must be
	// refused whole, whatever the fault path makes of it first.
	const tid = 1 << 40
	batch := func(members ...frame) []byte {
		var payload []byte
		for _, m := range members {
			payload = appendMember(payload, m)
		}
		var buf bytes.Buffer
		writeRequest(&buf, frame{op: opBatch, tid: tid, payload: payload})
		return buf.Bytes()
	}
	f.Add(batch(frame{op: opBatch, tid: tid, payload: appendMember(nil, frame{op: opCommit, tid: tid})}))
	f.Add(batch())
	past := batch(frame{op: opCommit, tid: tid})
	past[4+headSize] = 0xff // the member's length
	f.Add(past)
	f.Add(batch(frame{op: opStats, tid: tid}))
	// A batch whose open is refused (an id never reserved here), whose
	// out-of-range ship-log would stop it before its commit anyway.
	f.Add(batch(frame{op: opOpen, tid: tid}, frame{op: opShipLog, tid: tid, payload: oob.Encode(nil)}, frame{op: opCommit, tid: tid}))
	// A deferred exclusive lock ahead of the ship-log that needs it, on an id
	// never reserved here: the open refuses the whole batch.
	f.Add(batch(frame{op: opOpen, tid: tid}, frame{op: opLockX, tid: tid, pid: 1, mode: byte(lock.Exclusive)},
		frame{op: opShipLog, tid: tid, payload: oob.Encode(nil)}, frame{op: opCommit, tid: tid}))
	f.Fuzz(func(t *testing.T, garbage []byte) {
		conn, err := net.Dial("tcp", lis.Addr().String())
		if err != nil {
			t.Skip("listener gone")
		}
		conn.Write(garbage)
		conn.Close()
		// A well-behaved client still works afterwards.
		cli, err := Dial(lis.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		svc := retry(cli)
		tid, err := svc.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Abort(tid); err != nil {
			t.Fatal(err)
		}
	})
}
