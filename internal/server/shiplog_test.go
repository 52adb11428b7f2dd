package server

import (
	"errors"
	"testing"
	"time"

	"repro/internal/lock"
	"repro/internal/logrec"
	"repro/internal/page"
	"repro/internal/wal"
)

// shipPage builds one client log page of 8-byte updates for tid, alternating
// between the pages in pids, each at its own offset, filling page.Size.
func shipPage(tid logrec.TID, pids ...page.ID) []byte {
	var buf []byte
	for i := 0; ; i++ {
		off := page.HeaderSize + 8*(i/len(pids))
		before := []byte{0, 0, 0, 0, 0, 0, 0, byte(i)}
		after := []byte{1, 2, 3, 4, 5, 6, 7, byte(i)}
		r := logrec.NewUpdate(tid, pids[i%len(pids)], off, before, after)
		if len(buf)+r.EncodedSize() > page.Size {
			return buf
		}
		buf = r.Encode(buf)
	}
}

// TestShipLogAllOrNothingWhenLogFull: a shipped log page that the log has
// room for only part of is refused with wal.ErrFull and leaves no trace —
// the log's end, the transaction's undo chain and the dirty page table are
// as before.
func TestShipLogAllOrNothingWhenLogFull(t *testing.T) {
	for _, mode := range []Mode{ModeESM, ModeREDO} {
		s := New(Config{
			Mode:            mode,
			PoolPages:       16,
			LogCapacity:     256 << 10,
			LockTimeout:     time.Second,
			CheckpointEvery: 1 << 30,
		})
		sn := s.NewSession(nil, nil)
		a, _ := createPage(t, sn, []byte("page a"))
		b, _ := createPage(t, sn, []byte("page b"))
		if err := sn.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		tid := sn.Begin()
		for _, pid := range []page.ID{a, b} {
			if err := sn.Lock(tid, pid, lock.Exclusive); err != nil {
				t.Fatal(err)
			}
		}
		data := shipPage(tid, a, b)
		// Fill the log to leave room for half the page.
		const filler = 4000
		for room := s.log.Capacity() - s.log.Used(); room > uint64(len(data)/2); room = s.log.Capacity() - s.log.Used() {
			n := min(filler, int(room-uint64(len(data)/2))/2)
			r := logrec.NewUpdate(1<<40, 1<<20, 0, make([]byte, n), make([]byte, n))
			if _, err := s.log.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if room := s.log.Capacity() - s.log.Used(); room == 0 || room >= uint64(len(data)) {
			t.Fatalf("%v: %d bytes of room does not cut a %d-byte log page", mode, room, len(data))
		}
		lastLSN := func() uint64 {
			tx, ok := s.lookupTxn(tid)
			if !ok {
				t.Fatalf("%v: %v gone", mode, tid)
			}
			s.attMu.Lock()
			defer s.attMu.Unlock()
			return tx.lastLSN
		}
		dpt := func() int {
			s.dptMu.Lock()
			defer s.dptMu.Unlock()
			return len(s.dpt)
		}
		end, chain := s.log.End(), lastLSN()
		if n := dpt(); n != 0 {
			t.Fatalf("%v: %d DPT entries after the checkpoint", mode, n)
		}
		if err := sn.ShipLog(tid, data); !errors.Is(err, wal.ErrFull) {
			t.Fatalf("%v: ShipLog into a log with room for half the page = %v, want wal.ErrFull", mode, err)
		}
		if got := s.log.End(); got != end {
			t.Fatalf("%v: the refused page moved the log end from %d to %d", mode, end, got)
		}
		if got := lastLSN(); got != chain {
			t.Fatalf("%v: the refused page moved %v's last LSN from %d to %d", mode, tid, chain, got)
		}
		if n := dpt(); n != 0 {
			t.Fatalf("%v: the refused page left %d DPT entries", mode, n)
		}
		if err := sn.Abort(tid); err != nil {
			t.Fatal(err)
		}
		s.Close()
	}
}

// TestShipLogRunChainsAndAppliesInOrder: an accepted log page is logged as
// one run — consecutive LSNs, each record's PrevLSN the one before it, the
// first's the transaction's last LSN — and under REDO every record lands on
// its page in log order, leaving each page stamped with the run's last LSN
// for that page.
func TestShipLogRunChainsAndAppliesInOrder(t *testing.T) {
	for _, mode := range []Mode{ModeESM, ModeREDO} {
		s, sn := newTestServer(t, mode)
		a, _ := createPage(t, sn, []byte("page a"))
		b, _ := createPage(t, sn, []byte("page b"))
		tid := sn.Begin()
		for _, pid := range []page.ID{a, b} {
			if err := sn.Lock(tid, pid, lock.Exclusive); err != nil {
				t.Fatal(err)
			}
		}
		// A first record, so the run chains onto an LSN of the transaction.
		head := logrec.NewUpdate(tid, a, page.HeaderSize, make([]byte, 8), make([]byte, 8))
		if err := sn.ShipLog(tid, head.Encode(nil)); err != nil {
			t.Fatal(err)
		}
		prev := s.log.End() - uint64(head.EncodedSize())
		// Every record of the run rewrites the same eight bytes of its page,
		// so only log order leaves the last one's bytes there.
		var data []byte
		var recs []*logrec.Record
		for i := 0; i < 60; i++ {
			pid := []page.ID{a, b}[i%2]
			r := logrec.NewUpdate(tid, pid, page.HeaderSize, make([]byte, 8), []byte{byte(i), 1, 2, 3, 4, 5, 6, 7})
			data = r.Encode(data)
			recs = append(recs, r)
		}
		lsn := s.log.End()
		if err := sn.ShipLog(tid, data); err != nil {
			t.Fatal(err)
		}
		last := map[page.ID]int{}
		lsns := make([]uint64, len(recs))
		for i, want := range recs {
			lsns[i] = lsn
			got, err := s.log.ReadAt(lsn, nil)
			if err != nil {
				t.Fatalf("%v: record %d at %d: %v", mode, i, lsn, err)
			}
			if got.TID != tid || got.PrevLSN != prev || got.Page != want.Page || string(got.After) != string(want.After) {
				t.Fatalf("%v: record %d logged as %v, want %v with PrevLSN %d", mode, i, got, want, prev)
			}
			prev = lsn
			lsn += uint64(got.EncodedSize())
			last[want.Page] = i
		}
		if lsn != s.log.End() {
			t.Fatalf("%v: the run ends at %d, the log at %d", mode, lsn, s.log.End())
		}
		if mode == ModeREDO {
			for pid, i := range last {
				img, err := readPage(sn, tid, pid, lock.Exclusive)
				if err != nil {
					t.Fatal(err)
				}
				if got := page.Wrap(img).LSN(); got != lsns[i] {
					t.Fatalf("REDO: %v's page LSN is %d, want %d (record %d)", pid, got, lsns[i], i)
				}
				if got := img[page.HeaderSize : page.HeaderSize+8]; string(got) != string(recs[i].After) {
					t.Fatalf("REDO: %v holds %x, want record %d's %x", pid, got, i, recs[i].After)
				}
			}
		}
		if err := sn.Commit(tid); err != nil {
			t.Fatal(err)
		}
		s.Close()
	}
}

// BenchmarkShipLog times one shipped 8 KB log page of 8-byte updates —
// decode, vetting, the X-lock check, the logged run and the table notes —
// into an ESM server. Every 1000 pages the transaction ships the page and
// commits, and a checkpoint reclaims the log, off the clock.
func BenchmarkShipLog(b *testing.B) {
	s := New(Config{
		Mode:            ModeESM,
		PoolPages:       64,
		LogCapacity:     64 << 20,
		LockTimeout:     time.Second,
		CheckpointEvery: 1 << 30,
	})
	defer s.Close()
	sn := s.NewSession(nil, nil)
	pid, _ := createPage(b, sn, []byte("shipped"))
	img, _ := makePage(b, pid, []byte("shipped"))
	begin := func() logrec.TID {
		tid := sn.Begin()
		if err := sn.Lock(tid, pid, lock.Exclusive); err != nil {
			b.Fatal(err)
		}
		return tid
	}
	tid := begin()
	data := shipPage(tid, pid)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%1000 == 0 {
			b.StopTimer()
			if err := sn.ShipPage(tid, pid, img); err != nil {
				b.Fatal(err)
			}
			if err := sn.Commit(tid); err != nil {
				b.Fatal(err)
			}
			if err := sn.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			tid = begin()
			b.StartTimer()
		}
		if err := sn.ShipLog(tid, data); err != nil {
			b.Fatal(err)
		}
	}
}
