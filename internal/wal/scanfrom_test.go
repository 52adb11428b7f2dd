package wal

import (
	"errors"
	"testing"

	"repro/internal/logrec"
)

// TestScanFromResumesAtStableEnd: ScanFrom delivers only records wholly
// stable, returns the boundary to resume at, and a later call from that
// boundary picks up exactly the records forced since.
func TestScanFromResumesAtStableEnd(t *testing.T) {
	l := New(1 << 20)
	var lsns []uint64
	for i := 0; i < 3; i++ {
		lsn, err := l.Append(upd(1, 1, 16))
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	l.Force()
	stable := l.StableEnd()
	// A volatile record past the stable end must not be shipped.
	l.Append(upd(1, 2, 16))

	var got []uint64
	resume, err := l.ScanFrom(FirstLSN, nil, func(r *logrec.Record) bool {
		got = append(got, r.LSN)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != lsns[0] || got[2] != lsns[2] {
		t.Fatalf("delivered %v, want %v", got, lsns)
	}
	if resume != stable {
		t.Fatalf("resume = %d, want stable end %d", resume, stable)
	}

	// Force the tail; resuming from the returned LSN delivers just it.
	l.Force()
	got = got[:0]
	resume2, err := l.ScanFrom(resume, nil, func(r *logrec.Record) bool {
		got = append(got, r.LSN)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != stable {
		t.Fatalf("resumed delivery %v, want [%d]", got, stable)
	}
	if resume2 != l.StableEnd() {
		t.Fatalf("resume2 = %d, want %d", resume2, l.StableEnd())
	}
}

// TestScanFromAcrossWrap: a shipper following the tail keeps working as the
// circular log wraps, because LSNs never wrap even though ring positions do.
func TestScanFromAcrossWrap(t *testing.T) {
	const capacity = 64 << 10
	l := New(capacity)
	cursor := FirstLSN
	var shipped []uint64
	drain := func() {
		resume, err := l.ScanFrom(cursor, nil, func(r *logrec.Record) bool {
			shipped = append(shipped, r.LSN)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		cursor = resume
	}
	var appended []uint64
	for i := 0; i < 200; i++ { // ~200 * ~550 bytes >> capacity: several wraps
		lsn, err := l.Append(upd(1, 1, 256))
		if err != nil {
			t.Fatal(err)
		}
		appended = append(appended, lsn)
		l.Force()
		drain()
		// Reclaim behind the shipper so the ring never fills.
		if err := l.Truncate(cursor); err != nil {
			t.Fatal(err)
		}
	}
	if len(shipped) != len(appended) {
		t.Fatalf("shipped %d records, want %d", len(shipped), len(appended))
	}
	for i := range shipped {
		if shipped[i] != appended[i] {
			t.Fatalf("record %d shipped at LSN %d, want %d", i, shipped[i], appended[i])
		}
	}
	if cursor <= uint64(capacity) {
		t.Fatalf("cursor %d never wrapped the %d-byte ring", cursor, capacity)
	}
}

// TestScanFromTruncationRace: if the head passes the shipper's cursor (no
// gate held it back), resuming reports ErrTruncated instead of silently
// skipping records — the caller must re-bootstrap from the archive.
func TestScanFromTruncationRace(t *testing.T) {
	l := New(1 << 20)
	var lsns []uint64
	for i := 0; i < 4; i++ {
		lsn, _ := l.Append(upd(1, 1, 16))
		lsns = append(lsns, lsn)
	}
	l.Force()
	// Truncate mid-scan, from inside the callback: ScanFrom holds no lock
	// while fn runs, which is exactly the window the race needs.
	calls := 0
	resume, err := l.ScanFrom(FirstLSN, nil, func(r *logrec.Record) bool {
		calls++
		if calls == 1 {
			if terr := l.Truncate(lsns[3]); terr != nil {
				t.Fatal(terr)
			}
		}
		return true
	})
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if calls != 1 {
		t.Fatalf("%d callbacks before the race was detected, want 1", calls)
	}
	if resume != lsns[1] {
		t.Fatalf("resume = %d, want %d", resume, lsns[1])
	}
	// A fresh call below the head reports the same thing immediately.
	if _, err := l.ScanFrom(lsns[1], nil, func(*logrec.Record) bool { return true }); !errors.Is(err, ErrTruncated) {
		t.Fatalf("resumed scan err = %v, want ErrTruncated", err)
	}
}

// TestScanFromMidBatchCut: when the durability boundary falls inside a record
// (a clamped group flush — the mid-batch cut), ScanFrom stops before the
// partial record and resumes cleanly once a later flush completes it.
func TestScanFromMidBatchCut(t *testing.T) {
	l := New(1 << 20)
	lsn1, _ := l.Append(upd(1, 1, 16))
	r2 := upd(1, 2, 16)
	lsn2, _ := l.Append(r2)

	for _, cut := range []uint64{
		lsn2 + 4,                     // inside the second record's header
		lsn2 + logrec.HeaderSize + 1, // header stable, payload torn
	} {
		cut := cut
		l.SetFlushLimiter(func(proposed uint64) uint64 { return cut })
		l.Force()
		var got []uint64
		resume, err := l.ScanFrom(lsn1, nil, func(r *logrec.Record) bool {
			got = append(got, r.LSN)
			return true
		})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(got) != 1 || got[0] != lsn1 {
			t.Fatalf("cut %d: delivered %v, want [%d]", cut, got, lsn1)
		}
		if resume != lsn2 {
			t.Fatalf("cut %d: resume = %d, want %d", cut, resume, lsn2)
		}
	}

	l.SetFlushLimiter(nil)
	l.Force()
	var got []uint64
	resume, err := l.ScanFrom(lsn2, nil, func(r *logrec.Record) bool {
		got = append(got, r.LSN)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != lsn2 {
		t.Fatalf("after full flush delivered %v, want [%d]", got, lsn2)
	}
	if want := lsn2 + uint64(r2.EncodedSize()); resume != want {
		t.Fatalf("resume = %d, want %d", resume, want)
	}
}

// TestScanFromCancel: a closed cancel channel stops the scan before any
// callback; the resume LSN marks where it stopped so nothing is lost.
func TestScanFromCancel(t *testing.T) {
	l := New(1 << 20)
	l.Append(upd(1, 1, 16))
	l.Force()
	cancel := make(chan struct{})
	close(cancel)
	resume, err := l.ScanFrom(FirstLSN, cancel, func(*logrec.Record) bool {
		t.Fatal("callback ran after cancel")
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if resume != FirstLSN {
		t.Fatalf("resume = %d, want %d", resume, FirstLSN)
	}
}

// TestScanFromEarlyStop: fn returning false stops after the current record
// and the resume LSN points just past it — stop-and-resume loses nothing.
func TestScanFromEarlyStop(t *testing.T) {
	l := New(1 << 20)
	r1 := upd(1, 1, 16)
	lsn1, _ := l.Append(r1)
	lsn2, _ := l.Append(upd(1, 2, 16))
	l.Force()
	calls := 0
	resume, err := l.ScanFrom(lsn1, nil, func(*logrec.Record) bool {
		calls++
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("%d callbacks, want 1", calls)
	}
	if resume != lsn2 {
		t.Fatalf("resume = %d, want %d", resume, lsn2)
	}
}
