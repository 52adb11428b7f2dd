package wal

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"repro/internal/logrec"
	"repro/internal/page"
)

func upd(tid logrec.TID, pg page.ID, n int) *logrec.Record {
	b := bytes.Repeat([]byte{1}, n)
	a := bytes.Repeat([]byte{2}, n)
	return logrec.NewUpdate(tid, pg, 0, b, a)
}

// testDev is a memory ring a test can fault: while clamp is set its Sync
// gets no further than cut. It counts the syncs and head writes asked of it.
type testDev struct {
	Ring
	clamp bool
	cut   uint64
	syncs int
	heads int
}

func (d *testDev) Sync(from, to uint64) uint64 {
	d.syncs++
	if d.clamp {
		return d.cut
	}
	return to
}

func (d *testDev) SetHead(uint64) bool { d.heads++; return true }

// newTestLog opens a log of the given capacity on a fresh testDev.
func newTestLog(capacity int) (*Log, *testDev) {
	d := &testDev{Ring: make(Ring, capacity)}
	return Open(d, capacity, FirstLSN, FirstLSN), d
}

func TestAppendAssignsSequentialLSNs(t *testing.T) {
	l := New(1 << 20)
	r1 := upd(1, 10, 8)
	r2 := upd(1, 11, 8)
	lsn1, err := l.Append(r1)
	if err != nil {
		t.Fatal(err)
	}
	lsn2, err := l.Append(r2)
	if err != nil {
		t.Fatal(err)
	}
	if lsn1 != FirstLSN {
		t.Fatalf("first LSN = %d, want %d", lsn1, FirstLSN)
	}
	if lsn2 != FirstLSN+uint64(r1.EncodedSize()) {
		t.Fatalf("second LSN = %d, want %d", lsn2, r1.EncodedSize())
	}
}

func TestForceAndReadAt(t *testing.T) {
	l := New(1 << 20)
	r := upd(7, 42, 16)
	lsn, _ := l.Append(r)
	// Unforced records are readable (they live in the log buffer) …
	if _, err := l.ReadAt(lsn, nil); err != nil {
		t.Fatalf("read of unforced record: %v", err)
	}
	// … but do not survive a crash (TestCrashDropsVolatileTail).
	if n := l.Force(); n != 1 {
		t.Fatalf("force wrote %d pages, want 1", n)
	}
	got, err := l.ReadAt(lsn, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.TID != 7 || got.Page != 42 || !bytes.Equal(got.Before, r.Before) {
		t.Fatalf("read back %v", got)
	}
	if n := l.Force(); n != 0 {
		t.Fatalf("idle force wrote %d pages", n)
	}
}

// TestReadAtReusesScratch checks that reads into one scratch buffer decode
// the same records as reads that own their payload, and that a warm buffer
// is not reallocated.
func TestReadAtReusesScratch(t *testing.T) {
	l := New(1 << 20)
	lsn1, _ := l.Append(upd(1, 10, 64))
	lsn2, _ := l.Append(upd(2, 20, 32))
	var scratch []byte
	for _, lsn := range []uint64{lsn1, lsn2, lsn1} {
		want, err := l.ReadAt(lsn, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := l.ReadAt(lsn, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		if got.TID != want.TID || got.Page != want.Page || !bytes.Equal(got.Before, want.Before) || !bytes.Equal(got.After, want.After) {
			t.Fatalf("LSN %d: scratch read %v, owned read %v", lsn, got, want)
		}
	}
	// One allocation remains: the Record itself.
	if n := testing.AllocsPerRun(100, func() { l.ReadAt(lsn1, &scratch) }); n > 1 {
		t.Errorf("ReadAt into a warm scratch: %.0f allocs, want <= 1", n)
	}
}

func TestCrashDropsVolatileTail(t *testing.T) {
	l := New(1 << 20)
	l.Append(upd(1, 1, 8))
	l.Force()
	stable := l.StableEnd()
	l.Append(upd(1, 2, 8))
	l.Crash()
	if l.End() != stable {
		t.Fatalf("end %d after crash, want %d", l.End(), stable)
	}
	count := 0
	l.Scan(l.Head(), func(*logrec.Record) bool { count++; return true })
	if count != 1 {
		t.Fatalf("%d records survive crash, want 1", count)
	}
}

func TestScanOrderAndEarlyStop(t *testing.T) {
	l := New(1 << 20)
	var lsns []uint64
	for i := 0; i < 10; i++ {
		lsn, _ := l.Append(upd(logrec.TID(i), page.ID(i), 8))
		lsns = append(lsns, lsn)
	}
	l.Force()
	var seen []uint64
	l.Scan(l.Head(), func(r *logrec.Record) bool {
		seen = append(seen, r.LSN)
		return true
	})
	if len(seen) != 10 {
		t.Fatalf("scanned %d records", len(seen))
	}
	for i := range seen {
		if seen[i] != lsns[i] {
			t.Fatalf("scan order: %v vs %v", seen, lsns)
		}
	}
	// Scan from the middle.
	var tail []uint64
	l.Scan(lsns[5], func(r *logrec.Record) bool {
		tail = append(tail, r.LSN)
		return true
	})
	if len(tail) != 5 || tail[0] != lsns[5] {
		t.Fatalf("mid scan: %v", tail)
	}
	// Early stop.
	n := 0
	l.Scan(l.Head(), func(r *logrec.Record) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("early stop scanned %d", n)
	}
}

func TestTruncateReclaimsSpace(t *testing.T) {
	l := New(8192) // fits three ~2 KB records
	var lsns []uint64
	// Fill close to capacity.
	for i := 0; ; i++ {
		lsn, err := l.Append(upd(1, page.ID(i), 1000))
		if err != nil {
			break
		}
		lsns = append(lsns, lsn)
	}
	if len(lsns) < 2 {
		t.Fatalf("only %d records fit", len(lsns))
	}
	l.Force()
	if _, err := l.Append(upd(1, 99, 1000)); err == nil {
		t.Fatal("append into full log succeeded")
	}
	if err := l.Truncate(lsns[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(upd(1, 99, 1000)); err != nil {
		t.Fatalf("append after truncate: %v", err)
	}
	// The reclaimed record is no longer readable.
	if _, err := l.ReadAt(lsns[0], nil); err == nil {
		t.Fatal("read of truncated record succeeded")
	}
}

func TestWrapAround(t *testing.T) {
	// Capacity fits ~3 records; repeatedly append+truncate to force the ring
	// to wrap and verify data integrity across the boundary.
	l := New(1024)
	var prev uint64
	for i := 0; i < 100; i++ {
		r := upd(logrec.TID(i), page.ID(i), 100)
		lsn, err := l.Append(r)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		l.Force()
		got, err := l.ReadAt(lsn, nil)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if got.TID != logrec.TID(i) || !bytes.Equal(got.After, r.After) {
			t.Fatalf("iteration %d: corrupt read across wrap", i)
		}
		if i > 0 {
			l.Truncate(prev)
		}
		prev = lsn
	}
}

// TestOpenOnNonEmptyRing: Open over a ring that already holds records from
// head on keeps every whole record below end — the one across the ring's
// wrap point included — trims a record that end cuts, and appends from where
// the last whole record ends.
func TestOpenOnNonEmptyRing(t *testing.T) {
	const capacity = 1024
	head := uint64(3*capacity - 200) // the second record spans the wrap point
	ring := make(Ring, capacity)
	var ends []uint64
	for i, lsn := 0, head; i < 5; i++ {
		r := upd(logrec.TID(i+1), page.ID(i+1), 40)
		r.LSN = lsn
		b := r.Encode(nil)
		ring.WriteAt(b, lsn)
		lsn += uint64(len(b))
		ends = append(ends, lsn)
	}
	scanEnds := func(l *Log) []uint64 {
		var got []uint64
		if err := l.Scan(l.Head(), func(r *logrec.Record) bool {
			got = append(got, r.LSN+uint64(r.EncodedSize()))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	for _, tc := range []struct {
		name string
		end  uint64
		keep int // whole records below end
	}{
		{"end on a record boundary", ends[4], 5},
		{"end inside a record", ends[4] - 1, 4},
		{"end inside the record across the wrap point", ends[1] - 10, 1},
		{"end at the head", head, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := append([]uint64(nil), ends[:tc.keep]...)
			trimmed := head
			if tc.keep > 0 {
				trimmed = ends[tc.keep-1]
			}
			l := Open(slices.Clone(ring), capacity, head, tc.end)
			if l.Head() != head || l.End() != trimmed || l.StableEnd() != trimmed {
				t.Fatalf("opened [%d, %d) stable to %d, want [%d, %d) all stable",
					l.Head(), l.End(), l.StableEnd(), head, trimmed)
			}
			if got := scanEnds(l); !slices.Equal(got, want) {
				t.Fatalf("scan read records ending at %v, want %v", got, want)
			}
			r := upd(9, 9, 40)
			lsn, err := l.Append(r)
			if err != nil || lsn != trimmed {
				t.Fatalf("append at %d (%v), want the trimmed end %d", lsn, err, trimmed)
			}
			l.Force()
			want = append(want, trimmed+uint64(r.EncodedSize()))
			if got := scanEnds(l); !slices.Equal(got, want) {
				t.Fatalf("after an append, scan read records ending at %v, want %v", got, want)
			}
		})
	}
}

func TestForcePageAccounting(t *testing.T) {
	l := New(1 << 20)
	// ~52+2048*2 = 4148 bytes: two of them span pages 0 and 1.
	l.Append(upd(1, 1, 2048))
	l.Append(upd(1, 2, 2048))
	n := l.Force()
	if n != 2 {
		t.Fatalf("first force wrote %d pages, want 2", n)
	}
	// A tiny record on the already partially-written page 1 rewrites it.
	l.Append(logrec.NewCommit(1))
	if n := l.Force(); n != 1 {
		t.Fatalf("tail force wrote %d pages, want 1", n)
	}
	if l.PagesWritten() != 3 {
		t.Fatalf("cumulative pages = %d", l.PagesWritten())
	}
	if l.Forces() != 2 {
		t.Fatalf("forces = %d", l.Forces())
	}
}

// TestNothingToFlushSyncsNothing: a force with nothing above the stable end
// asks the device for nothing, whichever way it comes.
func TestNothingToFlushSyncsNothing(t *testing.T) {
	l, dev := newTestLog(1 << 20)
	l.Force()
	lsn, _ := l.Append(upd(1, 1, 64))
	end := l.End()
	if n := l.ForceFull(); n != 0 || dev.syncs != 0 {
		t.Fatalf("ForceFull of a partial page wrote %d pages in %d syncs", n, dev.syncs)
	}
	l.Force()
	l.Force()
	l.ForceFull()
	l.CommitWait(end)
	l.CommitWait(lsn)
	if dev.syncs != 1 || l.Forces() != 1 {
		t.Fatalf("%d syncs, %d forces for one flush", dev.syncs, l.Forces())
	}
	if g := l.GroupStats(); g.Commits != 2 || g.FlushesAvoided != 2 || g.Batches != 0 {
		t.Fatalf("group stats %+v for two commits already stable", g)
	}
}

func TestPagesInRange(t *testing.T) {
	cases := []struct {
		from, to uint64
		want     int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, page.Size, 1},
		{0, page.Size + 1, 2},
		{page.Size - 1, page.Size + 1, 2},
		{page.Size, 2 * page.Size, 1},
		{10, 10, 0},
	}
	for _, c := range cases {
		if got := PagesInRange(c.from, c.to); got != c.want {
			t.Errorf("PagesInRange(%d,%d) = %d, want %d", c.from, c.to, got, c.want)
		}
	}
}

func TestTruncateValidation(t *testing.T) {
	l := New(1 << 20)
	l.Append(upd(1, 1, 8))
	l.Force()
	end := l.StableEnd()
	if err := l.Truncate(end); err != nil {
		t.Fatal(err)
	}
	if err := l.Truncate(end - 1); err == nil {
		t.Fatal("backward truncate succeeded")
	}
	l.Append(upd(1, 2, 8))
	if err := l.Truncate(l.End()); err == nil {
		t.Fatal("truncate past stable end succeeded")
	}
}

// BenchmarkAppend reports per-record allocations on the append path — the
// sync.Pool of encode buffers is what keeps allocs/op flat (the staging
// buffer is recycled instead of allocated per record).
func BenchmarkAppend(b *testing.B) {
	l := New(64 << 20)
	r := upd(1, 1, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(r); err != nil {
			// Ring full: reclaim everything stable and continue.
			b.StopTimer()
			l.Force()
			if terr := l.Truncate(l.StableEnd()); terr != nil {
				b.Fatal(terr)
			}
			b.StartTimer()
			if _, err := l.Append(r); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func TestForceFullLeavesPartialTail(t *testing.T) {
	l := New(1 << 20)
	// ~4148-byte record: less than half a log page.
	l.Append(upd(1, 1, 2048))
	if n := l.ForceFull(); n != 0 {
		t.Fatalf("ForceFull flushed %d pages with only a partial page pending", n)
	}
	// Second record crosses the first page boundary.
	l.Append(upd(1, 2, 2048))
	if n := l.ForceFull(); n != 1 {
		t.Fatalf("ForceFull flushed %d pages, want 1", n)
	}
	// The remainder flushes with a normal force.
	if n := l.Force(); n != 1 {
		t.Fatalf("Force flushed %d pages, want the partial tail (1)", n)
	}
}

// TestStableLooksAtTheRecordEnd pins the write-ahead test: a record is stable
// only when its last byte is, wherever ForceFull parked the stable end.
func TestStableLooksAtTheRecordEnd(t *testing.T) {
	l := New(1 << 20)
	first, _ := l.Append(upd(1, 1, 2048))
	second, _ := l.Append(upd(1, 2, 2048)) // crosses the first 8 KB boundary
	l.ForceFull()
	if stable := l.StableEnd(); !(second < stable && stable < l.End()) {
		t.Fatalf("stable end %d does not fall inside the second record [%d,%d)", stable, second, l.End())
	}
	for lsn, want := range map[uint64]bool{
		0:           true,  // a page no record describes
		first:       true,  // wholly below the stable end
		second:      false, // starts below it, ends above
		l.End():     false, // nothing there yet
		l.End() * 2: false,
	} {
		if got := l.Stable(lsn); got != want {
			t.Errorf("Stable(%d) = %v, want %v", lsn, got, want)
		}
	}
	l.Force()
	if !l.Stable(second) {
		t.Error("a forced record is not stable")
	}
	if err := l.Truncate(second); err != nil {
		t.Fatal(err)
	}
	if !l.Stable(first) {
		t.Error("a reclaimed record is not stable")
	}
}

func TestTornRecordStopsScanAfterCrash(t *testing.T) {
	l := New(1 << 20)
	lsn1, _ := l.Append(upd(1, 1, 5000)) // spans into page 1... (record > 8 KB with header+images)
	l.ForceFull()                        // flushes only the full pages: tears the record
	l.Crash()                            // drops the rest
	count := 0
	if err := l.Scan(l.Head(), func(r *logrec.Record) bool {
		count++
		return true
	}); err != nil {
		t.Fatalf("scan over torn tail errored: %v", err)
	}
	if count != 0 {
		t.Fatalf("scanned %d records from a torn log", count)
	}
	// ReadAt of the torn record reports ErrTorn (or beyond-end).
	if _, err := l.ReadAt(lsn1, nil); err == nil {
		t.Fatal("read of torn record succeeded")
	}
}

func TestUsedAndCapacity(t *testing.T) {
	l := New(1 << 20)
	if l.Used() != 0 {
		t.Fatalf("fresh log used = %d", l.Used())
	}
	if l.Capacity() != 1<<20 {
		t.Fatalf("capacity = %d", l.Capacity())
	}
	r := upd(1, 1, 100)
	l.Append(r)
	if l.Used() != uint64(r.EncodedSize()) {
		t.Fatalf("used = %d, want %d", l.Used(), r.EncodedSize())
	}
	l.Force()
	l.Truncate(l.StableEnd())
	if l.Used() != 0 {
		t.Fatalf("used after truncate = %d", l.Used())
	}
}

// TestDeviceSyncClampsStableEnd: a device whose Sync gets nowhere holds the
// stable end back entirely, and once it syncs again flushing is normal.
func TestDeviceSyncClampsStableEnd(t *testing.T) {
	l, dev := newTestLog(1 << 20)
	dev.clamp, dev.cut = true, 0 // clamped up to flushed
	lsn, _ := l.Append(upd(1, 1, 64))
	if n := l.Force(); n != 0 {
		t.Fatalf("frozen force wrote %d pages", n)
	}
	if l.StableEnd() != lsn {
		t.Fatalf("stable end moved to %d under a frozen device", l.StableEnd())
	}
	dev.clamp = false
	if n := l.Force(); n != 1 {
		t.Fatalf("force after the device thawed wrote %d pages, want 1", n)
	}
	if l.StableEnd() != l.End() {
		t.Fatalf("stable end %d != end %d after force", l.StableEnd(), l.End())
	}
}

// TestTornRecordAcrossWrapPoint is the regression test for a torn record
// spanning the circular log's wrap point: its surviving prefix sits at the
// end of the ring and its lost tail would have landed at the start. Crash
// must seal the log at the record's start so that (a) the scan sees a clean
// end of log and (b) post-restart appends begin on a whole-record boundary —
// previously a second crash left a stale header followed by new bytes, which
// a scan read as mid-log corruption.
func TestTornRecordAcrossWrapPoint(t *testing.T) {
	const cap = 4 * page.Size
	l, dev := newTestLog(cap)

	// March the log end toward the wrap point, reclaiming as we go.
	filler := upd(1, 1, 700)
	wrap := upd(2, 2, 1000)
	wrapSize := uint64(wrap.EncodedSize())
	for l.End()%cap+wrapSize <= cap {
		if _, err := l.Append(filler); err != nil {
			t.Fatal(err)
		}
		l.Force()
		if err := l.Truncate(l.StableEnd()); err != nil {
			t.Fatal(err)
		}
	}

	lsn, err := l.Append(wrap)
	if err != nil {
		t.Fatal(err)
	}
	if lsn%cap+wrapSize <= cap {
		t.Fatalf("test construction: record at %d (ring %d, %d bytes) does not wrap",
			lsn, lsn%cap, wrapSize)
	}

	// Injected partial write: the flush stops mid-record, past the header.
	cut := lsn + logrec.HeaderSize + 100
	dev.clamp, dev.cut = true, cut
	l.Force()
	dev.clamp = false
	if l.StableEnd() != cut {
		t.Fatalf("stable end = %d, want cut %d", l.StableEnd(), cut)
	}

	l.Crash()
	if l.End() != lsn || l.StableEnd() != lsn {
		t.Fatalf("crash sealed log at end=%d stable=%d, want torn record start %d",
			l.End(), l.StableEnd(), lsn)
	}
	count := 0
	if err := l.Scan(l.Head(), func(*logrec.Record) bool { count++; return true }); err != nil {
		t.Fatalf("scan over wrapped torn tail errored: %v", err)
	}
	if count != 0 {
		t.Fatalf("scanned %d records past a wrapped torn tail", count)
	}

	// Appends after restart reuse the reclaimed space from a record boundary;
	// a second crash must leave a scannable log containing the new record.
	r2 := upd(3, 3, 16)
	lsn2, err := l.Append(r2)
	if err != nil {
		t.Fatal(err)
	}
	if lsn2 != lsn {
		t.Fatalf("post-crash append at %d, want sealed boundary %d", lsn2, lsn)
	}
	l.Force()
	l.Crash()
	var got []*logrec.Record
	if err := l.Scan(l.Head(), func(r *logrec.Record) bool { got = append(got, r.Clone()); return true }); err != nil {
		t.Fatalf("scan after second crash errored: %v", err)
	}
	if len(got) != 1 || got[0].TID != 3 || got[0].Page != 3 {
		t.Fatalf("scan after second crash read %d records %v, want the one post-crash record", len(got), got)
	}
}

// TestScanDoesNotAllocatePerRecord: both scans decode their whole window into
// one record over one buffer, so what a scan allocates does not depend on how
// many records it reads.
func TestScanDoesNotAllocatePerRecord(t *testing.T) {
	logOf := func(n int) *Log {
		l := New(1 << 20)
		for i := 0; i < n; i++ {
			if _, err := l.Append(upd(logrec.TID(i), page.ID(i%7), 16)); err != nil {
				t.Fatal(err)
			}
		}
		l.Force()
		return l
	}
	scans := map[string]func(l *Log, fn func(*logrec.Record) bool) error{
		"Scan": func(l *Log, fn func(*logrec.Record) bool) error { return l.Scan(l.Head(), fn) },
		"ScanFrom": func(l *Log, fn func(*logrec.Record) bool) error {
			_, err := l.ScanFrom(l.Head(), fn)
			return err
		},
	}
	for name, scan := range scans {
		perScan := func(n int) float64 {
			l := logOf(n)
			seen := 0
			allocs := testing.AllocsPerRun(20, func() {
				seen = 0
				if err := scan(l, func(r *logrec.Record) bool { seen += len(r.After); return true }); err != nil {
					t.Fatal(err)
				}
			})
			if seen == 0 {
				t.Fatalf("%s over %d records read nothing", name, n)
			}
			return allocs
		}
		if few, many := perScan(10), perScan(1000); many != few {
			t.Errorf("%s allocates %.0f times over 10 records and %.0f over 1000", name, few, many)
		}
	}
}

// TestAppendRunMatchesAppends: a run appended in one AppendRun leaves the
// same log — the same LSNs, PrevLSN chain and bytes, across the ring's wrap
// point too — as its records appended one by one with the chain set by hand;
// a run that does not fit appends nothing and leaves the records untouched.
func TestAppendRunMatchesAppends(t *testing.T) {
	const capacity = 2048
	run := func() []logrec.Record {
		var recs []logrec.Record
		for i, n := range []int{8, 100, 0, 37, 64} {
			recs = append(recs, *upd(5, page.ID(10+i%2), n))
		}
		return recs
	}
	one, many := New(capacity), New(capacity)
	for round := 0; round < 12; round++ {
		prev := uint64(round) // any chain head
		recs := run()
		first, err := one.AppendRun(recs, prev)
		if err != nil {
			t.Fatalf("round %d: AppendRun: %v", round, err)
		}
		for i, r := range run() {
			r.PrevLSN = prev
			lsn, err := many.Append(&r)
			if err != nil {
				t.Fatalf("round %d: Append: %v", round, err)
			}
			if lsn != recs[i].LSN || recs[i].PrevLSN != prev || (i == 0 && lsn != first) {
				t.Fatalf("round %d record %d: run gave LSN %d prev %d, appends %d prev %d",
					round, i, recs[i].LSN, recs[i].PrevLSN, lsn, prev)
			}
			prev = lsn
		}
		one.Force()
		many.Force()
		if !bytes.Equal(one.dev.(Ring), many.dev.(Ring)) || one.End() != many.End() {
			t.Fatalf("round %d: logs differ", round)
		}
		if err := one.Truncate(first); err != nil {
			t.Fatal(err)
		}
		if err := many.Truncate(first); err != nil {
			t.Fatal(err)
		}
	}

	l := New(capacity)
	if _, err := l.Append(upd(1, 1, 700)); err != nil {
		t.Fatal(err)
	}
	end, recs := l.End(), run()
	recs = append(recs, *upd(5, 12, 300))
	if _, err := l.AppendRun(recs, 7); !errors.Is(err, ErrFull) {
		t.Fatalf("AppendRun past capacity = %v, want ErrFull", err)
	}
	if l.End() != end {
		t.Fatalf("a refused run moved the end from %d to %d", end, l.End())
	}
	for i := range recs {
		if recs[i].LSN != 0 || recs[i].PrevLSN != 0 {
			t.Fatalf("a refused run stamped record %d: LSN %d prev %d", i, recs[i].LSN, recs[i].PrevLSN)
		}
	}
}
