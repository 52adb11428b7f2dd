package wal

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/logrec"
	"repro/internal/page"
)

// filled returns a log holding n forced records and their LSNs, plus the
// stable end as a last, (n+1)th boundary.
func filled(t *testing.T, n int) (*Log, []uint64) {
	t.Helper()
	l := New(1 << 20)
	var lsns []uint64
	for i := 0; i < n; i++ {
		lsn, err := l.Append(upd(1, page.ID(i+1), 64))
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	l.Force()
	return l, append(lsns, l.StableEnd())
}

// TestRetentionOneRule is the table for the single retention rule: Truncate
// moves the head to the lowest of its argument and every registered holder,
// after asking the holders that can catch up to do so.
func TestRetentionOneRule(t *testing.T) {
	const target = 5 // index into the boundaries; every case truncates to it
	type catchUp int
	const (
		none   catchUp = iota
		reach          // catch-up moves the holder to the target
		short          // catch-up moves the holder one record forward only
		broken         // catch-up returns an error and moves nothing
	)
	type hold struct {
		name    string
		at      int // boundary index of the position
		catchUp catchUp
		release bool // Release before truncating
	}
	cases := []struct {
		name  string
		holds []hold // registered in order; a repeated name re-registers
		want  int    // boundary index the head must land on
	}{
		{"no holders", nil, target},
		{"one below", []hold{{"a", 2, none, false}}, 2},
		{"one at", []hold{{"a", target, none, false}}, target},
		{"one above", []hold{{"a", 7, none, false}}, target},
		{"one at the head: clamped to nothing", []hold{{"a", 0, none, false}}, 0},
		{"two: the lowest wins", []hold{{"a", 4, none, false}, {"b", 1, none, false}}, 1},
		{"three: below, at, above", []hold{{"a", 3, none, false}, {"b", target, none, false}, {"c", 8, none, false}}, 3},
		{"released holder no longer counts", []hold{{"a", 1, none, true}, {"b", 4, none, false}}, 4},
		{"all released", []hold{{"a", 1, none, true}, {"b", 2, none, true}}, target},
		{"re-registering a name replaces the holder", []hold{{"a", 1, none, false}, {"a", 4, none, false}}, 4},
		{"re-registering lower replaces too", []hold{{"a", 4, none, false}, {"b", 6, none, false}, {"a", 2, none, false}}, 2},
		{"catch-up reaches the target", []hold{{"a", 1, reach, false}}, target},
		{"catch-up falls short: advance as far as it got", []hold{{"a", 1, short, false}}, 2},
		{"catch-up errors: the holder still pins", []hold{{"a", 1, broken, false}}, 1},
		{"catch-up reaches, another holder pins", []hold{{"a", 1, reach, false}, {"b", 3, none, false}}, 3},
		{"holder above the target is not asked", []hold{{"a", 6, broken, false}}, target},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, at := filled(t, 8)
			stableEvents := 0
			l.SetTruncateGate(func() bool { stableEvents++; return true })
			live := map[string]*Holder{}
			for _, spec := range tc.holds {
				spec := spec
				var h *Holder
				var fn func(uint64) error
				switch spec.catchUp {
				case reach:
					// Set takes the log mutex: this deadlocks unless Truncate
					// released it before calling.
					fn = func(to uint64) error { h.Set(to); return nil }
				case short:
					fn = func(uint64) error { h.Set(at[spec.at+1]); return nil }
				case broken:
					fn = func(uint64) error { return errors.New("archive unavailable") }
				}
				if spec.catchUp != none && spec.at >= target {
					fn = func(uint64) error { t.Error("catch-up asked of a holder not behind the target"); return nil }
				}
				h = l.Hold(spec.name, at[spec.at], fn, 0)
				live[spec.name] = h
				if spec.release {
					h.Release()
					h.Release() // idempotent
					delete(live, spec.name)
				}
			}
			if err := l.Truncate(at[target]); err != nil {
				t.Fatal(err)
			}
			head := l.Head()
			if head != at[tc.want] {
				t.Fatalf("head = %d, want boundary %d (%d)", head, tc.want, at[tc.want])
			}
			snap := l.Holders()
			if snap.Head != head || snap.StableEnd != l.StableEnd() || len(snap.Holders) != len(live) {
				t.Fatalf("snapshot %+v: want head %d, %d holders", snap, head, len(live))
			}
			for _, held := range snap.Holders {
				if live[held.Name] == nil {
					t.Errorf("snapshot names %q, which is not registered", held.Name)
				}
				if head > held.LSN {
					t.Errorf("head %d passed holder %q at %d", head, held.Name, held.LSN)
				}
			}
			// The head is a record boundary: the retained log scans from it.
			if err := l.Scan(head, func(*logrec.Record) bool { return true }); err != nil {
				t.Fatalf("scan from head: %v", err)
			}
			// Moving the head is one stable event; a truncation clamped to
			// nothing never attempts the head-pointer write.
			wantEvents := 0
			if tc.want > 0 {
				wantEvents = 1
			}
			if stableEvents != wantEvents {
				t.Errorf("%d truncate-gate calls, want %d", stableEvents, wantEvents)
			}
			// What survives a crash is the log, not who was holding it.
			clone := l.CrashClone(l.StableEnd())
			if n := len(clone.Holders().Holders); n != 0 {
				t.Errorf("CrashClone carries %d holders", n)
			}
			if err := clone.Truncate(at[8]); err != nil || clone.Head() != at[8] {
				t.Errorf("clone truncation held back: head %d, err %v", clone.Head(), err)
			}
		})
	}
}

// TestCatchUpHonoursAllowance: the commit path's CatchUp asks only holders
// further behind the stable end than their allowance, and asks them to reach
// the stable end.
func TestCatchUpHonoursAllowance(t *testing.T) {
	l, at := filled(t, 8)
	end := at[8]
	var asked []uint64
	h := l.Hold("archive", at[6], func(to uint64) error { asked = append(asked, to); return nil }, end-at[6])
	l.Hold("standby", at[0], nil, 0) // cannot catch up: never asked, never a panic
	l.CatchUp()
	if len(asked) != 0 {
		t.Fatalf("asked at exactly the allowance: %v", asked)
	}
	h.Set(at[5])
	l.CatchUp()
	if len(asked) != 1 || asked[0] != end {
		t.Fatalf("asked %v, want one request to reach %d", asked, end)
	}
}

// TestSetRacesTruncate moves a holder forward record by record while another
// goroutine truncates to the stable end as fast as it can: at no instant may
// the head be above the holder. Run under -race.
func TestSetRacesTruncate(t *testing.T) {
	l, at := filled(t, 200)
	h := l.Hold("standby", at[0], nil, 0)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, lsn := range at {
			h.Set(lsn)
		}
	}()
	done := make(chan struct{})
	go func() {
		defer wg.Done()
		defer close(done)
		for l.Head() < at[len(at)-1] {
			if err := l.Truncate(l.StableEnd()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for {
		snap := l.Holders() // head and holder read under one lock acquisition
		if snap.Head > snap.Holders[0].LSN {
			t.Fatalf("head %d passed the holder at %d", snap.Head, snap.Holders[0].LSN)
		}
		select {
		case <-done:
			wg.Wait()
			return
		default:
		}
	}
}

// TestStartAt: an empty log continues its LSN space at start, its holders
// along with it, and behaves from there exactly like NewAt's; a log that
// holds records, or a start below the head, is refused and left alone.
func TestStartAt(t *testing.T) {
	const start = 5 << 20
	l := New(1 << 20)
	h := l.Hold("redo", l.Head(), nil, 0)
	if err := l.StartAt(start); err != nil {
		t.Fatal(err)
	}
	if r := l.Holders(); r.Head != start || r.StableEnd != start || r.Holders[0].LSN != start || l.End() != start {
		t.Fatalf("after StartAt(%d): %+v, end %d", start, r, l.End())
	}
	lsn, err := l.Append(upd(1, 1, 64))
	if err != nil || lsn != start {
		t.Fatalf("first append at %d (%v), want %d", lsn, err, start)
	}
	l.Force()
	if rec, err := l.ReadAt(start); err != nil || rec.LSN != start {
		t.Fatalf("ReadAt(%d): %v, %v", start, rec, err)
	}
	if err := l.Truncate(l.StableEnd()); err != nil || l.Head() != start {
		t.Fatalf("holder at %d did not pin the head: head %d, %v", start, l.Head(), err)
	}
	h.Release()

	if err := l.StartAt(2 * start); err == nil {
		t.Error("a log holding a record was re-based")
	}
	if err := New(1 << 20).StartAt(FirstLSN - 1); err == nil {
		t.Error("an empty log was re-based below its head")
	}
	if l.Head() != start || l.End() == 2*start {
		t.Errorf("a refused StartAt moved the log: head %d end %d", l.Head(), l.End())
	}
}
