package server

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/lock"
	"repro/internal/logrec"
	"repro/internal/page"
)

// writebackPool is the pool size of the write-back tests: one shard, so
// reading writebackPool other pages is certain to evict the page under test.
const writebackPool = 8

func newWritebackServer(mode Mode, store disk.Store) (*Server, *Session) {
	s := New(Config{
		Mode:            mode,
		Store:           store,
		PoolPages:       writebackPool,
		PoolShards:      1,
		LogCapacity:     16 << 20,
		LockTimeout:     time.Second,
		CheckpointEvery: 1 << 30,
	})
	return s, s.NewSession(nil, nil)
}

// evict pushes every page but others out of the one-shard pool by reading
// others, and reports whether pid is gone. The reading transaction is left
// open: its commit would force the log, which is the one thing that must not
// happen between the eviction and the crash.
func evict(t *testing.T, s *Server, sn *Session, pid page.ID, others []page.ID) bool {
	t.Helper()
	tid := sn.Begin()
	for _, o := range others {
		if _, err := readPage(sn, tid, o, lock.Shared); err != nil {
			t.Fatal(err)
		}
	}
	sh := s.pool.Lock(pid)
	defer sh.Unlock()
	return sh.Peek(pid) == nil
}

// TestWriteAheadHoldsForStraddlingRecord is the regression for the
// write-ahead hole: ShipLog's ForceFull parks the stable end on an 8 KB
// boundary inside the newest record of an uncommitted update, and the page
// then leaves the pool — by eviction or through the cleaner. A write-ahead
// test on the record's START lets the image go home with the record still
// volatile; the crash trims the record and restart has nothing to undo.
func TestWriteAheadHoldsForStraddlingRecord(t *testing.T) {
	oldVal := bytes.Repeat([]byte{'o'}, 512)
	newVal := bytes.Repeat([]byte{'n'}, 512)
	recSize := uint64(logrec.HeaderSize + len(oldVal) + len(newVal))
	for _, mode := range []Mode{ModeESM, ModeREDO} {
		for _, via := range []string{"eviction", "cleaner"} {
			t.Run(fmt.Sprintf("%v/%s", mode, via), func(t *testing.T) {
				s, sn := newWritebackServer(mode, nil)
				pid, slot := createPage(t, sn, oldVal)
				var others []page.ID
				for i := 0; i < writebackPool; i++ {
					o, _ := createPage(t, sn, []byte("other"))
					others = append(others, o)
				}
				padPID, padSlot := createPage(t, sn, []byte("pad....."))
				if err := sn.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				// Pad with small commits until the update record, appended
				// next, starts below an 8 KB log-page boundary and ends above.
				for i := 0; ; i++ {
					if room := page.Size - s.log.End()%page.Size; room < recSize {
						break
					}
					if i > page.Size/logrec.HeaderSize {
						t.Fatal("padding never reached a log-page boundary")
					}
					updateObject(t, sn, padPID, padSlot, []byte(fmt.Sprintf("pad%05d", i)), true)
				}
				start := s.log.End()
				updateObject(t, sn, pid, slot, newVal, false)
				if stable, end := s.log.StableEnd(), s.log.End(); !(start < stable && stable < end) {
					t.Fatalf("record [%d,%d) does not straddle the stable end %d", start, end, stable)
				}
				if s.log.Stable(start) {
					t.Fatal("a record with a volatile tail reported stable")
				}

				if via == "eviction" {
					if !evict(t, s, sn, pid, others) {
						t.Fatal("the page under test was not evicted")
					}
				} else if n, err := sn.Clean(1 << 30); err != nil || n == 0 {
					t.Fatalf("Clean wrote %d pages, err %v", n, err)
				}

				s.Crash()
				if err := sn.Restart(); err != nil {
					t.Fatal(err)
				}
				if got := readObject(t, sn, pid, slot, len(oldVal)); !bytes.Equal(got, oldVal) {
					t.Fatalf("uncommitted update survived the crash: object reads %q...", got[:8])
				}
			})
		}
	}
}

// stableProbe is a store that reports the log's stable end at each write.
type stableProbe struct {
	disk.Store
	onWrite func(pid page.ID)
}

func (p *stableProbe) WritePage(id page.ID, data []byte) error {
	p.onWrite(id)
	return p.Store.WritePage(id, data)
}

// TestWPLInstallWaitsForCommitRecord is the WPL twin: a copy is marked
// committed with its commit record's append, before the force, and an evictor
// that finds it in that window must make the commit record stable before the
// copy reaches its permanent location.
func TestWPLInstallWaitsForCommitRecord(t *testing.T) {
	probe := &stableProbe{Store: disk.NewMemStore(), onWrite: func(page.ID) {}}
	s, sn := newWritebackServer(ModeWPL, probe)
	pid, slot := createPage(t, sn, []byte("old!"))
	var others []page.ID
	for i := 0; i < writebackPool; i++ {
		o, _ := createPage(t, sn, []byte("other"))
		others = append(others, o)
	}
	// Ship a new copy and stop the commit between the commit record's append
	// (with the committed marking) and its force.
	updateObject(t, sn, pid, slot, []byte("new!"), false)
	s.attMu.Lock()
	var tx *txn
	for _, cand := range s.att {
		tx = cand
	}
	c := logrec.NewCommit(tx.tid)
	c.PrevLSN = tx.lastLSN
	_, err := s.log.Append(c)
	commitEnd := c.LSN + uint64(c.EncodedSize())
	s.wplMu.Lock()
	wplMarkCommitted(s.wpl, tx, commitEnd)
	s.wplMu.Unlock()
	s.attMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if s.log.StableEnd() >= commitEnd {
		t.Fatal("the commit record is already stable; the window is closed")
	}
	installs := 0
	probe.onWrite = func(id page.ID) {
		if id != pid {
			return
		}
		installs++
		if stable := s.log.StableEnd(); stable < commitEnd {
			t.Errorf("copy installed with its commit record volatile: stable end %d < commit end %d", stable, commitEnd)
		}
	}
	if !evict(t, s, sn, pid, others) {
		t.Fatal("the page under test was not evicted")
	}
	if installs != 1 {
		t.Fatalf("eviction installed the committed copy %d times, want 1", installs)
	}
}
