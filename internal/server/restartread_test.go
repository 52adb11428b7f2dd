package server

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/faultinject"
	"repro/internal/page"
)

// countingStore counts the reads that reach the volume.
type countingStore struct {
	disk.Store
	reads atomic.Int64
}

func (c *countingStore) ReadPage(id page.ID, buf []byte) error {
	c.reads.Add(1)
	return c.Store.ReadPage(id, buf)
}

// newCountedServer returns a server over a checksummed in-memory volume that
// counts its reads, plus the raw store under the envelope (for rotting pages).
func newCountedServer(mode Mode) (*Server, *Session, *countingStore, *disk.MemStore) {
	mem := disk.NewMemStore()
	cs := &countingStore{Store: mem}
	s := New(Config{Mode: mode, Store: disk.NewChecksummed(cs), PoolPages: 16,
		LogCapacity: 16 << 20, LockTimeout: time.Second, CheckpointEvery: 1 << 30})
	return s, s.NewSession(nil, nil), cs, mem
}

// pinLog keeps every record of s's log from here on, as an archiver that has
// fallen behind would: a page's creation image stays in the live log across
// checkpoints, so a rotted copy can be rebuilt from it.
func pinLog(s *Server) { s.log.Hold("test-pin", s.log.Head(), nil, 0) }

// TestRestartReadsOnlyWhatItRecovers: with n pages checkpointed and k of them
// updated since, Restart reads the superblock and the k pages the pass
// replays onto, not the volume.
func TestRestartReadsOnlyWhatItRecovers(t *testing.T) {
	const n, k = 40, 3
	for _, mode := range []Mode{ModeESM, ModeREDO, ModeWPL} {
		t.Run(mode.String(), func(t *testing.T) {
			s, sn, cs, _ := newCountedServer(mode)
			defer s.Close()
			var pids [n]page.ID
			var slots [n]int
			for i := range pids {
				pids[i], slots[i] = createPage(t, sn, []byte(fmt.Sprintf("page %02d", i)))
			}
			if err := sn.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < k; i++ {
				updateObject(t, sn, pids[i], slots[i], []byte(fmt.Sprintf("new  %02d", i)), true)
			}
			s.Crash()
			cs.reads.Store(0)
			if err := sn.Restart(); err != nil {
				t.Fatal(err)
			}
			if got := cs.reads.Load(); got > k+1 {
				t.Errorf("restart read %d pages of a %d-page volume, want at most %d (the superblock and the updated pages)", got, n, k+1)
			}
			for i := range pids {
				want := fmt.Sprintf("page %02d", i)
				if i < k {
					want = fmt.Sprintf("new  %02d", i)
				}
				if got := readObject(t, sn, pids[i], slots[i], len(want)); string(got) != want {
					t.Errorf("%v reads %q after restart, want %q", pids[i], got, want)
				}
			}
		})
	}
}

// TestRestartRepairsRotOnThePass: a page rotted on the volume that a record
// in the window updates is repaired where the pass reads it, from its
// creation image in the live log, and redo goes on over the repaired copy.
func TestRestartRepairsRotOnThePass(t *testing.T) {
	for _, mode := range []Mode{ModeESM, ModeREDO} {
		t.Run(mode.String(), func(t *testing.T) {
			s, sn, _, mem := newCountedServer(mode)
			defer s.Close()
			pinLog(s)
			pid, slot := createPage(t, sn, []byte("before"))
			if err := sn.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			updateObject(t, sn, pid, slot, []byte("after!"), true)
			s.Crash()
			if _, err := faultinject.RotPage(mem, pid, 5); err != nil {
				t.Fatal(err)
			}
			before := s.Stats().PagesRepaired
			if err := sn.Restart(); err != nil {
				t.Fatalf("restart over a rotted page the pass replays onto: %v", err)
			}
			if got := s.Stats().PagesRepaired - before; got != 1 {
				t.Errorf("restart repaired %d pages, want 1", got)
			}
			if got := readObject(t, sn, pid, slot, len("after!")); string(got) != "after!" {
				t.Errorf("repaired page reads %q, want %q", got, "after!")
			}
		})
	}
}

// TestRestartLeavesRotOutsideTheWindow: a page rotted on the volume that
// nothing in the window touches is not read by Restart, so not repaired
// there; the first demand read repairs it.
func TestRestartLeavesRotOutsideTheWindow(t *testing.T) {
	for _, mode := range []Mode{ModeESM, ModeREDO, ModeWPL} {
		t.Run(mode.String(), func(t *testing.T) {
			s, sn, _, mem := newCountedServer(mode)
			defer s.Close()
			pinLog(s)
			pid, slot := createPage(t, sn, []byte("latent"))
			other, oslot := createPage(t, sn, []byte("busy.."))
			if err := sn.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			updateObject(t, sn, other, oslot, []byte("moved."), true)
			s.Crash()
			if _, err := faultinject.RotPage(mem, pid, 9); err != nil {
				t.Fatal(err)
			}
			before := s.Stats().PagesRepaired
			if err := sn.Restart(); err != nil {
				t.Fatalf("restart over a rotted page outside the window: %v", err)
			}
			if got := s.Stats().PagesRepaired - before; got != 0 {
				t.Errorf("restart repaired %d pages, want 0", got)
			}
			if got := readObject(t, sn, pid, slot, len("latent")); string(got) != "latent" {
				t.Errorf("rotted page reads %q after its demand read, want %q", got, "latent")
			}
			if got := s.Stats().PagesRepaired - before; got != 1 {
				t.Errorf("the demand read repaired %d pages, want 1", got)
			}
		})
	}
}
