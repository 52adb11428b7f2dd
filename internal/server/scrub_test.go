package server

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/faultinject"
	"repro/internal/lock"
	"repro/internal/page"
)

// newChecksummedServer returns a server over a checksummed in-memory volume
// plus the raw store underneath it (for injecting damage below the
// envelope).
func newChecksummedServer(t *testing.T, mode Mode, cfg Config) (*Server, *Session, *disk.MemStore) {
	t.Helper()
	mem := disk.NewMemStore()
	cfg.Mode = mode
	cfg.Store = disk.NewChecksummed(mem)
	if cfg.PoolPages == 0 {
		cfg.PoolPages = 16
	}
	if cfg.LogCapacity == 0 {
		cfg.LogCapacity = 16 << 20
	}
	if cfg.LockTimeout == 0 {
		cfg.LockTimeout = time.Second
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 1 << 30
	}
	s := New(cfg)
	return s, s.NewSession(nil, nil), mem
}

// TestScrubRepairsRotFromLiveLog rots a flushed page below the envelope and
// checks one scrub pass detects it, repairs it byte-identically from the
// live log, and reports it — then that a second pass finds nothing.
func TestScrubRepairsRotFromLiveLog(t *testing.T) {
	for _, mode := range []Mode{ModeESM, ModeREDO, ModeWPL} {
		t.Run(mode.String(), func(t *testing.T) {
			s, sn, mem := newChecksummedServer(t, mode, Config{})
			defer s.Close()
			pid, slot := createPage(t, sn, []byte("integrity"))
			if err := sn.FlushAll(); err != nil {
				t.Fatal(err)
			}
			var pristine [page.Size]byte
			if err := mem.ReadPage(pid, pristine[:]); err != nil {
				t.Fatal(err)
			}
			if _, err := faultinject.RotPage(mem, pid, 11); err != nil {
				t.Fatal(err)
			}
			rep, err := sn.Scrub(0)
			if err != nil {
				t.Fatalf("scrub: %v", err)
			}
			if rep.Failures != 1 || rep.Repaired != 1 || rep.Unrepairable != 0 {
				t.Fatalf("scrub report: %+v, want one repaired failure", rep)
			}
			var healed [page.Size]byte
			if err := mem.ReadPage(pid, healed[:]); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pristine[:], healed[:]) {
				t.Fatal("repaired page is not byte-identical to the pristine copy")
			}
			if got := readObject(t, sn, pid, slot, len("integrity")); string(got) != "integrity" {
				t.Fatalf("object after repair = %q", got)
			}
			rep, err = sn.Scrub(0)
			if err != nil || rep.Failures != 0 {
				t.Fatalf("second scrub: %+v, %v, want clean", rep, err)
			}
			if st := s.Stats(); st.ChecksumFailures < 1 || st.PagesRepaired < 1 {
				t.Fatalf("stats: failures=%d repaired=%d", st.ChecksumFailures, st.PagesRepaired)
			}
		})
	}
	// Every page the scrubber or restart reads from the volume counts in
	// DataReads, as a demand fetch does.
	t.Run("counts-reads", func(t *testing.T) {
		s, sn, _ := newChecksummedServer(t, ModeESM, Config{})
		defer s.Close()
		for i := 0; i < 5; i++ {
			createPage(t, sn, []byte("counted"))
		}
		if err := sn.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		before := s.Stats()
		rep, err := sn.Scrub(0)
		if err != nil || rep.Failures != 0 {
			t.Fatalf("scrub: %+v, %v, want clean", rep, err)
		}
		if d := s.Stats().DataReads - before.DataReads; d != rep.Scanned || d != 6 {
			t.Fatalf("scrub of the superblock and 5 pages: DataReads +%d, scanned %d, want 6", d, rep.Scanned)
		}
		s.Crash()
		before = s.Stats()
		if err := sn.Restart(); err != nil {
			t.Fatal(err)
		}
		if d := s.Stats().DataReads - before.DataReads; d < 1 {
			t.Fatalf("restart: DataReads +%d, want at least the superblock's read", d)
		}
	})
}

// TestDemandReadRepairsCorruptPage rots a page and reads it through the
// normal transaction path: the fetch must heal it transparently.
func TestDemandReadRepairsCorruptPage(t *testing.T) {
	s, sn, mem := newChecksummedServer(t, ModeESM, Config{PoolPages: 4})
	defer s.Close()
	pid, slot := createPage(t, sn, []byte("demand"))
	// Push the page out of the pool so the next read hits the store. The
	// creation image stays in the log (no checkpoint truncates it), so the
	// repair source is per-page live-log redo, not a pooled frame.
	for i := 0; i < 8; i++ {
		createPage(t, sn, []byte("filler"))
	}
	if err := sn.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := faultinject.RotPage(mem, pid, 23); err != nil {
		t.Fatal(err)
	}
	if got := readObject(t, sn, pid, slot, len("demand")); string(got) != "demand" {
		t.Fatalf("read through corrupt page = %q", got)
	}
	if st := s.Stats(); st.PagesRepaired < 1 {
		t.Fatalf("demand read did not repair: %+v", st)
	}
}

// TestUnrepairableFailsTyped makes a page unrepairable (fresh log, no
// archive, empty pool) and checks both the demand read and the scrub fail
// with errors wrapping both sentinels.
func TestUnrepairableFailsTyped(t *testing.T) {
	s, sn, mem := newChecksummedServer(t, ModeESM, Config{})
	defer s.Close()
	pid, slot := createPage(t, sn, []byte("doomed"))
	if err := sn.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A second server over the same volume with a fresh empty log: the
	// creation image is gone and nothing can rebuild the page.
	s2 := New(Config{
		Mode:        ModeESM,
		Store:       s.cfg.Store,
		PoolPages:   16,
		LogCapacity: 16 << 20,
		LockTimeout: time.Second,
	})
	defer s2.Close()
	sn2 := s2.NewSession(nil, nil)
	if err := sn2.Restart(); err != nil {
		t.Fatal(err)
	}
	if _, err := faultinject.RotPage(mem, pid, 31); err != nil {
		t.Fatal(err)
	}
	tid := sn2.Begin()
	_, err := readPage(sn2, tid, pid, lock.Shared)
	if !errors.Is(err, disk.ErrCorruptPage) || !errors.Is(err, ErrUnrepairable) {
		t.Fatalf("demand read: err = %v, want ErrCorruptPage and ErrUnrepairable", err)
	}
	sn2.Abort(tid)
	rep, err := sn2.Scrub(0)
	if !errors.Is(err, disk.ErrCorruptPage) || !errors.Is(err, ErrUnrepairable) {
		t.Fatalf("scrub: err = %v, want both sentinels", err)
	}
	if rep.Unrepairable != 1 {
		t.Fatalf("scrub report: %+v, want one unrepairable page", rep)
	}
	_ = slot
}

// TestBackgroundScrubberUnderConcurrentCommits runs the paced scrubber
// against a live commit workload (run with -race in CI): sessions commit on
// several goroutines while the scrubber verifies the volume and repairs a
// page rotted mid-run.
func TestBackgroundScrubberUnderConcurrentCommits(t *testing.T) {
	// A large pool and no checkpoint truncation keep the rotted page
	// repairable (pooled frame or live-log creation image) while the
	// workload churns.
	s, sn, mem := newChecksummedServer(t, ModeESM, Config{
		ScrubEvery: time.Millisecond,
		PoolPages:  256,
	})
	defer s.Close()
	pid, slot := createPage(t, sn, []byte("scrubbed"))
	if err := sn.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := faultinject.RotPage(mem, pid, 5); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wsn := s.NewSession(nil, nil)
			for i := 0; i < 25; i++ {
				createPage(t, wsn, []byte("worker"))
			}
		}(w)
	}
	wg.Wait()
	// Let the scrubber cover the volume at least once (bounded wait).
	for i := 0; i < 5000 && s.Stats().PagesRepaired == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if st := s.Stats(); st.ScrubScanned == 0 || st.PagesRepaired == 0 {
		t.Fatalf("scrubber never repaired the rotted page: %+v", st)
	}
	if got := readObject(t, sn, pid, slot, len("scrubbed")); string(got) != "scrubbed" {
		t.Fatalf("object after background repair = %q", got)
	}
}

// TestMasterRecordHasOneRepairPath damages page 0 twice: once found by the
// scrubber, once by a restart with nothing else to write home. Both go
// through repairShardLocked, which writes the rebuilt master record through
// writeSuperblockLocked: each repair counts one checksum failure and one
// repaired page, and neither counts a data-page write.
func TestMasterRecordHasOneRepairPath(t *testing.T) {
	for _, mode := range []Mode{ModeESM, ModeREDO, ModeWPL} {
		t.Run(mode.String(), func(t *testing.T) {
			s, sn, mem := newChecksummedServer(t, mode, Config{})
			defer s.Close()
			pid, slot := createPage(t, sn, []byte("master"))
			if err := sn.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			var pristine [page.Size]byte
			if err := mem.ReadPage(superblockPage, pristine[:]); err != nil {
				t.Fatal(err)
			}
			oneRepair := func(how string, before Stats) {
				t.Helper()
				st := s.Stats()
				if d := st.ChecksumFailures - before.ChecksumFailures; d != 1 {
					t.Errorf("%s: %d checksum failures, want 1", how, d)
				}
				if d := st.PagesRepaired - before.PagesRepaired; d != 1 {
					t.Errorf("%s: %d pages repaired, want 1", how, d)
				}
				if d := st.DataWrites - before.DataWrites; d != 0 {
					t.Errorf("%s: %d data-page writes, want 0 (page 0 is not a data page)", how, d)
				}
			}

			if _, err := faultinject.RotPage(mem, superblockPage, 5); err != nil {
				t.Fatal(err)
			}
			before := s.Stats()
			rep, err := sn.Scrub(0)
			if err != nil || rep.Failures != 1 || rep.Repaired != 1 {
				t.Fatalf("scrub: %+v, %v, want one repaired failure", rep, err)
			}
			oneRepair("scrub", before)
			var healed [page.Size]byte
			if err := mem.ReadPage(superblockPage, healed[:]); err != nil {
				t.Fatal(err)
			}
			if healed != pristine {
				t.Fatal("the scrubber's repaired master record differs from the pristine one")
			}

			s.Crash()
			if err := faultinject.TearPage(mem, superblockPage, 1); err != nil {
				t.Fatal(err)
			}
			before = s.Stats()
			if err := sn.Restart(); err != nil {
				t.Fatalf("restart over a torn master record: %v", err)
			}
			oneRepair("restart", before)
			if got := readObject(t, sn, pid, slot, len("master")); string(got) != "master" {
				t.Fatalf("object after restart = %q", got)
			}
		})
	}
}
