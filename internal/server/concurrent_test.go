package server

// Concurrency tests for the session gate, sharded pool, group commit and
// inline WPL installs racing eviction. All of them are run under the race
// detector by make check.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/lock"
	"repro/internal/logrec"
	"repro/internal/page"
	"repro/internal/wal"
)

// slowRing is a memory log device whose every Sync takes delay: a log disk
// slow enough for concurrent commits to group behind each sync.
type slowRing struct {
	wal.Ring
	delay time.Duration
}

func (r slowRing) Sync(from, to uint64) uint64 {
	time.Sleep(r.delay)
	return to
}

// slowLog opens an empty log of capacity bytes on a slowRing.
func slowLog(capacity int, delay time.Duration) *wal.Log {
	return wal.Open(slowRing{make(wal.Ring, capacity), delay}, capacity, wal.FirstLSN, wal.FirstLSN)
}

// workerCreate is createPage without *testing.T, for use inside goroutines.
func workerCreate(sn *Session, contents []byte) (page.ID, int, error) {
	tid := sn.Begin()
	pid, err := sn.AllocPage(tid)
	if err != nil {
		return 0, 0, err
	}
	pg := page.New(pid)
	slot, err := pg.Allocate(len(contents))
	if err != nil {
		return 0, 0, err
	}
	pg.WriteAt(slot, 0, contents)
	switch sn.s.cfg.Mode {
	case ModeWPL:
		err = sn.ShipPage(tid, pid, pg.Bytes())
	case ModeREDO:
		err = sn.ShipLog(tid, logrec.NewPageImage(tid, pid, pg.Bytes()).Encode(nil))
	default:
		if err = sn.ShipLog(tid, logrec.NewPageImage(tid, pid, pg.Bytes()).Encode(nil)); err == nil {
			err = sn.ShipPage(tid, pid, pg.Bytes())
		}
	}
	if err != nil {
		return 0, 0, err
	}
	return pid, slot, sn.Commit(tid)
}

// workerUpdate is updateObject without *testing.T, for use inside goroutines.
func workerUpdate(sn *Session, pid page.ID, slot int, newVal []byte) error {
	tid := sn.Begin()
	data, err := readPage(sn, tid, pid, lock.Exclusive)
	if err != nil {
		return err
	}
	pg := page.Wrap(data)
	old := make([]byte, len(newVal))
	if err := pg.ReadAt(slot, 0, old); err != nil {
		return err
	}
	off, _, err := pg.ObjectRange(slot)
	if err != nil {
		return err
	}
	pg.WriteAt(slot, 0, newVal)
	if sn.s.cfg.Mode == ModeWPL {
		if err := sn.ShipPage(tid, pid, pg.Bytes()); err != nil {
			return err
		}
	} else {
		if err := sn.ShipLog(tid, logrec.NewUpdate(tid, pid, off, old, newVal).Encode(nil)); err != nil {
			return err
		}
		if sn.s.cfg.Mode == ModeESM {
			if err := sn.ShipPage(tid, pid, pg.Bytes()); err != nil {
				return err
			}
		}
	}
	return sn.Commit(tid)
}

// TestConcurrentSessionsDistinctPages drives independent sessions in
// parallel, each over its own pages, through every mode. The point is the
// race detector and the absence of cross-session interference.
func TestConcurrentSessionsDistinctPages(t *testing.T) {
	for _, mode := range []Mode{ModeESM, ModeREDO, ModeWPL} {
		t.Run(mode.String(), func(t *testing.T) {
			s := New(Config{
				Mode:            mode,
				PoolPages:       64,
				LogCapacity:     16 << 20,
				LockTimeout:     time.Second,
				CheckpointEvery: 1 << 30,
			})
			defer s.Close()
			const workers, txns = 4, 8
			errs := make([]error, workers)
			var wg sync.WaitGroup
			finals := make([][]byte, workers)
			pids := make([]page.ID, workers)
			slots := make([]int, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					sn := s.NewSession(nil, nil)
					pid, slot, err := workerCreate(sn, []byte(fmt.Sprintf("worker %d....", w)))
					if err != nil {
						errs[w] = err
						return
					}
					pids[w], slots[w] = pid, slot
					for i := 0; i < txns; i++ {
						finals[w] = []byte(fmt.Sprintf("w%d turn %04d", w, i))
						if err := workerUpdate(sn, pid, slot, finals[w]); err != nil {
							errs[w] = err
							return
						}
					}
				}(w)
			}
			wg.Wait()
			for w, err := range errs {
				if err != nil {
					t.Fatalf("worker %d: %v", w, err)
				}
			}
			sn := s.NewSession(nil, nil)
			for w := 0; w < workers; w++ {
				got := readObject(t, sn, pids[w], slots[w], len(finals[w]))
				if !bytes.Equal(got, finals[w]) {
					t.Errorf("worker %d page: got %q want %q", w, got, finals[w])
				}
			}
		})
	}
}

// TestGroupCommitBatchesConcurrentCommits checks group commit: on a log
// whose every sync takes 100 µs, concurrent committers share stable
// flushes, so the log is forced fewer times than there are commits.
func TestGroupCommitBatchesConcurrentCommits(t *testing.T) {
	s := New(Config{
		Mode:            ModeESM,
		PoolPages:       64,
		Log:             slowLog(16<<20, 100*time.Microsecond),
		LockTimeout:     time.Second,
		CheckpointEvery: 1 << 30,
	})
	defer s.Close()
	const workers, txns = 8, 10

	// Serial setup: one private page per worker.
	pids := make([]page.ID, workers)
	slots := make([]int, workers)
	setup := s.NewSession(nil, nil)
	for w := range pids {
		pids[w], slots[w] = createPage(t, setup, []byte(fmt.Sprintf("worker %d....", w)))
	}

	before := s.ExtendedStats()
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sn := s.NewSession(nil, nil)
			for i := 0; i < txns; i++ {
				if err := workerUpdate(sn, pids[w], slots[w], []byte(fmt.Sprintf("w%d turn %04d", w, i))); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	after := s.ExtendedStats()

	commits := after.Commits - before.Commits
	forces := after.LogForces - before.LogForces
	avoided := after.GroupCommit.FlushesAvoided - before.GroupCommit.FlushesAvoided
	if commits != workers*txns {
		t.Fatalf("commits = %d, want %d", commits, workers*txns)
	}
	if forces >= commits {
		t.Errorf("log forced %d times for %d commits: no batching happened", forces, commits)
	}
	if avoided == 0 {
		t.Errorf("FlushesAvoided = 0, want > 0 (commits=%d forces=%d)", commits, forces)
	}

	// The batched commits must still be durable.
	s.Crash()
	sn := s.NewSession(nil, nil)
	if err := sn.Restart(); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		want := fmt.Sprintf("w%d turn %04d", w, txns-1)
		got := readObject(t, sn, pids[w], slots[w], len(want))
		if string(got) != want {
			t.Errorf("worker %d after crash: got %q want %q", w, got, want)
		}
	}
}

// workerUpdatePages overwrites the object in slots[i] of pids[i] with val
// for every page in one WPL transaction, and commits it.
func workerUpdatePages(sn *Session, pids []page.ID, slots []int, val []byte) error {
	tid := sn.Begin()
	for i, pid := range pids {
		data, err := readPage(sn, tid, pid, lock.Exclusive)
		if err != nil {
			return err
		}
		pg := page.Wrap(data)
		if err := pg.WriteAt(slots[i], 0, val); err != nil {
			return err
		}
		if err := sn.ShipPage(tid, pid, pg.Bytes()); err != nil {
			return err
		}
	}
	return sn.Commit(tid)
}

// checkInstalled reports whether each of pids has left the WPL table and
// holds val in its slot at its permanent location — in the store, not only
// the pool.
func checkInstalled(s *Server, pids []page.ID, slots []int, val []byte) error {
	buf := make([]byte, page.Size)
	got := make([]byte, len(val))
	for i, pid := range pids {
		s.wplMu.Lock()
		e := s.wpl[pid]
		s.wplMu.Unlock()
		if e != nil {
			return fmt.Errorf("page %v still in the WPL table (committed=%v)", pid, e.committed)
		}
		if err := s.store.ReadPage(pid, buf); err != nil {
			return err
		}
		if err := page.Wrap(buf).ReadAt(slots[i], 0, got); err != nil {
			return err
		}
		if !bytes.Equal(got, val) {
			return fmt.Errorf("page %v in the store: got %q want %q", pid, got, val)
		}
	}
	return nil
}

// TestWPLInlineInstall covers the WPL install schedule: by the time Commit
// returns, the committer has installed every page its transaction heads, so
// the table holds no committed entry and the store has the new bytes. Two
// sessions over a pool smaller than their pages make commit installs race
// eviction installs (an evictor may install a copy between its committed
// marking and the committer's install); either way each page is installed
// once, and restart reproduces the installed state.
func TestWPLInlineInstall(t *testing.T) {
	s := New(Config{
		Mode:            ModeWPL,
		PoolPages:       8,
		LogCapacity:     16 << 20,
		LockTimeout:     time.Second,
		CheckpointEvery: 1 << 30,
	})
	defer s.Close()
	const workers, perWorker, txns = 2, 6, 8
	pids := make([][]page.ID, workers)
	slots := make([][]int, workers)
	setup := s.NewSession(nil, nil)
	for w := range pids {
		pids[w] = make([]page.ID, perWorker)
		slots[w] = make([]int, perWorker)
		for i := range pids[w] {
			pids[w][i], slots[w][i] = createPage(t, setup, []byte(fmt.Sprintf("w%d page %d...", w, i)))
		}
	}

	// Alone, a commit installs exactly its transaction's pages.
	before := s.Stats().WPLInstalls
	if err := workerUpdatePages(setup, pids[0], slots[0], []byte("serial turn.")); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().WPLInstalls - before; got != perWorker {
		t.Errorf("WPLInstalls rose by %d at commit, want %d", got, perWorker)
	}
	if err := checkInstalled(s, pids[0], slots[0], []byte("serial turn.")); err != nil {
		t.Fatal(err)
	}

	// Concurrently, each commit's pages are installed — by the committer or
	// by an evictor — before Commit returns.
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sn := s.NewSession(nil, nil)
			for i := 0; i < txns; i++ {
				val := []byte(fmt.Sprintf("w%d turn %04d", w, i))
				before := s.Stats().WPLInstalls
				if err := workerUpdatePages(sn, pids[w], slots[w], val); err != nil {
					errs[w] = err
					return
				}
				if got := s.Stats().WPLInstalls - before; got < perWorker {
					errs[w] = fmt.Errorf("turn %d: WPLInstalls rose by %d at commit, want >= %d", i, got, perWorker)
					return
				}
				if err := checkInstalled(s, pids[w], slots[w], val); err != nil {
					errs[w] = fmt.Errorf("turn %d: %w", i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	s.wplMu.Lock()
	for pid, e := range s.wpl {
		if e.committed {
			t.Errorf("page %v: committed copy left in the WPL table", pid)
		}
	}
	s.wplMu.Unlock()

	s.Crash()
	sn := s.NewSession(nil, nil)
	if err := sn.Restart(); err != nil {
		t.Fatal(err)
	}
	for w := range pids {
		want := fmt.Sprintf("w%d turn %04d", w, txns-1)
		for i, pid := range pids[w] {
			if got := readObject(t, sn, pid, slots[w][i], len(want)); string(got) != want {
				t.Errorf("worker %d page %v after restart: got %q want %q", w, pid, got, want)
			}
		}
	}
}
