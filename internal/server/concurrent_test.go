package server

// Concurrency tests for the session gate, sharded pool, group commit and the
// async WPL installer. All of them are run under the race detector by make
// check.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/lock"
	"repro/internal/logrec"
	"repro/internal/page"
)

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
	data, err := sn.ReadPage(tid, pid, lock.Exclusive)
	if err != nil {
		return err
	}
	pg := page.Wrap(data)
	old := make([]byte, len(newVal))
	if err := pg.ReadAt(slot, 0, old); err != nil {
		return err
	}
	off, err := pg.ObjectOffset(slot)
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

// TestGroupCommitBatchesConcurrentCommits checks the heart of the tentpole:
// with a modeled log-device latency, concurrent committers share stable
// flushes, so the log is forced fewer times than there are commits.
func TestGroupCommitBatchesConcurrentCommits(t *testing.T) {
	s := New(Config{
		Mode:            ModeESM,
		PoolPages:       64,
		LogCapacity:     16 << 20,
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

	s.Log().SetWriteDelay(100 * time.Microsecond) // give groups time to form
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
	s.Log().SetWriteDelay(0)
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

// TestWPLAsyncInstaller covers the background installer: commits return
// before their pages are installed, the installer catches up, and the
// installed state is what recovery reproduces.
func TestWPLAsyncInstaller(t *testing.T) {
	s := New(Config{
		Mode:            ModeWPL,
		PoolPages:       64,
		LogCapacity:     16 << 20,
		LockTimeout:     time.Second,
		CheckpointEvery: 1 << 30,
		WPLInstallAsync: true,
	})
	defer s.Close()
	sn := s.NewSession(nil, nil)
	const pages = 6
	var pids [pages]page.ID
	var slots [pages]int
	for i := range pids {
		pids[i], slots[i] = createPage(t, sn, []byte(fmt.Sprintf("page %d......", i)))
		updateObject(t, sn, pids[i], slots[i], []byte(fmt.Sprintf("updated %d...", i)), true)
	}
	// Installs drain asynchronously; wait for the WPL table to empty.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.wplMu.Lock()
		pending := len(s.wpl)
		s.wplMu.Unlock()
		if pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("async installer never drained: %d pages still pending", pending)
		}
		time.Sleep(time.Millisecond)
	}
	s.Crash()
	if err := sn.Restart(); err != nil {
		t.Fatal(err)
	}
	for i := range pids {
		want := fmt.Sprintf("updated %d...", i)
		got := readObject(t, sn, pids[i], slots[i], len(want))
		if string(got) != want {
			t.Errorf("page %d: got %q want %q", i, got, want)
		}
	}
}
