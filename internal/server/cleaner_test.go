package server

// Tests for the background page cleaner and fuzzy checkpoints (DESIGN.md
// §13). The concurrency tests here are run under the race detector by
// `make race-cleaner`: a paced cleaner plus a fuzzy checkpointer racing
// committing sessions is exactly the interleaving the latch order has to
// survive.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/page"
)

// TestCleanerConcurrentWithCommits runs the paced background cleaner and a
// fuzzy checkpointer concurrently with committing sessions over a wide
// dirty set, then crashes and restarts to prove the pages the cleaner wrote
// home (and the DPT entries it retired) never cost a committed update.
func TestCleanerConcurrentWithCommits(t *testing.T) {
	for _, mode := range []Mode{ModeESM, ModeREDO} {
		t.Run(mode.String(), func(t *testing.T) {
			s := New(Config{
				Mode:             mode,
				PoolPages:        64,
				LogCapacity:      16 << 20,
				LockTimeout:      time.Second,
				CheckpointEvery:  1 << 30, // driven explicitly below
				FuzzyCheckpoints: true,
				CleanerEvery:     500 * time.Microsecond,
				CleanerBatch:     8,
				DirtyPageTarget:  4,
			})
			defer s.Close()
			// A group-commit delay keeps the run long enough for the paced
			// worker to tick, and the per-worker page fan-out keeps the DPT
			// backlog above the target so those ticks actually clean.
			s.log.SetGroupCommitDelay(200 * time.Microsecond)

			const workers, pagesPer, txns = 4, 6, 30
			errs := make([]error, workers)
			finals := make([][][]byte, workers)
			pids := make([][]page.ID, workers)
			slots := make([][]int, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				finals[w] = make([][]byte, pagesPer)
				pids[w] = make([]page.ID, pagesPer)
				slots[w] = make([]int, pagesPer)
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					sn := s.NewSession(nil, nil)
					for j := 0; j < pagesPer; j++ {
						pid, slot, err := workerCreate(sn, []byte(fmt.Sprintf("w%d page %04d", w, j)))
						if err != nil {
							errs[w] = err
							return
						}
						pids[w][j], slots[w][j] = pid, slot
						finals[w][j] = []byte(fmt.Sprintf("w%d page %04d", w, j))
					}
					for i := 0; i < txns; i++ {
						j := i % pagesPer
						finals[w][j] = []byte(fmt.Sprintf("w%d turn %04d", w, i))
						if err := workerUpdate(sn, pids[w][j], slots[w][j], finals[w][j]); err != nil {
							errs[w] = err
							return
						}
					}
				}(w)
			}
			// Fuzzy checkpoints race the workers and the cleaner; none of
			// them may block commits for the duration of a flush.
			ckpt := s.NewSession(nil, nil)
			stop := make(chan struct{})
			var ckptWG sync.WaitGroup
			ckptWG.Add(1)
			go func() {
				defer ckptWG.Done()
				for {
					select {
					case <-stop:
						return
					default:
						if err := ckpt.Checkpoint(); err != nil {
							t.Errorf("fuzzy checkpoint: %v", err)
							return
						}
						time.Sleep(200 * time.Microsecond)
					}
				}
			}()
			wg.Wait()
			close(stop)
			ckptWG.Wait()
			for w, err := range errs {
				if err != nil {
					t.Fatalf("worker %d: %v", w, err)
				}
			}

			st := s.ExtendedStats()
			if st.CleanerPasses == 0 {
				t.Error("cleaner never ran a pass")
			}
			if st.CkptStallNs != 0 {
				t.Errorf("fuzzy checkpoints stalled the gate for %dns", st.CkptStallNs)
			}

			s.Crash()
			sn := s.NewSession(nil, nil)
			if err := sn.Restart(); err != nil {
				t.Fatalf("restart: %v", err)
			}
			for w := 0; w < workers; w++ {
				for j := 0; j < pagesPer; j++ {
					got := readObject(t, sn, pids[w][j], slots[w][j], len(finals[w][j]))
					if !bytes.Equal(got, finals[w][j]) {
						t.Errorf("worker %d page %d after restart: got %q want %q", w, j, got, finals[w][j])
					}
				}
			}
		})
	}
}

// TestCleanerBackpressureBoundsDPT disables the paced worker and relies on
// commit backpressure alone: once the DPT passes 2x the target, committers
// clean small quanta inline, so the table cannot grow without bound.
func TestCleanerBackpressureBoundsDPT(t *testing.T) {
	const target = 4
	s := New(Config{
		Mode:             ModeESM,
		PoolPages:        256,
		LogCapacity:      16 << 20,
		CheckpointEvery:  1 << 30,
		FuzzyCheckpoints: true,
		DirtyPageTarget:  target, // no CleanerEvery: backpressure only
	})
	defer s.Close()
	sn := s.NewSession(nil, nil)
	// Each iteration dirties a fresh page, so without backpressure the DPT
	// would end at 64 entries.
	for i := 0; i < 64; i++ {
		if _, _, err := workerCreate(sn, []byte(fmt.Sprintf("page %04d....", i))); err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
	}
	st := s.ExtendedStats()
	if st.CleanerPages == 0 {
		t.Error("backpressure never cleaned a page")
	}
	// The watermark plus one commit's worth of slack: a commit dirties its
	// page before the backpressure check runs.
	if bound := int64(2*target + backpressureQuantum); st.DirtyPages > bound {
		t.Errorf("DPT grew to %d entries, want <= %d", st.DirtyPages, bound)
	}
}

// TestMaintenanceDuringRestartReturnsErrRestarting pins the typed error:
// Checkpoint and Clean called while a restart holds the gate fail fast with
// ErrRestarting instead of queueing behind the write side.
func TestMaintenanceDuringRestartReturnsErrRestarting(t *testing.T) {
	s := New(Config{
		Mode:             ModeESM,
		PoolPages:        64,
		LogCapacity:      16 << 20,
		CheckpointEvery:  1 << 30,
		FuzzyCheckpoints: true,
	})
	defer s.Close()
	sn := s.NewSession(nil, nil)
	createPage(t, sn, []byte("before crash."))

	s.restarting.Store(true)
	if err := sn.Checkpoint(); err != ErrRestarting {
		t.Errorf("Checkpoint during restart: got %v, want ErrRestarting", err)
	}
	if _, err := sn.Clean(1); err != ErrRestarting {
		t.Errorf("Clean during restart: got %v, want ErrRestarting", err)
	}
	s.restarting.Store(false)

	if err := sn.Checkpoint(); err != nil {
		t.Errorf("Checkpoint after restart cleared: %v", err)
	}
}
