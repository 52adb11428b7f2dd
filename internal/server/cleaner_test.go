package server

// Tests for the page cleaner and the checkpoint that shares its page loop
// (DESIGN.md §13). The concurrency tests here are run under the race
// detector by `make race-cleaner`: a paced cleaner plus a checkpointer racing
// committing sessions is exactly the interleaving the latch order has to
// survive.

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/page"
)

// TestCleanerConcurrentWithCommits runs the paced background cleaner and a
// fuzzy checkpointer concurrently with committing sessions over a wide
// dirty set, then crashes and restarts to prove the pages the cleaner wrote
// home (and the DPT entries it retired) never cost a committed update.
func TestCleanerConcurrentWithCommits(t *testing.T) {
	for _, mode := range []Mode{ModeESM, ModeREDO} {
		t.Run(mode.String(), func(t *testing.T) {
			// A 200 µs log sync keeps the run long enough for the paced
			// worker to tick, and the per-worker page fan-out keeps the DPT
			// backlog above the target so those ticks actually clean.
			s := New(Config{
				Mode:            mode,
				PoolPages:       64,
				Log:             slowLog(16<<20, 200*time.Microsecond),
				LockTimeout:     time.Second,
				CheckpointEvery: 1 << 30, // driven explicitly below
				CleanerEvery:    500 * time.Microsecond,
				DirtyPageTarget: 4,
			})
			defer s.Close()

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
			// Checkpoints that log the DPT without writing it race the
			// workers and the cleaner: Checkpoint's own page writes would
			// keep the DPT under the target, and the cleaner idle.
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
						if err := fuzzyCheckpoint(ckpt); err != nil {
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
		Mode:            ModeESM,
		PoolPages:       256,
		LogCapacity:     16 << 20,
		CheckpointEvery: 1 << 30,
		DirtyPageTarget: target, // no CleanerEvery: backpressure only
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
		Mode:            ModeESM,
		PoolPages:       64,
		LogCapacity:     16 << 20,
		CheckpointEvery: 1 << 30,
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

// pausingStore parks the first write after armed is set until release is
// closed, closing paused when it gets there.
type pausingStore struct {
	disk.Store
	armed   atomic.Bool
	paused  chan struct{}
	release chan struct{}
}

func (p *pausingStore) WritePage(id page.ID, data []byte) error {
	if p.armed.CompareAndSwap(true, false) {
		close(p.paused)
		<-p.release
	}
	return p.Store.WritePage(id, data)
}

// TestCommitLandsWhileCheckpointWritesPages: a checkpoint stops no commit.
// The checkpoint's first write is held on the volume — a page dirty when it
// began (ESM, REDO) or, under WPL, which writes no page, the master record.
// Meanwhile another session updates a page that was clean when the
// checkpoint began and commits; the commit must return before the write is
// released. The checkpoint logs that page's DPT entry below its analysis
// start, and after a crash restart redoes the update from there.
func TestCommitLandsWhileCheckpointWritesPages(t *testing.T) {
	for _, mode := range []Mode{ModeESM, ModeREDO, ModeWPL} {
		t.Run(mode.String(), func(t *testing.T) {
			store := &pausingStore{Store: disk.NewMemStore(), paused: make(chan struct{}), release: make(chan struct{})}
			s := New(Config{Mode: mode, Store: store, PoolPages: 16, LogCapacity: 16 << 20,
				LockTimeout: time.Second, CheckpointEvery: 1 << 30})
			defer s.Close()
			sn := s.NewSession(nil, nil)
			held, hslot := createPage(t, sn, []byte("held0"))
			other, oslot := createPage(t, sn, []byte("old.."))
			if err := sn.Checkpoint(); err != nil { // both pages home, the DPT empty
				t.Fatal(err)
			}
			updateObject(t, sn, held, hslot, []byte("held1"), true)

			store.armed.Store(true)
			ckptDone := make(chan error, 1)
			go func() { ckptDone <- s.NewSession(nil, nil).Checkpoint() }()
			<-store.paused
			var commitErr error
			committed := make(chan struct{})
			go func() {
				commitErr = workerUpdate(s.NewSession(nil, nil), other, oslot, []byte("new.."))
				close(committed)
			}()
			select {
			case <-committed:
			case <-time.After(5 * time.Second):
				t.Error("the commit waited for the checkpoint's held write")
			}
			close(store.release)
			<-committed
			if commitErr != nil {
				t.Fatal(commitErr)
			}
			if err := <-ckptDone; err != nil {
				t.Fatal(err)
			}
			if mode == ModeWPL {
				return
			}

			s.Crash()
			sb, err := s.readSuperblock(nil)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := s.log.ReadAt(sb.checkpointLSN, nil)
			if err != nil {
				t.Fatal(err)
			}
			c, err := decodeCkpt(rec.After)
			if err != nil {
				t.Fatal(err)
			}
			logged := false
			for _, d := range c.dpt {
				logged = logged || d.pid == other && d.rec < c.beginLSN
			}
			if !logged {
				t.Errorf("checkpoint DPT %+v lacks %v below the analysis start %d", c.dpt, other, c.beginLSN)
			}
			if err := sn.Restart(); err != nil {
				t.Fatal(err)
			}
			for _, o := range []struct {
				pid  page.ID
				slot int
				want string
			}{{held, hslot, "held1"}, {other, oslot, "new.."}} {
				if got := readObject(t, sn, o.pid, o.slot, len(o.want)); string(got) != o.want {
					t.Errorf("%v reads %q after restart, want %q", o.pid, got, o.want)
				}
			}
		})
	}
}
