package server

// The page cleaner and the page loop checkpoints share (DESIGN.md §13).
//
// cleanPages is the one loop that writes dirty ESM/REDO pages home outside
// eviction: it picks DPT pages in recLSN order (oldest redo obligation
// first, which is also what advances the redo retention holder fastest) and
// hands each to cleanOne → writeHome (writeback.go), which owns the write and
// the write-ahead test. A checkpoint runs it over every page dirty at its
// start; between checkpoints the paced cleaner runs it over a batch, so the
// DPT — restart redo work, and the log a checkpoint cannot reclaim — stays
// near Config.DirtyPageTarget. Commits never wait on it; a committer past
// the high watermark (2x the target) cleans a small quantum of pages inline
// as soft backpressure.
//
// Latch order: each page is handled under the gate → its shard latch →
// dptMu, exactly the order session operations use, so the loop runs
// concurrently with them under gate.R; Restart and Crash exclude it via the
// gate like any session. The crash-point sweep drives Clean synchronously
// (CleanerEvery = 0, no goroutine) so its fuse points stay deterministic.

import (
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/costmodel"
	"repro/internal/page"
)

// DefaultCleanerBatch is the background cleaner's per-pass page budget.
const DefaultCleanerBatch = 32

// backpressureQuantum is the most pages one backpressured commit cleans
// inline. It is intentionally far below the cleaner's batch size: the point
// of the watermark is that writers collectively pay the draining cost in
// small installments, never that a single commit absorbs a flush storm.
const backpressureQuantum = 4

// Clean writes up to limit cold dirty pages home, oldest recLSN first, and
// returns how many it retired. It is the synchronous core of the background
// cleaner, also called inline by commit backpressure and driven directly by
// the crash-point sweep. Under WPL it is a no-op: committed copies reach
// their permanent locations through installs, and uncommitted ones must not.
func (sn *Session) Clean(limit int) (int, error) {
	s := sn.s
	if s.cfg.Mode == ModeWPL || limit <= 0 {
		return 0, nil
	}
	if s.restarting.Load() {
		return 0, ErrRestarting
	}
	defer s.enter()()
	atomic.AddInt64(&s.stats.CleanerPasses, 1)
	cleaned, err := s.cleanPages(sn, limit)
	atomic.AddInt64(&s.stats.CleanerPages, int64(cleaned))
	return cleaned, err
}

// cleanPages writes home up to limit (< 0: every one) of the ESM/REDO pages
// in the DPT when it is called, oldest recLSN first, through cleanOne, and
// returns how many it wrote. It is the one loop behind Clean, Checkpoint,
// Restart's closing checkpoint and FlushAll; the caller holds either side of
// the gate. WPL keeps no DPT, so there it writes nothing.
func (s *Server) cleanPages(sn *Session, limit int) (int, error) {
	// Candidates are a DPT snapshot ordered by recLSN (page id ties broken
	// ascending — a deterministic order the crash-point sweep depends on).
	// Entries added after the snapshot wait for the next pass.
	s.dptMu.Lock()
	cands := make([]ckptDPT, 0, len(s.dpt))
	for pid, e := range s.dpt {
		cands = append(cands, ckptDPT{pid: pid, rec: e.rec})
	}
	s.dptMu.Unlock()
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].rec != cands[j].rec {
			return cands[i].rec < cands[j].rec
		}
		return cands[i].pid < cands[j].pid
	})
	cleaned := 0
	for _, cand := range cands {
		if cleaned == limit {
			break
		}
		n, err := s.cleanOne(sn, cand.pid)
		if err != nil {
			return cleaned, err
		}
		cleaned += n
	}
	return cleaned, nil
}

// cleanOne writes one DPT page home if it is resident, dirty and cold,
// returning 1 if a page was written. Caller holds either side of the gate.
func (s *Server) cleanOne(sn *Session, pid page.ID) (int, error) {
	// Claim the page so concurrent cleaners (the ticker worker plus any
	// backpressured committers) fan out over distinct candidates. Without
	// the claim they all sort the same snapshot and convoy on the oldest
	// page's shard latch, turning backpressure into a global stall.
	s.dptMu.Lock()
	if s.cleaning[pid] {
		s.dptMu.Unlock()
		return 0, nil
	}
	s.cleaning[pid] = true
	s.dptMu.Unlock()
	defer func() {
		s.dptMu.Lock()
		delete(s.cleaning, pid)
		s.dptMu.Unlock()
	}()

	for attempt := 0; ; attempt++ {
		sh := s.pool.Lock(pid)
		f := sh.Peek(pid)
		if f == nil {
			// Not resident: eviction already wrote the then-current image
			// home. The surviving DPT entry means records outran that image
			// (ESM ships pages after their records); the cleaner has nothing
			// newer to write until the page arrives, so leave the entry for
			// redo to cover.
			sh.Unlock()
			return 0, nil
		}
		if !f.Dirty() {
			// A flush beat us here; just retire the stale entry if the image
			// caught up.
			s.retireDPT(pid, page.Wrap(f.Bytes()).LSN())
			sh.Unlock()
			return 0, nil
		}
		// Never force under the shard latch (see writeHome): force latch-free
		// and come back. A page re-dirtied meanwhile just needs one more
		// force; one that keeps outracing them is too hot to clean this pass.
		wrote, err := s.writeHome(sn, sh, f, false)
		sh.Unlock()
		switch {
		case err != nil:
			return 0, err
		case wrote:
			return 1, nil
		case attempt >= 3:
			atomic.AddInt64(&s.stats.CleanerHotSkips, 1)
			return 0, nil
		}
		sn.meter().Add(costmodel.LogForce, s.log.Force())
	}
}

// cleanerWorker is the paced background cleaner: every Config.CleanerEvery
// it writes home up to DefaultCleanerBatch cold dirty pages. Mirrors
// scrubWorker's lifecycle (started by New, stopped by Close).
func (s *Server) cleanerWorker(every time.Duration) {
	defer s.cleanerWG.Done()
	sn := s.NewSession(nil, nil)
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-s.cleanerStop:
			return
		case <-tick.C:
			// Below the target the pool is allowed to stay dirty — writing
			// hot pages early is wasted I/O; at or above it, drain a batch.
			if s.cfg.DirtyPageTarget > 0 {
				s.dptMu.Lock()
				backlog := len(s.dpt)
				s.dptMu.Unlock()
				if backlog <= s.cfg.DirtyPageTarget {
					continue
				}
			}
			// Maintenance: errors (including ErrRestarting) resurface on the
			// eviction and checkpoint paths; keep ticking.
			_, _ = sn.Clean(DefaultCleanerBatch)
		}
	}
}
