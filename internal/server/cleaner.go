package server

// The background page cleaner (DESIGN.md §13).
//
// Fuzzy checkpoints log the dirty page table instead of flushing it, so some
// other mechanism must write dirty pages home — otherwise the DPT grows
// without bound, restart redo work grows with it, and log truncation stalls
// at min(recLSN). The cleaner is that mechanism: a paced worker that picks
// cold dirty pages in recLSN order (oldest redo obligation first, which is
// also what advances the redo retention holder fastest) and hands each to
// writeHome (writeback.go), which owns the write and the write-ahead test.
// Commits never wait on it; a committer past the high watermark (2x
// Config.DirtyPageTarget) cleans a small quantum of pages inline as soft
// backpressure.
//
// Latch order: each page is handled under gate.R → its shard latch → dptMu,
// exactly the order session operations use, so the cleaner can run
// concurrently with them; Checkpoint/Restart/Crash exclude it per page via
// the gate like any session. The crash-point sweep drives Clean synchronously
// (CleanerEvery = 0, no goroutine) so its fuse points stay deterministic.

import (
	"sort"
	"sync/atomic"
	"time"

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
		if cleaned >= limit {
			break
		}
		n, err := s.cleanOne(sn, cand.pid)
		if err != nil {
			return cleaned, err
		}
		cleaned += n
	}
	atomic.AddInt64(&s.stats.CleanerPages, int64(cleaned))
	return cleaned, nil
}

// cleanOne writes one DPT page home if it is resident, dirty and cold,
// returning 1 if a page was written. Caller holds gate.R.
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
		sn.meter().LogWrite(s.log.Force())
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
