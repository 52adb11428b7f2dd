package server

// Hot-standby support (DESIGN.md §14). A standby server's log is a byte-exact
// replica of its primary's stream: ApplyShipped re-appends each shipped
// record at its original LSN (logrec encoding is deterministic, so the bytes
// — CRCs included — are identical) and mirrors the primary's table updates
// through the analysis and redo code restart itself runs (replay.go), so at
// every record boundary the standby holds exactly the state a crashed
// primary would recover to at that cut. Promotion is then literally
// crash-then-restart: discard the volatile state and run the scheme's normal
// Restart over the replicated log and volume.
//
// One applier goroutine drives ApplyShipped (records of one log stream are
// inherently sequential); each call holds the read side of the gate, so the
// standby's own cleaner, scrubber and read-only sessions interleave under the
// normal concurrency model, and Promote's Crash/Restart (gate.W) excludes an
// in-flight apply.

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/costmodel"
	"repro/internal/logrec"
	"repro/internal/page"
)

// standbyTIDBase is the first TID handed to standby read-only sessions. The
// range is disjoint from any TID a primary can realistically assign, so a
// shipped record can never collide with a local reader's ATT entry.
const standbyTIDBase = logrec.TID(1) << 62

// Standby reports whether the server is currently a replication standby.
func (s *Server) Standby() bool { return s.standby.Load() }

// ApplyShipped replays one record of the primary's log stream. Records must
// arrive in LSN order from a single goroutine. The record enters the log and
// the tables through the step the primary's own records take (logAndNote,
// replay.go) — appended at its original LSN, or recognized as already present
// when a cold bootstrap restored part of the stream from the archive — and is
// then repeated the way restart's pass repeats it (repeat, replay.go). What
// stays here is what only a live standby has: what a WPL commit or abort owes
// beyond the table (installs, dropping the aborted frame), and checkpoint
// records, which additionally mirror the master-record write and the primary's
// log reclamation so the standby's ring never fills. The caller is responsible
// for forcing the log (batch-wise) before reporting the records as applied.
func (sn *Session) ApplyShipped(r *logrec.Record) error {
	s := sn.s
	if s.restarting.Load() {
		return ErrRestarting
	}
	defer s.enter()()
	if !s.standby.Load() {
		return fmt.Errorf("%w: ApplyShipped on a non-standby", ErrModeViolation)
	}
	switch r.Type {
	case logrec.TypeUpdate, logrec.TypeCLR, logrec.TypePageImage, logrec.TypeCommit, logrec.TypeAbort,
		logrec.TypeEnd, logrec.TypePrepare, logrec.TypeDecide, logrec.TypeCheckpoint:
	default:
		return fmt.Errorf("server: cannot apply shipped %v record", r.Type)
	}
	// Looked up first: the WPL side effects below outlive note's retiring of a
	// committed entry.
	t, _ := s.lookupTxn(r.TID)
	if err := s.logAndNote(r, true); err != nil {
		return err
	}
	// Repeat history as restart's pass does: the primary's allocation frontier
	// (so the scrubber covers replicated pages and promotion starts from the
	// right counters even before a checkpoint arrives) and the redo, which is
	// idempotent over a bootstrap-restored (possibly newer, fuzzy-backup) image.
	if _, err := s.repeat(sn, r); err != nil {
		return err
	}
	wpl := s.cfg.Mode == ModeWPL
	switch r.Type {
	case logrec.TypeCommit:
		if wpl && t != nil {
			s.wplCommit(sn, t)
		}
	case logrec.TypeAbort:
		// ESM/REDO: the primary's undo arrives as CLRs in the stream; under
		// WPL note has unlinked the copies, as Abort does on the primary.
		if wpl && t != nil {
			s.wplAborted(sn, t)
		}
	case logrec.TypeCheckpoint:
		return s.applyShippedCheckpoint(sn, r)
	}
	return nil
}

// applyShippedCheckpoint mirrors the primary's checkpoint side effects from
// the record's payload: the master-record write (so promotion's Restart finds
// the same newest checkpoint a crashed primary's would), the allocation
// counters, and the log reclamation — checkpointCore's own head computation
// (reclaimHead) over the logged snapshot, so the standby's ring reclaims in
// lockstep with the primary's.
func (s *Server) applyShippedCheckpoint(sn *Session, r *logrec.Record) error {
	c, err := decodeCkpt(r.After)
	if err != nil {
		return fmt.Errorf("server: shipped checkpoint at %d: %w", r.LSN, err)
	}
	// The master record must never name an unstable checkpoint record.
	sn.meter().Add(costmodel.LogForce, s.log.Force())
	if err := s.writeSuperblock(sn, c.masterRecord(r.LSN)); err != nil {
		return err
	}
	atomic.AddInt64(&s.stats.Checkpoints, 1)
	s.allocMu.Lock()
	s.nextPage = max(s.nextPage, c.nextPage)
	s.nextTID = max(s.nextTID, c.nextTID)
	s.allocMu.Unlock()
	if s.cfg.Mode == ModeWPL {
		// Copies committed before the replicated stream began (a cold
		// bootstrap) have no commit record in the stream; the checkpoint's
		// logged table is the only witness. Merge them — unless a newer copy
		// from the stream supersedes — so standby reads reload the committed
		// version; promotion's Restart seeds its table the same way.
		s.wplMu.Lock()
		for _, w := range c.wpl {
			if w.committed {
				s.tables.seedCopy(w)
			}
		}
		s.wplMu.Unlock()
	}
	head := c.reclaimHead(r.LSN)
	// That head is sound for the primary's volume, not necessarily this one:
	// pages the primary already cleaned are out of its logged DPT, but the
	// standby's flush timing is its own, so the same pages may still be dirty
	// only here, with their redo records below head. Write them home before
	// reclaiming (the standby owes those writes eventually anyway), then hold
	// the log at whatever remains dirty — non-resident pages, or ones
	// re-dirtied while cleanOne forced the log — exactly as the primary's own
	// head stops at its oldest logged recLSN.
	s.dptMu.Lock()
	orphans := make([]page.ID, 0, len(s.dpt))
	for pid, e := range s.dpt {
		if e.rec < head {
			orphans = append(orphans, pid)
		}
	}
	s.dptMu.Unlock()
	sort.Slice(orphans, func(i, j int) bool { return orphans[i] < orphans[j] })
	for _, pid := range orphans {
		if _, err := s.cleanOne(sn, pid); err != nil {
			return err
		}
	}
	s.dptMu.Lock()
	for _, e := range s.dpt {
		head = min(head, e.rec)
	}
	s.dptMu.Unlock()
	head = s.wplHoldBelow(sn, head)
	s.redo.Set(head)
	if head > s.log.Head() {
		return s.log.Truncate(head)
	}
	return nil
}

// wplHoldBelow is the WPL twin of the orphan drain above: copies the primary
// has installed are out of its logged table, but an install here may have
// been deferred by a disk error or still be queued, leaving the standby's
// table naming a copy below head. Committed chain heads reaching below head
// are installed now; the log is then held at whatever the table still names —
// a copy the disk refused again, an open transaction's — as the primary's own
// head stops at its oldest table entry.
func (s *Server) wplHoldBelow(sn *Session, head uint64) uint64 {
	s.wplMu.Lock()
	gen := s.wplGen
	var owed []*wplEntry
	for _, e := range s.wpl {
		if e.committed && wplOldest(e) < head {
			owed = append(owed, e)
		}
	}
	s.wplMu.Unlock()
	sort.Slice(owed, func(i, j int) bool { return owed[i].pid < owed[j].pid })
	for _, e := range owed {
		s.installHead(sn, e.pid, e, gen)
	}
	s.wplMu.Lock()
	for _, e := range s.wpl {
		head = min(head, wplOldest(e))
	}
	s.wplMu.Unlock()
	return head
}

// wplOldest returns the lowest LSN in e's chain — pushes ascend, so the
// bottom entry's: the log may not be reclaimed past it while the chain stands.
func wplOldest(e *wplEntry) uint64 {
	for e.prev != nil {
		e = e.prev
	}
	return e.lsn
}

// Promote ends standby mode: the server discards its volatile state and runs
// the normal scheme-specific Restart over the replicated log and volume —
// promotion IS crash-then-restart, which is what makes the promoted state
// byte-equivalent to a single-node restart at the same log cut. The caller
// must have quiesced the applier (no ApplyShipped in flight or after); the
// standby's own background cleaner and scrubber are excluded by Restart's
// gate.W + ErrRestarting fast-fail, like any restart. Unforced shipped
// records are discarded, exactly as a crashed primary would lose them — and
// they were never acknowledged, since acks cover only forced batches.
func (sn *Session) Promote() error {
	s := sn.s
	if !s.standby.Load() {
		return fmt.Errorf("%w: promote on a non-standby", ErrModeViolation)
	}
	s.Crash()
	if err := sn.Restart(); err != nil {
		return err
	}
	s.standby.Store(false)
	return nil
}
