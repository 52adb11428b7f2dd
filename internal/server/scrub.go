package server

// Online integrity: single-page repair and the background scrubber.
//
// The data volume sits behind disk.Checksummed, so any read of a rotted or
// torn page surfaces as disk.ErrCorruptPage. This file turns detection into
// healing:
//
//   - repairImage rebuilds one page. First choice is the live log alone,
//     fed to a PageRebuilder (replay.go) — always sufficient under WPL, and
//     under ESM/REDO whenever the page's creation image is still in the log,
//     the PD-style repair. Otherwise Config.RepairPage — wired by
//     archive.Wire to the same rebuilder fed from backup plus archived log —
//     supplies the image. If neither can, the failure is loud and typed: the
//     error wraps both ErrUnrepairable and the original disk.ErrCorruptPage,
//     and the damaged bytes are never served.
//   - fetchShardLocked (server.go) calls it when a demand read hits a
//     corrupt page, repairing in place under the shard latch.
//   - verifyVolumeQuiesced runs inside Restart when the volume is
//     checksummed, before redo: every stored page is verified and corrupt
//     ones repaired, so recovery for all five schemes replays over sound
//     pages. It must run there — redo applies records from inside a log
//     scan, which holds the log mutex, so repair (which forces and scans
//     the log itself) cannot run from redo's own page fetches; those fail
//     loudly instead (see fetchShardLocked).
//   - Scrub walks the volume page by page, verifying the stored copy and
//     repairing what it finds, taking the quiesce gate and one shard latch
//     per page so it never blocks a checkpoint for more than one page.
//     Config.ScrubEvery starts the paced background loop over it.
//
// Locking: repair runs under gate.R → one shard latch, and touches only the
// log and store below it — the §9 latch order is unchanged. The replay cut
// is the stable log end captured after one Force, so a repaired page's LSN
// never exceeds the stable log (the write-ahead rule holds) and records a
// concurrent transaction appends mid-repair are excluded.

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/logrec"
	"repro/internal/page"
)

// ErrUnrepairable means a corrupt page could not be rebuilt from the live
// log or the archive (no backup coverage). Errors carrying it also wrap the
// disk.ErrCorruptPage that triggered the repair, so both errors.Is checks
// hold end-to-end.
var ErrUnrepairable = errors.New("server: corrupt page is unrepairable")

// DefaultScrubPages is the per-tick page budget of the background scrubber
// when Config.ScrubPages is zero.
const DefaultScrubPages = 64

// ScrubReport summarizes one scrub pass (qsctl scrub).
type ScrubReport struct {
	Scanned      int64 `json:"scanned"`
	Failures     int64 `json:"failures"`
	Repaired     int64 `json:"repaired"`
	Unrepairable int64 `json:"unrepairable"`
}

// add folds one page's outcome into the report.
func (r *ScrubReport) add(failed, repaired bool, err error) {
	r.Scanned++
	if failed {
		r.Failures++
		if repaired {
			r.Repaired++
		}
	}
	if err != nil {
		r.Unrepairable++
	}
}

// Scrub verifies up to limit stored pages starting at the scrub cursor,
// repairing every corrupt page it finds; limit <= 0 verifies the whole
// volume from page zero. The quiesce gate and shard latch are taken per
// page, so a full pass never stalls checkpoints or restarts. The first
// unrepairable page stops the pass and is returned (with the partial
// report): corruption the server cannot heal must be surfaced, not scrolled
// past.
func (sn *Session) Scrub(limit int) (ScrubReport, error) {
	s := sn.s
	var report ScrubReport
	s.gate.RLock()
	s.allocMu.Lock()
	end := s.nextPage
	s.allocMu.Unlock()
	s.gate.RUnlock()
	start := page.ID(0)
	if limit > 0 {
		s.scrubMu.Lock()
		start = s.scrubCursor
		if start >= end {
			start = 0
		}
		next := start + page.ID(limit)
		if next >= end {
			next = 0
		}
		s.scrubCursor = next
		s.scrubMu.Unlock()
	} else {
		limit = int(end)
	}
	for i, pid := 0, start; i < limit && pid < end; i, pid = i+1, pid+1 {
		failed, repaired, err := s.scrubOne(sn, pid)
		report.add(failed, repaired, err)
		if err != nil {
			return report, err
		}
	}
	return report, nil
}

// scrubOne verifies one stored page under the gate and its shard latch,
// repairing it if corrupt. Absent pages (never written) are fine.
func (s *Server) scrubOne(sn *Session, pid page.ID) (failed, repaired bool, err error) {
	s.gate.RLock()
	defer s.gate.RUnlock()
	sh := s.pool.Lock(pid)
	defer sh.Unlock()
	atomic.AddInt64(&s.stats.ScrubScanned, 1)
	var buf [page.Size]byte
	rerr := s.store.ReadPage(pid, buf[:])
	switch {
	case rerr == nil || errors.Is(rerr, disk.ErrNotFound):
		return false, false, nil
	case errors.Is(rerr, disk.ErrCorruptPage):
		atomic.AddInt64(&s.stats.ChecksumFailures, 1)
		sn.meter().DataRead(1)
		if err := s.repairShardLocked(sn, sh, pid, rerr, buf[:]); err != nil {
			return true, false, err
		}
		return true, true, nil
	default:
		return false, false, rerr
	}
}

// repairShardLocked rebuilds pid's stored copy after corruptErr and writes
// it home, leaving the repaired image in buf. Caller holds pid's shard
// latch. On success the stats count a repair; on failure the error wraps
// ErrUnrepairable and corruptErr and the unrepairable counter advances.
func (s *Server) repairShardLocked(sn *Session, sh *buffer.PoolShard, pid page.ID, corruptErr error, buf []byte) error {
	img, err := s.repairImage(sn, sh, pid, corruptErr)
	if err != nil {
		atomic.AddInt64(&s.stats.PagesUnrepairable, 1)
		return err
	}
	if werr := s.storeWrite(sn, pid, img); werr != nil {
		return fmt.Errorf("server: writing repaired page %v: %w", pid, werr)
	}
	atomic.AddInt64(&s.stats.PagesRepaired, 1)
	copy(buf, img)
	return nil
}

// repairImage produces the bytes pid's stored copy should hold, trying in
// order: the clean pooled frame (the cache is the authoritative copy), the
// live log, Config.RepairPage (the archive). The shard latch is held, so
// the page cannot change mid-repair.
//
//qslint:allow latch-io: repair forces the log under the held shard latch on purpose — the latch is what freezes the frame while its bytes are rebuilt, and every repair source is cut at the stable end
func (s *Server) repairImage(sn *Session, sh *buffer.PoolShard, pid page.ID, corruptErr error) ([]byte, error) {
	// The write-ahead rule for everything below: repairs are cut at the
	// stable log end, so force once up front.
	sn.meter().LogWrite(s.log.Force())
	if s.cfg.Mode != ModeWPL {
		if f := sh.Peek(pid); f != nil {
			// The pooled frame supersedes the stored copy (any disk state is
			// a flush of some frame state); writing it home is the cheapest
			// repair. Under WPL the frame may hold an uncommitted shipped
			// copy that must not reach the permanent location, so WPL skips
			// this path.
			return append([]byte(nil), f.Bytes()...), nil
		}
	}
	if pid == superblockPage {
		// The superblock is rebuilt from the log, not the archive: an
		// archived copy could name a checkpoint the log has truncated away,
		// and restart would then skip redo it still needs.
		sb, err := s.superblockFromLog()
		if err != nil {
			return nil, fmt.Errorf("%w: %v: %v: %w", ErrUnrepairable, pid, err, corruptErr)
		}
		return encodeSuperblock(sb), nil
	}
	// The live log alone determines the page when its creation image (ESM/
	// REDO clients log one whole-page image when a page is born) or, under
	// WPL, a committed copy is still in it. An update with no image before it
	// means the prefix is gone and only the archive reaches back far enough.
	b := NewPageRebuilder(s.cfg.Mode, pid, nil)
	err := b.FeedLog(s.log, 0)
	sn.meter().LogRead(1)
	switch {
	case errors.Is(err, ErrNoBaseImage):
		// the archive's turn
	case err != nil:
		return nil, fmt.Errorf("%w: %v: %v: %w", ErrUnrepairable, pid, err, corruptErr)
	case b.Image() != nil:
		return b.Image(), nil
	}
	if s.cfg.RepairPage != nil {
		img, err := s.cfg.RepairPage(pid)
		if err != nil {
			return nil, fmt.Errorf("%w: %v: %v: %w", ErrUnrepairable, pid, err, corruptErr)
		}
		return img, nil
	}
	return nil, fmt.Errorf("%w: %v: no archive wired and the live log cannot rebuild it: %w",
		ErrUnrepairable, pid, corruptErr)
}

// superblockFromLog reconstructs the superblock from the newest checkpoint
// record in the live log. The truncation invariant keeps the newest
// checkpoint record in the log, and the superblock is rewritten exactly at
// checkpoints, so the reconstruction equals the lost copy.
func (s *Server) superblockFromLog() (superblock, error) {
	var (
		found   bool
		ckptLSN uint64
		payload []byte
	)
	err := s.log.Scan(s.log.Head(), func(r *logrec.Record) bool {
		if r.Type == logrec.TypeCheckpoint {
			found = true
			ckptLSN = r.LSN
			payload = append(payload[:0], r.After...)
		}
		return true
	})
	if err != nil {
		return superblock{}, err
	}
	if !found {
		return superblock{}, errors.New("server: no checkpoint record in the live log")
	}
	ckpt, err := decodeCkpt(payload)
	if err != nil {
		return superblock{}, err
	}
	return ckpt.masterRecord(ckptLSN), nil
}

// verifyVolumeQuiesced verifies every stored data page and repairs the
// corrupt ones. It runs inside Restart — the caller holds gate.W and the
// log is quiesced — when the volume is checksummed, so redo and undo only
// ever replay over sound pages (the superblock was already verified by
// readSuperblock). The first unrepairable page fails the restart: recovery
// must not run over bytes it knows are damaged.
func (s *Server) verifyVolumeQuiesced(sn *Session) error {
	s.allocMu.Lock()
	end := s.nextPage
	s.allocMu.Unlock()
	var buf [page.Size]byte
	for pid := page.ID(0); pid < end; pid++ {
		if pid == superblockPage {
			continue
		}
		atomic.AddInt64(&s.stats.ScrubScanned, 1)
		sn.meter().DataRead(1)
		err := s.store.ReadPage(pid, buf[:])
		switch {
		case err == nil || errors.Is(err, disk.ErrNotFound):
		case errors.Is(err, disk.ErrCorruptPage):
			atomic.AddInt64(&s.stats.ChecksumFailures, 1)
			sh := s.pool.Lock(pid)
			rerr := s.repairShardLocked(sn, sh, pid, err, buf[:])
			sh.Unlock()
			if rerr != nil {
				return rerr
			}
		default:
			return err
		}
	}
	return nil
}

// scrubWorker is the paced background scrubber: every Config.ScrubEvery it
// verifies a Config.ScrubPages batch of stored pages. Unrepairable pages
// are counted (PagesUnrepairable) and left for demand reads to report; the
// loop keeps scanning the rest of the volume.
func (s *Server) scrubWorker(every time.Duration, batch int) {
	defer s.scrubWG.Done()
	sn := s.NewSession(nil, nil)
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-s.scrubStop:
			return
		case <-tick.C:
			_, _ = sn.Scrub(batch)
		}
	}
}
