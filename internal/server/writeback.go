package server

// Write-back: the one path from a page image to the data volume (DESIGN.md
// §2.4; replay.go is the opposite direction). storeWrite is the only
// data-page write in the package and writeSuperblockLocked the only write of
// page 0, the master record, at a checkpoint or a repair — qslint's
// wal-discipline rejects a WritePage anywhere else in internal/server. On top
// of storeWrite, writeHome (a dirty ESM/REDO frame) and installWPLLocked (a
// committed WPL copy) each state their mode's write-ahead test once. Every
// other path — eviction, the page loop behind the cleaner, checkpoints and
// FlushAll, the standby's orphan drain, restart, scrub repair — only chooses
// which pages go and in what order.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/buffer"
	"repro/internal/costmodel"
	"repro/internal/disk"
	"repro/internal/logrec"
	"repro/internal/page"
)

// storeWrite hands one data page's image to the data volume, charges the
// session's meter and counts the write. No client can lock page 0, so no
// frame, shipped copy or logged image brings it here.
func (s *Server) storeWrite(sn *Session, pid page.ID, img []byte) error {
	if err := s.store.WritePage(pid, img); err != nil {
		return err
	}
	sn.meter().Add(costmodel.DataWriteAsync, 1)
	atomic.AddInt64(&s.stats.DataWrites, 1)
	return nil
}

// writeSuperblock writes the master record at a checkpoint (reclaim), under
// page 0's shard latch: a checkpoint runs under gate.R, where the scrubber may
// be repairing page 0 under the same latch.
func (s *Server) writeSuperblock(sn *Session, sb superblock) error {
	sh := s.pool.Lock(superblockPage)
	defer sh.Unlock()
	return s.writeSuperblockLocked(sn, encodeSuperblock(sb))
}

// writeSuperblockLocked is the one write of page 0: a checkpoint's master
// record, or the copy repairShardLocked rebuilt from the log. Caller holds
// page 0's shard latch. Metered like any page write but not counted in
// DataWrites, which counts data pages.
func (s *Server) writeSuperblockLocked(sn *Session, img []byte) error {
	if err := s.store.WritePage(superblockPage, img); err != nil {
		return err
	}
	sn.meter().Add(costmodel.DataWriteAsync, 1)
	return nil
}

// writeHome writes the dirty ESM/REDO frame f to its permanent location,
// marks it clean and retires its DPT entry. Caller holds f's shard latch.
//
// The write-ahead rule (STEAL/NO-FORCE, paper §3.1): the image may not reach
// the volume before the newest record describing it — the one its pageLSN
// names — is stable to its last byte. When it is not, writeHome forces the
// log if mayForce is set; otherwise it writes nothing and reports false, and
// the caller forces with the latch released and comes back (the cleaner: a
// force can wait out a whole group-commit batch, and every session on the
// shard would wait with it).
//
//qslint:allow latch-io: the write-ahead rule REQUIRES the victim's newest record stable before its image leaves under the shard latch; releasing mid-eviction would let the page mutate under the evictor
func (s *Server) writeHome(sn *Session, sh *buffer.PoolShard, f *buffer.Frame, mayForce bool) (bool, error) {
	pid, lsn := f.PID(), page.Wrap(f.Bytes()).LSN()
	if !s.log.Stable(lsn) {
		if !mayForce {
			return false, nil
		}
		sn.meter().Add(costmodel.LogForce, s.log.Force())
	}
	if err := s.storeWrite(sn, pid, f.Bytes()); err != nil {
		return false, err
	}
	sh.MarkClean(pid)
	s.retireDPT(pid, lsn)
	return true, nil
}

// installWPLLocked writes the committed head copy e to its permanent
// location and removes its table entry. Caller holds e.pid's shard latch and
// wplMu, and has validated e == s.wpl[e.pid] && e.committed.
//
//qslint:allow latch-io: installing a logged copy must force its commit record and write the store under the shard latch + wplMu — the WPL table entry and the permanent location have to change atomically against readers
func (s *Server) installWPLLocked(sn *Session, sh *buffer.PoolShard, e *wplEntry) error {
	if e.commitEnd > s.log.StableEnd() {
		// The committed marking is applied with the commit record's append,
		// before the force — an evictor can get here while the committer is
		// still waiting for the log's sync. The permanent location
		// must not see the copy before its commit record is stable.
		sn.meter().Add(costmodel.LogForce, s.log.Force())
	}
	var img []byte
	cached := sh.Peek(e.pid)
	if cached != nil {
		img = cached.Bytes() // "marked as read" optimization: cached at commit
	} else {
		bp := logScratch.Get().(*[]byte)
		defer logScratch.Put(bp)
		rec, err := s.log.ReadAt(e.lsn, bp)
		if err != nil {
			return fmt.Errorf("server: WPL install of %v: %w", e.pid, err)
		}
		img = rec.After
		sn.meter().Add(costmodel.LogReadAsync, 1)
		atomic.AddInt64(&s.stats.WPLLogReloads, 1)
	}
	if err := s.storeWrite(sn, e.pid, img); err != nil {
		return err
	}
	atomic.AddInt64(&s.stats.WPLInstalls, 1)
	delete(s.wpl, e.pid)
	if cached != nil {
		sh.MarkClean(e.pid)
	}
	return nil
}

// --- superblock ----------------------------------------------------------

const superMagic = 0x51535342 // "QSSB"

type superblock struct {
	checkpointLSN uint64
	nextPage      page.ID
	nextTID       logrec.TID
	hasCheckpoint bool
}

func encodeSuperblock(sb superblock) []byte {
	buf := make([]byte, page.Size)
	binary.LittleEndian.PutUint32(buf[0:], superMagic)
	flags := uint32(0)
	if sb.hasCheckpoint {
		flags = 1
	}
	binary.LittleEndian.PutUint32(buf[4:], flags)
	binary.LittleEndian.PutUint64(buf[8:], sb.checkpointLSN)
	binary.LittleEndian.PutUint32(buf[16:], uint32(sb.nextPage))
	binary.LittleEndian.PutUint64(buf[24:], uint64(sb.nextTID))
	return buf
}

// readSuperblock reads the master record at restart as the scrubber reads any
// page, under its shard latch: a rotted or torn copy is repaired in place by
// repairShardLocked, from the newest checkpoint record in the log.
func (s *Server) readSuperblock(sn *Session) (superblock, error) {
	sh := s.pool.Lock(superblockPage)
	defer sh.Unlock()
	buf := sh.Scratch()
	_, err := s.readVerifiedLocked(sn, sh, superblockPage, buf)
	fresh := superblock{nextPage: 1, nextTID: 1}
	if errors.Is(err, disk.ErrNotFound) {
		return fresh, nil
	}
	if err != nil {
		return superblock{}, err
	}
	if binary.LittleEndian.Uint32(buf[0:]) != superMagic {
		if [page.Size]byte(buf) == [page.Size]byte{} {
			// No superblock yet (a crash before the first checkpoint): a
			// file volume reads the hole at page 0 as zeros.
			return fresh, nil
		}
		return superblock{}, errors.New("server: bad superblock magic")
	}
	return superblock{
		hasCheckpoint: binary.LittleEndian.Uint32(buf[4:]) == 1,
		checkpointLSN: binary.LittleEndian.Uint64(buf[8:]),
		nextPage:      page.ID(binary.LittleEndian.Uint32(buf[16:])),
		nextTID:       logrec.TID(binary.LittleEndian.Uint64(buf[24:])),
	}, nil
}
