package server

// Checkpointing, crash simulation and restart recovery.
//
// ESM/REDO take sharp ARIES-style checkpoints: all dirty pages are flushed
// (flushDirtyQuiesced, writeback.go), the active-transaction table is logged,
// and the log is truncated below the oldest LSN any active transaction still
// needs. Restart then runs analysis from the checkpoint, redoes history
// conditionally on page LSNs, and rolls back losers with CLRs. What a record
// does to the tables (analysis, seeded from the checkpoint) and to a page
// (redo) is replay.go's, and how a page reaches the volume is writeback.go's;
// this file owns the passes around them — DPT pruning, the fan-out and its
// metering. Redo is partitioned
// by page ID across Config.RedoWorkers goroutines — per-page record order is
// preserved because a page belongs to exactly one worker; undo stays
// sequential (CLR LSNs must be deterministic).
//
// WPL checkpoints write the WPL table to the log (paper §3.4.3); restart runs
// the same analysis scan, which leaves the WPL table with every copy's fate
// settled, and installs the newest committed copy of each page. The paper
// reads that window backwards; reading it forwards builds the same table
// (DESIGN.md §3).
//
// Every entry point here takes the write side of the quiesce gate, so it
// observes a server with no session operation in flight; the leaf mutexes
// are still taken around map access to keep the lock discipline uniform.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/disk"
	"repro/internal/logrec"
	"repro/internal/page"
	"repro/internal/wal"
)

// --- checkpoint payload encoding ------------------------------------------

// ckptTxn is an active-transaction-table entry in a checkpoint record.
type ckptTxn struct {
	tid      logrec.TID
	lastLSN  uint64
	firstLSN uint64
}

// ckptWPL is a WPL-table entry in a checkpoint record.
type ckptWPL struct {
	pid       page.ID
	lsn       uint64
	tid       logrec.TID
	committed bool
}

// ckptDPT is a dirty-page-table entry in a checkpoint record: the page and
// the LSN restart redo must scan from for it. Fuzzy checkpoints log the DPT
// instead of flushing it; sharp checkpoints log whatever entries their flush
// could not retire (pages whose logged records outrun the shipped image).
type ckptDPT struct {
	pid page.ID
	rec uint64
}

// ckptPrepared is a prepared (in-doubt-capable) branch in a checkpoint
// record: enough to resurrect the 2PC state even when the PREPARE record
// itself predates the analysis scan window.
type ckptPrepared struct {
	tid     logrec.TID
	prepLSN uint64
	coord   int
	parts   []int
}

// ckptDecided is a coordinator commit decision still awaiting the forget
// protocol. Carrying it in the checkpoint lets truncation reclaim the DECIDE
// record itself without losing the resolution answer.
type ckptDecided struct {
	tid   logrec.TID
	lsn   uint64
	parts []int
}

type ckptPayload struct {
	nextPage page.ID
	nextTID  logrec.TID
	// beginLSN is the log end captured before the ATT/DPT/WPL snapshot was
	// taken. Restart analysis scans from here: a record appended between the
	// snapshot and the checkpoint record's own append is re-analyzed rather
	// than lost.
	beginLSN uint64
	txns     []ckptTxn
	wpl      []ckptWPL
	dpt      []ckptDPT
	// 2PC trailer; both empty on a single-shard server.
	prepared []ckptPrepared
	decided  []ckptDecided
}

// ckptMagic opens the one checkpoint layout: the header, the ATT, the WPL
// table, the DPT, then the 2PC trailer — prepared branches and decided-but-
// unforgotten transactions, each list behind its count. A payload opening
// with any other word is rejected.
const ckptMagic = uint64(0x5153434B50543033) // "QSCKPT03"

func (c *ckptPayload) encode() []byte {
	c.sort()
	buf := make([]byte, 0, 56+24*len(c.txns)+24*len(c.wpl)+16*len(c.dpt))
	var tmp [8]byte
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(tmp[:], v)
		buf = append(buf, tmp[:]...)
	}
	put64(ckptMagic)
	put64(uint64(c.nextPage))
	put64(uint64(c.nextTID))
	put64(c.beginLSN)
	put64(uint64(len(c.txns)))
	put64(uint64(len(c.wpl)))
	put64(uint64(len(c.dpt)))
	for _, t := range c.txns {
		put64(uint64(t.tid))
		put64(t.lastLSN)
		put64(t.firstLSN)
	}
	for _, w := range c.wpl {
		put64(uint64(w.pid))
		put64(w.lsn)
		committed := uint64(0)
		if w.committed {
			committed = 1
		}
		put64(uint64(w.tid)<<1 | committed)
	}
	for _, d := range c.dpt {
		put64(uint64(d.pid))
		put64(d.rec)
	}
	put64(uint64(len(c.prepared)))
	for _, p := range c.prepared {
		put64(uint64(p.tid))
		put64(p.prepLSN)
		put64(uint64(p.coord))
		put64(uint64(len(p.parts)))
		for _, sh := range p.parts {
			put64(uint64(sh))
		}
	}
	put64(uint64(len(c.decided)))
	for _, d := range c.decided {
		put64(uint64(d.tid))
		put64(d.lsn)
		put64(uint64(len(d.parts)))
		for _, sh := range d.parts {
			put64(uint64(sh))
		}
	}
	return buf
}

func decodeCkpt(b []byte) (*ckptPayload, error) {
	if len(b) < 56 {
		return nil, fmt.Errorf("server: checkpoint payload too short (%d bytes)", len(b))
	}
	get := func(i int) uint64 { return binary.LittleEndian.Uint64(b[8*i:]) }
	if magic := get(0); magic != ckptMagic {
		return nil, fmt.Errorf("server: unknown checkpoint payload magic %#x", magic)
	}
	c := &ckptPayload{
		nextPage: page.ID(get(1)),
		nextTID:  logrec.TID(get(2)),
		beginLSN: get(3),
	}
	// Counts are bounded by the payload before any arithmetic on them, so an
	// absurd count can neither overflow the size check nor index past b.
	if limit := uint64(len(b) / 8); get(4) > limit || get(5) > limit || get(6) > limit {
		return nil, fmt.Errorf("server: checkpoint payload size mismatch")
	}
	nt, nw, nd := int(get(4)), int(get(5)), int(get(6))
	// The fixed-size tables, then at least the trailer's two counts.
	if body := 56 + 24*nt + 24*nw + 16*nd; len(b) < body+16 || len(b)%8 != 0 {
		return nil, fmt.Errorf("server: checkpoint payload size mismatch")
	}
	idx := 7
	for i := 0; i < nt; i++ {
		c.txns = append(c.txns, ckptTxn{
			tid:      logrec.TID(get(idx)),
			lastLSN:  get(idx + 1),
			firstLSN: get(idx + 2),
		})
		idx += 3
	}
	for i := 0; i < nw; i++ {
		pid := page.ID(get(idx))
		lsn := get(idx + 1)
		packed := get(idx + 2)
		c.wpl = append(c.wpl, ckptWPL{
			pid:       pid,
			lsn:       lsn,
			tid:       logrec.TID(packed >> 1),
			committed: packed&1 == 1,
		})
		idx += 3
	}
	for i := 0; i < nd; i++ {
		c.dpt = append(c.dpt, ckptDPT{pid: page.ID(get(idx)), rec: get(idx + 1)})
		idx += 2
	}
	// The 2PC trailer is variable-length (each entry carries a participant
	// list), so it is parsed with a running cursor and exact-consumption
	// check instead of one closed-form size.
	words := len(b) / 8
	bad := func() (*ckptPayload, error) {
		return nil, fmt.Errorf("server: checkpoint 2PC trailer malformed")
	}
	np := get(idx)
	idx++
	if np > uint64(words) {
		return bad()
	}
	for i := 0; i < int(np); i++ {
		if idx+4 > words {
			return bad()
		}
		p := ckptPrepared{
			tid:     logrec.TID(get(idx)),
			prepLSN: get(idx + 1),
			coord:   int(get(idx + 2)),
		}
		nparts := get(idx + 3)
		idx += 4
		if nparts > uint64(words) || idx+int(nparts) > words {
			return bad()
		}
		for j := 0; j < int(nparts); j++ {
			p.parts = append(p.parts, int(get(idx)))
			idx++
		}
		c.prepared = append(c.prepared, p)
	}
	if idx >= words {
		return bad()
	}
	ndec := get(idx)
	idx++
	if ndec > uint64(words) {
		return bad()
	}
	for i := 0; i < int(ndec); i++ {
		if idx+3 > words {
			return bad()
		}
		d := ckptDecided{tid: logrec.TID(get(idx)), lsn: get(idx + 1)}
		nparts := get(idx + 2)
		idx += 3
		if nparts > uint64(words) || idx+int(nparts) > words {
			return bad()
		}
		for j := 0; j < int(nparts); j++ {
			d.parts = append(d.parts, int(get(idx)))
			idx++
		}
		c.decided = append(c.decided, d)
	}
	if idx != words {
		return bad()
	}
	return c, nil
}

// --- checkpoint ------------------------------------------------------------

// Checkpoint writes a checkpoint record, updates the master record in the
// superblock, and reclaims log space. By default it is sharp — the server
// quiesces and every dirty page is flushed for its duration — which is the
// stop-the-world stall the fuzzy variant (Config.FuzzyCheckpoints) removes:
// a fuzzy checkpoint logs the ATT and the DPT (per-page recLSN) under the
// read side of the gate, flushing nothing; the page cleaner retires dirty
// pages in the background and restart redo begins at min(recLSN).
func (sn *Session) Checkpoint() error {
	s := sn.s
	if s.restarting.Load() {
		// Restart owns the gate and the log; a checkpoint racing it would
		// deadlock or observe half-recovered tables. Restart takes its own
		// final checkpoint, so there is nothing for this caller to do.
		return ErrRestarting
	}
	if s.standby.Load() {
		// A standby never originates checkpoint records — it mirrors the
		// primary's, superblock write and log reclamation included, when they
		// arrive in the shipped stream (ApplyShipped).
		return ErrStandby
	}
	if s.cfg.FuzzyCheckpoints {
		return s.checkpointFuzzy(sn)
	}
	s.gate.Lock()
	defer s.gate.Unlock()
	//qslint:allow determinism: wall-clock stall accounting only (CkptStallNs); never logged, never replayed, no control flow depends on it
	start := time.Now()
	err := s.checkpointQuiesced(sn)
	//qslint:allow determinism: wall-clock stall accounting only (CkptStallNs); never logged, never replayed, no control flow depends on it
	atomic.AddInt64(&s.stats.CkptStallNs, int64(time.Since(start)))
	return err
}

// checkpointFuzzy takes an ARIES-style fuzzy checkpoint: sessions keep
// committing (only the read side of the gate is held, so Crash/Restart still
// exclude it), no page is flushed, and the checkpoint record carries the DPT
// so restart knows where redo must begin. ckptMu serializes checkpointers;
// a checkpoint already in flight makes this one redundant (it would log a
// near-identical snapshot), so it is skipped rather than queued — checkpoints
// are maintenance and callers tolerate "not now".
func (s *Server) checkpointFuzzy(sn *Session) error {
	if !s.ckptMu.TryLock() {
		return nil
	}
	defer s.ckptMu.Unlock()
	defer s.enter()()
	return s.checkpointCore(sn)
}

// checkpointQuiesced is the sharp checkpoint body (and Restart's final
// checkpoint). Caller holds gate.W. Under Config.FuzzyCheckpoints the flush
// loop is skipped — the quiesced caller still gets a valid fuzzy-style
// checkpoint record with the DPT logged instead of flushed.
func (s *Server) checkpointQuiesced(sn *Session) error {
	if s.cfg.Mode != ModeWPL && !s.cfg.FuzzyCheckpoints {
		if err := s.flushDirtyQuiesced(sn); err != nil {
			return err
		}
	}
	return s.checkpointCore(sn)
}

// checkpointCore snapshots the tables, appends the checkpoint record, writes
// the master record, and reclaims log space. Caller holds gate.W (sharp,
// restart) or gate.R plus ckptMu (fuzzy).
//
// The analysis begin LSN and the snapshot of the tables are captured inside
// ONE attMu critical section — the other half of logAndNote's invariant
// (replay.go). DPT and WPL-table deletions are the one exception (write-homes
// and installs retire entries under dptMu or wplMu alone), and they only ever
// remove pages whose stored image has caught up — losing one from the
// snapshot loses no redo work.
func (s *Server) checkpointCore(sn *Session) error {
	s.lockTables()
	c := s.tables.snapshot()
	c.beginLSN = s.log.End()
	s.unlockTables()
	// Read after the snapshot, so the counters lie above every id it names.
	s.allocMu.Lock()
	c.nextPage, c.nextTID = s.nextPage, s.nextTID
	s.allocMu.Unlock()
	rec := &logrec.Record{Type: logrec.TypeCheckpoint, PrevLSN: logrec.NoLSN, After: c.encode()}
	ckptLSN, err := s.log.Append(rec)
	if err != nil {
		return err
	}
	sn.meter().LogWrite(s.log.Force())
	if err := s.writeSuperblock(sn, c.masterRecord(ckptLSN)); err != nil {
		return err
	}
	atomic.AddInt64(&s.stats.Checkpoints, 1)
	// Restart now reads nothing below head. Moving the redo holder there and
	// truncating to it is all this checkpoint knows about retention: whoever
	// else still needs older log (DESIGN.md "Log retention") holds the head
	// back inside Truncate, which then advances as far as they allow.
	head := c.reclaimHead(ckptLSN)
	s.redo.Set(head)
	return s.log.Truncate(head)
}

// masterRecord is the superblock that names this checkpoint, logged at
// ckptLSN, as the newest.
func (c *ckptPayload) masterRecord(ckptLSN uint64) superblock {
	return superblock{checkpointLSN: ckptLSN, nextPage: c.nextPage, nextTID: c.nextTID, hasCheckpoint: true}
}

// reclaimHead returns the LSN below which the log may be reclaimed once this
// checkpoint, logged at ckptLSN, is the master record's: the oldest of the
// analysis scan start, any active transaction's first record, any WPL copy
// still awaiting install, and any dirty page's recLSN (redo starts there).
func (c *ckptPayload) reclaimHead(ckptLSN uint64) uint64 {
	head := min(ckptLSN, c.beginLSN)
	for _, t := range c.txns {
		if t.firstLSN != logrec.NoLSN && t.firstLSN < head {
			head = t.firstLSN
		}
	}
	for _, w := range c.wpl {
		head = min(head, w.lsn)
	}
	for _, d := range c.dpt {
		head = min(head, d.rec)
	}
	return head
}

// --- crash and restart -----------------------------------------------------

// Crash simulates a server failure: every volatile structure (buffer pool,
// transaction tables, WPL table, lock table, unforced log tail) is lost. The
// data volume and the forced log survive. Committers parked in the group-
// commit flusher are woken (their commit outcome is whatever the surviving
// log says), and queued background installs are invalidated by the WPL
// generation bump.
func (s *Server) Crash() {
	s.gate.Lock()
	defer s.gate.Unlock()
	s.pool.Clear()
	s.install(seed(s.cfg.Mode, nil))
	s.locks.Reset()
	s.log.Crash()
}

// Restart recovers the server from stable state after a crash, leaving it
// ready for new transactions.
func (sn *Session) Restart() error {
	s := sn.s
	s.gate.Lock()
	defer s.gate.Unlock()
	s.restarting.Store(true)
	defer s.restarting.Store(false)
	atomic.AddInt64(&s.stats.Restarts, 1)
	sb, err := s.readSuperblock()
	if err != nil {
		return err
	}
	s.allocMu.Lock()
	s.nextPage = max(s.nextPage, sb.nextPage)
	s.nextTID = max(s.nextTID, sb.nextTID)
	s.allocMu.Unlock()
	if _, ok := s.store.(*disk.Checksummed); ok {
		// A checksummed volume is verified before any recovery work: every
		// corrupt page is repaired here (from the live log or the archive),
		// so redo and undo replay over sound pages. This cannot be deferred
		// to redo's own fetches — they run inside a log scan, which holds
		// the log mutex repair itself needs.
		if err := s.verifyVolumeQuiesced(sn); err != nil {
			return err
		}
	}
	start := s.log.Head()
	var ckpt *ckptPayload
	if sb.hasCheckpoint {
		rec, err := s.log.ReadAt(sb.checkpointLSN)
		switch {
		case errors.Is(err, wal.ErrBeyondEnd) || errors.Is(err, wal.ErrTruncated):
			// The log does not contain the checkpoint: this is a process
			// restart with a fresh (in-memory) log rather than a crash. The
			// superblock was written after a sharp checkpoint flushed every
			// page, so the volume is consistent as of that checkpoint; only
			// the allocation counters need restoring. (Under fuzzy
			// checkpoints the superblock does NOT imply a flushed volume —
			// a fuzzy deployment on a persistent store must reach this point
			// via orderly shutdown, whose FlushAll provides the same
			// guarantee; see DESIGN.md §13.)
			//
			// The volume's pages still carry page LSNs from the log that wrote
			// them, and conditional redo skips a record whose LSN is not above
			// the page's: a log that started over at FirstLSN would have every
			// commit silently skipped at the next crash until it outgrew the
			// old one. So an empty log below the checkpoint continues above
			// anything that log can have stamped — its head never passed the
			// checkpoint record, so its end was at most one capacity beyond.
			if s.log.End() <= sb.checkpointLSN {
				if err := s.log.StartAt(sb.checkpointLSN + s.log.Capacity()); err != nil {
					return fmt.Errorf("server: the log ends below the volume's checkpoint at %d yet is not empty: %w",
						sb.checkpointLSN, err)
				}
			}
			return s.checkpointQuiesced(sn)
		case err != nil:
			return fmt.Errorf("server: reading checkpoint: %w", err)
		}
		ckpt, err = decodeCkpt(rec.After)
		if err != nil {
			return err
		}
		// Analysis rescans the window between the snapshot capture point and
		// the record's own append (empty for a sharp checkpoint); the scan
		// passes over the checkpoint record itself, which analysis ignores.
		start = min(sb.checkpointLSN, ckpt.beginLSN)
	}
	// Analysis (§3.3, §3.4.3), whatever the mode: the tables as the checkpoint
	// logged them, advanced record by record over the window above it.
	sn.meter().LogRead(wal.PagesInRange(start, s.log.StableEnd()))
	tb := seed(s.cfg.Mode, ckpt)
	err = s.log.Scan(start, func(r *logrec.Record) bool {
		tb.note(r)
		s.bumpAllocFor(r)
		return true
	})
	if err != nil {
		return err
	}
	// Bring the pages current from the tables analysis left: redo, or under WPL
	// the installs.
	if s.cfg.Mode == ModeWPL {
		err = s.wplInstallQuiesced(sn, tb)
	} else {
		err = s.redoQuiesced(sn, tb.dpt)
	}
	if err != nil {
		return err
	}
	// Whoever is still in the ATT neither committed nor finished rolling back.
	// In TID order: undo appends CLRs, and their LSNs must be identical run to
	// run (map iteration is randomized).
	active := make([]*txn, 0, len(tb.att))
	for _, t := range tb.att {
		active = append(active, t)
	}
	sort.Slice(active, func(i, j int) bool { return active[i].tid < active[j].tid })
	// From here the analysis result is the server's tables, and what is left of
	// recovery runs on them through the live server's own paths.
	s.install(tb)
	for _, t := range active {
		if t.prepared {
			// In doubt: the branch voted yes and the coordinator's outcome is
			// unknown here. Its pages are current (redo reapplied them; under WPL
			// its copies stay in the table, off their permanent locations); it
			// stays in the ATT, locks re-acquired, neither committed nor rolled
			// back, for recovery resolution (presumed abort on a coordinator
			// miss).
			err = s.resurrectInDoubt(t, start)
		} else {
			// A loser (ESM/REDO; WPL dropped its own with their copies): rolled
			// back the way Abort rolls back.
			err = s.rollback(sn, t)
		}
		if err != nil {
			return err
		}
	}
	sn.meter().LogWrite(s.log.Force())
	return s.checkpointQuiesced(sn)
}

// bumpAllocFor advances the allocation counters past a scanned record's ids,
// in whole strides so a sharded server stays in its residue class even when
// the record carries another shard's id (an adopted cross-shard TID). Caller
// holds gate.W (restart) or allocMu (standby apply).
func (s *Server) bumpAllocFor(r *logrec.Record) {
	st := s.stride()
	if r.TID >= s.nextTID {
		n := (uint64(r.TID)-uint64(s.nextTID))/st + 1
		s.nextTID += logrec.TID(n * st)
	}
	if r.Page >= s.nextPage {
		n := (uint64(r.Page)-uint64(s.nextPage))/st + 1
		s.nextPage += page.ID(n * st)
	}
}

// redoRelevant reports whether r must be considered by redo given the DPT.
func redoRelevant(r *logrec.Record, dpt map[page.ID]dptEntry) bool {
	switch r.Type {
	case logrec.TypeUpdate, logrec.TypePageImage, logrec.TypeCLR:
	default:
		return false
	}
	e, ok := dpt[r.Page]
	return ok && r.LSN >= e.rec
}

// redoQuiesced is restart's redo for ESM/REDO: repeat history for the pages
// in the analysis DPT from the oldest recLSN, conditional on page LSN, then
// prune the DPT to the frames redo left dirty, so the checkpoint that ends
// restart — and every fuzzy checkpoint and cleaner pass after it — sees the
// redone-but-unflushed pages and nothing else (conditional redo leaves
// pageLSN >= newest for any page it touched). Caller holds gate.W.
func (s *Server) redoQuiesced(sn *Session, dpt map[page.ID]dptEntry) error {
	s.redoApplied = nil
	redoFrom := logrec.NoLSN
	for _, e := range dpt {
		redoFrom = min(redoFrom, e.rec)
	}
	if redoFrom == logrec.NoLSN {
		return nil
	}
	if err := s.redoScan(sn, dpt, redoFrom); err != nil {
		return err
	}
	dirty := make(map[page.ID]bool)
	for _, pid := range s.pool.DirtyPages() {
		dirty[pid] = true
	}
	for pid := range dpt {
		if !dirty[pid] {
			delete(dpt, pid)
		}
	}
	return nil
}

// redoScan replays the redo-relevant records from redoFrom on. With one
// worker it replays inline, charging the session per record as the serial
// server did. With several, it scans once and fans records out by page ID — a
// page's records all go to the same worker, preserving per-page order — then
// bulk-charges the session for the aggregate work.
func (s *Server) redoScan(sn *Session, dpt map[page.ID]dptEntry, redoFrom uint64) error {
	nw := s.cfg.RedoWorkers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	if nw == 1 {
		var applied int64
		var redoErr error
		err := s.log.Scan(redoFrom, func(r *logrec.Record) bool {
			if !redoRelevant(r, dpt) {
				return true
			}
			n, err := s.replayOne(sn, r, true)
			applied += n
			if err != nil {
				redoErr = err
				return false
			}
			return true
		})
		s.redoApplied = []int64{applied}
		if err != nil {
			return err
		}
		return redoErr
	}

	chans := make([]chan *logrec.Record, nw)
	applied := make([]int64, nw)
	errs := make([]error, nw)
	var wg sync.WaitGroup
	for i := range chans {
		chans[i] = make(chan *logrec.Record, 64)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := range chans[i] {
				if errs[i] != nil {
					continue // drain after failure
				}
				n, err := s.replayOne(nil, r, true)
				applied[i] += n
				if err != nil {
					errs[i] = err
				}
			}
		}(i)
	}
	// Snapshot counters so the session can be bulk-charged for work the
	// meterless workers perform.
	preReads := atomic.LoadInt64(&s.stats.DataReads)
	preWrites := atomic.LoadInt64(&s.stats.DataWrites)
	preLogPages := s.log.PagesWritten()
	scanErr := s.log.Scan(redoFrom, func(r *logrec.Record) bool {
		if !redoRelevant(r, dpt) {
			return true
		}
		// Clone: Scan's record aliases its reusable decode buffer, and this
		// one crosses a channel into another goroutine.
		chans[int(uint64(r.Page)%uint64(nw))] <- r.Clone()
		return true
	})
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	s.redoApplied = applied
	var total int64
	for _, n := range applied {
		total += n
	}
	sn.meter().ServerCompute(time.Duration(total) * sn.params().ServerApply)
	sn.meter().DataRead(int(atomic.LoadInt64(&s.stats.DataReads) - preReads))
	sn.meter().DataWriteAsync(int(atomic.LoadInt64(&s.stats.DataWrites) - preWrites))
	sn.meter().LogWrite(int(s.log.PagesWritten() - preLogPages))
	if scanErr != nil {
		return scanErr
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// wplInstallQuiesced brings the volume current under WPL (§3.4.3) from the
// tables analysis left. A loser — still in the ATT, not prepared — leaves it
// with its copies, unlogged: abort by ignoring. Then the newest committed copy
// of each page is installed and everything beneath it is obsolete, so what
// stays in the table is the in-doubt branches' copies, with nothing below the
// oldest but the store's now-committed image.
func (s *Server) wplInstallQuiesced(sn *Session, tb tables) error {
	for tid, t := range tb.att {
		if !t.prepared {
			delete(tb.att, tid)
		}
	}
	var installs []*wplEntry
	for pid, e := range tb.wpl {
		// Uncommitted copies sit on top of the chain: their writer held the
		// page's X lock from its first ship on.
		var kept, oldest *wplEntry
		for ; e != nil && !e.committed; e = e.prev {
			if tb.att[e.tid] == nil {
				continue
			}
			if oldest == nil {
				kept = e
			} else {
				oldest.prev = e
			}
			oldest = e
		}
		if e != nil {
			installs = append(installs, e)
		}
		if kept == nil {
			delete(tb.wpl, pid)
			continue
		}
		oldest.prev = nil
		tb.wpl[pid] = kept
	}
	// Normal processing could resume here; install everything so the log can
	// be reclaimed by the checkpoint that follows. Installs run in page
	// order for run-to-run reproducibility.
	sort.Slice(installs, func(i, j int) bool { return installs[i].pid < installs[j].pid })
	for _, e := range installs {
		rec, err := s.log.ReadAt(e.lsn)
		if err != nil {
			return fmt.Errorf("server: WPL restart install %v: %w", e.pid, err)
		}
		sn.meter().LogRead(1)
		if err := s.storeWrite(sn, e.pid, rec.After); err != nil {
			return err
		}
		atomic.AddInt64(&s.stats.WPLInstalls, 1)
	}
	return nil
}

// FlushAll writes every dirty buffered page home (used by orderly shutdown
// in the standalone server; not part of the measured protocols).
func (sn *Session) FlushAll() error {
	s := sn.s
	s.gate.Lock()
	defer s.gate.Unlock()
	if s.cfg.Mode == ModeWPL {
		return nil // installs happen at commit; nothing safe to force early
	}
	return s.flushDirtyQuiesced(sn)
}
