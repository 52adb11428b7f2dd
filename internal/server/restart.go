package server

// Checkpointing, crash simulation and restart recovery.
//
// ESM/REDO take sharp ARIES-style checkpoints: all dirty pages are flushed
// (flushDirtyQuiesced, writeback.go), the active-transaction table is logged,
// and the log is truncated below the oldest LSN any active transaction still
// needs. Restart then reads the log once, forward: each record is noted in the
// tables (analysis, seeded from the checkpoint) and replayed onto its page
// conditionally on the page LSN (redo) as it is read — the step a standby
// takes for a shipped record — and losers are rolled back with CLRs. What a
// record does to the tables and to a page is replay.go's, and how a page
// reaches the volume is writeback.go's; this file owns what is around them:
// where the pass begins, DPT pruning, the phase timeline. Redo is sequential
// because the log is read in order; undo is too (CLR LSNs must be
// deterministic).
//
// WPL checkpoints write the WPL table to the log (paper §3.4.3); restart runs
// the same pass, which replays nothing and leaves the WPL table with every
// copy's fate settled, and installs the newest committed copy of each page.
// The paper reads that window backwards; reading it forwards builds the same
// table (DESIGN.md §3).
//
// Every entry point here takes the write side of the quiesce gate, so it
// observes a server with no session operation in flight; the leaf mutexes
// are still taken around map access to keep the lock discipline uniform.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
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
// ready for new transactions: verify the volume, repeat history in one pass
// over the stable log, roll the losers back, checkpoint. StatsX.Restart
// reports the phases.
func (sn *Session) Restart() error {
	s := sn.s
	s.gate.Lock()
	defer s.gate.Unlock()
	s.restarting.Store(true)
	defer s.restarting.Store(false)
	atomic.AddInt64(&s.stats.Restarts, 1)
	var (
		rs    RestartStats
		clock time.Time
	)
	lap(&clock)
	defer func() { s.lastRestart = rs }()
	sb, err := s.readSuperblock()
	if err != nil {
		return err
	}
	s.allocMu.Lock()
	s.nextPage = max(s.nextPage, sb.nextPage)
	s.nextTID = max(s.nextTID, sb.nextTID)
	s.allocMu.Unlock()
	if _, ok := s.store.(*disk.Checksummed); ok {
		// A checksummed volume is verified before any recovery work, so redo and
		// undo replay over sound pages: every corrupt page below the
		// superblock's allocation frontier is repaired here, from the live log
		// or the archive. A page born above it has its creation image in the
		// pass's window, and a page image needs no stored copy (replayOne).
		scanned := atomic.LoadInt64(&s.stats.ScrubScanned)
		if err := s.verifyVolumeQuiesced(sn); err != nil {
			return err
		}
		rs.PagesVerified = atomic.LoadInt64(&s.stats.ScrubScanned) - scanned
	}
	rs.VerifyNs = lap(&clock)
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
			err = s.checkpointQuiesced(sn)
			rs.CheckpointNs = lap(&clock)
			return err
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
	// The pass (§3.3 analysis and redo, §3.4.3), whatever the mode: the tables
	// as the checkpoint logged them, advanced record by record over the window
	// above it, each record repeated as it is read — note, then repeat, the
	// step a standby takes for a shipped record. A page the checkpoint logged as
	// dirty may owe redo from below the analysis start, so the pass begins at
	// the oldest logged recLSN and on the way up replays, without noting, what
	// the logged DPT covers. ScanFrom, not Scan: replaying can evict a dirty
	// page, and writing it home asks the log whether its newest record is
	// stable, which a callback under the log's lock cannot. After a crash every
	// retained record is stable, so nothing is left unread.
	tb := seed(s.cfg.Mode, ckpt)
	from := start
	for _, e := range tb.dpt {
		from = min(from, e.rec)
	}
	sn.meter().LogRead(wal.PagesInRange(from, s.log.StableEnd()))
	var redoErr error
	end, err := s.log.ScanFrom(from, nil, func(r *logrec.Record) bool {
		rs.RecordsScanned++
		var n int64
		switch {
		case r.LSN >= start:
			tb.note(r)
			n, redoErr = s.repeat(sn, r)
		case redoRelevant(r, tb.dpt):
			n, redoErr = s.replayOne(sn, r, true)
		}
		rs.RecordsRedone += n
		return redoErr == nil
	})
	rs.BytesScanned = int64(end - from)
	if err == nil {
		err = redoErr
	}
	if err != nil {
		return err
	}
	if s.cfg.Mode == ModeWPL {
		if err := s.wplInstallQuiesced(sn, tb); err != nil {
			return err
		}
	} else {
		// Prune the DPT to the frames redo left dirty, so the checkpoint that
		// ends restart — and every fuzzy checkpoint and cleaner pass after it —
		// sees the redone-but-unflushed pages and nothing else (conditional redo
		// leaves pageLSN >= newest for any page it touched).
		dirty := make(map[page.ID]dptEntry)
		for _, pid := range s.pool.DirtyPages() {
			if e, ok := tb.dpt[pid]; ok {
				dirty[pid] = e
			}
		}
		tb.dpt = dirty
	}
	rs.PassNs = lap(&clock)
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
			rs.InDoubt++
			err = s.resurrectInDoubt(t, start)
		} else {
			// A loser (ESM/REDO; WPL dropped its own with their copies): rolled
			// back the way Abort rolls back.
			rs.Losers++
			err = s.rollback(sn, t)
		}
		if err != nil {
			return err
		}
	}
	sn.meter().LogWrite(s.log.Force())
	rs.UndoNs = lap(&clock)
	err = s.checkpointQuiesced(sn)
	rs.CheckpointNs = lap(&clock)
	return err
}

// lap times restart's phases: the nanoseconds since the previous lap, whose
// time it keeps in last (the first call starts the clock).
//
//qslint:allow determinism: wall-clock phase accounting only (StatsX.Restart); never logged, never replayed, no control flow depends on it
func lap(last *time.Time) int64 {
	now := time.Now()
	d := now.Sub(*last)
	*last = now
	return int64(d)
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
