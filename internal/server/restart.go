package server

// Checkpointing, crash simulation and restart recovery.
//
// A checkpoint writes home the pages dirty when it began (cleanPages,
// cleaner.go), logs the active-transaction table and what is left of the
// dirty page table, and truncates the log below the oldest LSN restart or an
// active transaction still needs (reclaim). Restart then reads the log once,
// forward, from the oldest logged recLSN: each record is noted in the
// tables (analysis, seeded from the checkpoint) and replayed onto its page
// conditionally on the page LSN (redo) as it is read — the step a standby
// takes for a shipped record — and losers are rolled back with CLRs. What a
// record does to the tables and to a page is replay.go's, and how a page
// reaches the volume is writeback.go's; this file owns what is around them:
// where the pass begins, DPT pruning, the phase timeline. Redo is sequential
// because the log is read in order; undo is too (CLR LSNs must be
// deterministic). Restart reads only the pages it recovers, each verified
// and, if corrupt, repaired as it is fetched; the whole volume is walked only
// when the log is empty (topPageLSN).
//
// WPL checkpoints write the WPL table to the log (paper §3.4.3); restart runs
// the same pass, which replays nothing and leaves the WPL table with every
// copy's fate settled, and installs the newest committed copy of each page.
// The paper reads that window backwards; reading it forwards builds the same
// table (DESIGN.md §3).
//
// Checkpoint holds the read side of the quiesce gate, so sessions keep
// committing while it runs. Crash, Restart and FlushAll take the write side,
// so they observe a server with no session operation in flight; the leaf
// mutexes are still taken around map access to keep the lock discipline
// uniform.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/costmodel"
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
// the LSN restart redo must scan from for it. A checkpoint logs the entries
// its page writes could not retire: pages re-dirtied meanwhile, too hot to
// write, or whose logged records outrun the shipped image.
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

// Checkpoint writes home every page dirty at its start, then writes a
// checkpoint record that logs what is left of the DPT, updates the master
// record in the superblock and reclaims log space. Sessions keep committing
// throughout: it holds only the read side of the gate (Crash and Restart
// still exclude it), and ckptMu makes a second checkpointer wait for the
// first, so no checkpoint is skipped. A page re-dirtied meanwhile, one too
// hot to write this pass, or one whose image has not arrived yet stays in
// the logged DPT, and restart redo begins at its recLSN (DESIGN.md §13).
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
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	defer s.enter()()
	return s.checkpointLocked(sn)
}

// checkpointLocked is the checkpoint body: every page dirty at its start
// written home through the cleaner's per-page path, then the record. The
// caller holds gate.R and ckptMu (Checkpoint) or gate.W (Restart's closing
// checkpoint).
func (s *Server) checkpointLocked(sn *Session) error {
	if _, err := s.cleanPages(sn, -1); err != nil {
		return err
	}
	return s.checkpointCore(sn)
}

// checkpointCore snapshots the tables, appends the checkpoint record, and
// reclaims log space. Caller holds gate.R plus ckptMu (Checkpoint) or gate.W
// (restart).
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
	return s.reclaim(sn, c.masterRecord(ckptLSN), c.reclaimHead(ckptLSN))
}

// reclaim is the one tail of a checkpoint, the primary's and the standby's
// mirrored one: the checkpoint record is made stable, then named by the master
// record sb, then the log below head — which restart from sb never reads — is
// reclaimed. A volume sync, once the store has one, goes before the
// master-record write. Whoever else still needs older log (DESIGN.md "Log
// retention") holds the head back inside Truncate.
func (s *Server) reclaim(sn *Session, sb superblock, head uint64) error {
	sn.meter().Add(costmodel.LogForce, s.log.Force())
	if err := s.writeSuperblock(sn, sb); err != nil {
		return err
	}
	atomic.AddInt64(&s.stats.Checkpoints, 1)
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
// data volume and the forced log survive. Committers waiting for a log
// sync are woken (their commit outcome is whatever the surviving log says).
func (s *Server) Crash() {
	s.gate.Lock()
	defer s.gate.Unlock()
	s.pool.Clear()
	s.install(seed(s.cfg.Mode, nil))
	s.locks.Reset()
	s.log.Crash()
}

// Restart recovers the server from stable state after a crash, leaving it
// ready for new transactions: read the master record, repeat history in one
// pass over the stable log, roll the losers back, checkpoint. StatsX.Restart
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
	sb, err := s.readSuperblock(sn)
	if err != nil {
		return err
	}
	s.allocMu.Lock()
	s.nextPage = max(s.nextPage, sb.nextPage)
	s.nextTID = max(s.nextTID, sb.nextTID)
	s.allocMu.Unlock()
	// No page is read ahead of the pass: each one the pass or undo reads is
	// verified as it is fetched, and a corrupt one is repaired there
	// (fetchShardLocked). A page torn by the crash is on that path — in the
	// logged DPT or written to by a record in the window — and a whole-page
	// image needs no stored copy (replayOne). Rot elsewhere is left to demand
	// reads and the scrubber.
	start := s.log.Head()
	var ckpt *ckptPayload
	switch {
	case s.log.End() == start:
		// An empty log: a fresh one over a volume whose pages carry LSNs of an
		// earlier process's log, which took with it whatever its checkpoints
		// had not written home. Redo lands a record only above its page's LSN,
		// so the new log starts one above the highest page LSN on the volume.
		var top uint64
		top, rs.PagesVerified, err = s.topPageLSN(sn)
		if err == nil && top >= start {
			start = top + 1
			err = s.log.StartAt(start)
		}
		if err != nil {
			return fmt.Errorf("server: starting a fresh log above the volume's page LSNs: %w", err)
		}
	case sb.hasCheckpoint:
		rec, err := s.log.ReadAt(sb.checkpointLSN, nil)
		if err != nil {
			return fmt.Errorf("server: reading checkpoint: %w", err)
		}
		ckpt, err = decodeCkpt(rec.After)
		if err != nil {
			return err
		}
		// Analysis rescans the window between the snapshot capture point and
		// the record's own append (empty if nothing was logged meanwhile); the
		// scan passes over the checkpoint record itself, which analysis
		// ignores.
		start = min(sb.checkpointLSN, ckpt.beginLSN)
	}
	rs.VerifyNs = lap(&clock)
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
	sn.meter().Add(costmodel.LogRead, wal.PagesInRange(from, s.log.StableEnd()))
	var redoErr error
	end, err := s.log.ScanFrom(from, func(r *logrec.Record) bool {
		rs.RecordsScanned++
		var n int64
		switch {
		case r.LSN >= start:
			tb.note(r)
			n, redoErr = s.repeat(sn, r)
		case redoRelevant(r, tb.dpt):
			n, redoErr = s.replayOne(sn, r)
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
		// ends restart — and every checkpoint and cleaner pass after it —
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
	sn.meter().Add(costmodel.LogForce, s.log.Force())
	rs.UndoNs = lap(&clock)
	err = s.checkpointLocked(sn)
	rs.CheckpointNs = lap(&clock)
	return err
}

// topPageLSN walks the volume for a fresh log, which must start above the
// highest page LSN on it, and returns that LSN and the number of pages read.
// Each stored page is read once and verified on the way. A corrupt page below
// the superblock's allocation frontier is repaired — from the archive, since
// the fresh log holds nothing — and an unrepairable one fails the restart. A
// corrupt page above the frontier is skipped: no page there is allocated, and
// the one next born at its id is logged whole, an image redo lands over any
// stored copy (replayOne).
func (s *Server) topPageLSN(sn *Session) (top uint64, read int64, err error) {
	s.allocMu.Lock()
	frontier := s.nextPage
	s.allocMu.Unlock()
	buf := make([]byte, page.Size)
	for pid, end := superblockPage+1, page.ID(s.store.Pages()); pid < end; pid++ {
		err := s.storeRead(sn, pid, buf)
		if errors.Is(err, disk.ErrNotFound) {
			continue
		}
		read++
		if errors.Is(err, disk.ErrCorruptPage) {
			atomic.AddInt64(&s.stats.ChecksumFailures, 1)
			if pid >= frontier {
				continue
			}
			sh := s.pool.Lock(pid)
			err = s.repairShardLocked(sn, sh, pid, err, buf)
			sh.Unlock()
		}
		if err != nil {
			return top, read, err
		}
		top = max(top, page.Wrap(buf).LSN())
	}
	return top, read, nil
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
	var scratch []byte
	for _, e := range installs {
		rec, err := s.log.ReadAt(e.lsn, &scratch)
		if err != nil {
			return fmt.Errorf("server: WPL restart install %v: %w", e.pid, err)
		}
		sn.meter().Add(costmodel.LogRead, 1)
		if err := s.storeWrite(sn, e.pid, rec.After); err != nil {
			return err
		}
		atomic.AddInt64(&s.stats.WPLInstalls, 1)
	}
	return nil
}

// FlushAll writes every dirty page in the DPT home with the server quiesced
// (for tests; not part of the measured protocols).
func (sn *Session) FlushAll() error {
	s := sn.s
	s.gate.Lock()
	defer s.gate.Unlock()
	_, err := s.cleanPages(sn, -1)
	return err
}
