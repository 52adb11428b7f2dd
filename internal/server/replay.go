package server

// Replay: the one piece of code through which a log record reaches a page
// image, and the one through which it reaches the recovery tables
// (DESIGN.md §2.1).
//
//   - replay is the paper's redo rule (§3.3): copy the record's after-image
//     onto the page iff pageLSN < LSN, then stamp the LSN. Restart's pass and
//     the standby's ApplyShipped call it conditionally (repeat: note a record,
//     then repeat it, is how both take in a log they did not write);
//     REDO-mode ShipLog and undo's CLR call it unconditionally (making
//     history). Every caller owns its own latching, dirty marking and
//     metering — replay only ever touches the image it is handed.
//   - PageRebuilder is replay aimed at one page with no server around it:
//     base image + record stream → the image the stored copy should hold.
//     Scrub's live-log repair and archive.RepairPage are its two feeders.
//   - tables is the recovery state — the ATT, the DPT, the WPL table and the
//     2PC decided map — as one value with three operations (DESIGN.md §2.5):
//     seed (checkpoint → tables), note (record → tables: the analysis step of
//     §3.3 and §3.4.3) and snapshot (tables → checkpoint). Restart runs seed
//     and note over a private value, in one forward scan whatever the mode,
//     and then makes it the server's; a live server — primary or standby —
//     embeds one and advances it through logAndNote, the only way a
//     transactional record enters its log.

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/logrec"
	"repro/internal/page"
	"repro/internal/wal"
)

// --- record → page image ----------------------------------------------------

// checkGeometry reports whether r is a redo-able record whose images fit a
// page. ShipLog runs it on client-shipped records before they are logged (a
// record that fails here would otherwise sit in the log as poison for every
// later redo and undo); replay runs it again so that no record, from any
// source, is ever sliced out of range.
func checkGeometry(r *logrec.Record) error {
	switch r.Type {
	case logrec.TypeUpdate, logrec.TypeCLR:
		// Undo copies an update's before-image over the same range, so the
		// two images must agree in length.
		if r.Type == logrec.TypeUpdate && len(r.Before) != len(r.After) {
			return fmt.Errorf("server: %v on %v: before-image is %d bytes, after-image %d", r.Type, r.Page, len(r.Before), len(r.After))
		}
		if int(r.Off)+len(r.After) > page.Size {
			return fmt.Errorf("server: %v on %v: bytes [%d,%d) fall outside the page", r.Type, r.Page, r.Off, int(r.Off)+len(r.After))
		}
	case logrec.TypePageImage:
		if len(r.After) != page.Size {
			return fmt.Errorf("server: %v of %v is %d bytes", r.Type, r.Page, len(r.After))
		}
	default:
		return fmt.Errorf("server: cannot apply %v", r.Type)
	}
	return nil
}

// replay applies r's redo information to img, a page.Size page image, and
// stamps r.LSN on it. With conditional set it repeats history: the record is
// skipped when the image's pageLSN shows it already holds the update
// (pageLSN 0 is a freshly formatted page, which holds nothing). Without it
// the record is new history and always lands. Allocation-free; a malformed
// record is an error and leaves img untouched.
func replay(img []byte, r *logrec.Record, conditional bool) (applied bool, err error) {
	if len(img) != page.Size {
		return false, fmt.Errorf("server: replay onto a %d-byte image", len(img))
	}
	if err := checkGeometry(r); err != nil {
		return false, err
	}
	pg := page.Wrap(img)
	if lsn := pg.LSN(); conditional && lsn != 0 && lsn >= r.LSN {
		return false, nil
	}
	off := 0
	if r.Type != logrec.TypePageImage {
		off = int(r.Off)
	}
	copy(img[off:off+len(r.After)], r.After)
	pg.SetLSN(r.LSN)
	return true, nil
}

// ErrNoBaseImage means a page rebuild met an update before any image of the
// page: the page was born before the stream begins, so only a source that
// reaches further back (the archive's backup) can rebuild it.
var ErrNoBaseImage = errors.New("server: update precedes any base image of the page")

// PageRebuilder folds a base image and a stream of log records, fed in LSN
// order, into the bytes one page's stored copy should hold. It is scheme
// aware: ESM/REDO replay the page's records conditionally over the base (a
// record the base already contains is skipped, so feeding overlapping
// sources, or the same stream twice over the result, is harmless); WPL keeps
// the newest whole-page image whose transaction committed within the stream,
// verbatim — installs never re-stamp an LSN, and the no-steal rule forbids an
// uncommitted copy at a permanent location.
type PageRebuilder struct {
	pid page.ID
	wpl bool
	img []byte // nil until a base or a whole-page image is known
	// WPL only: every logged copy of pid, oldest first, and the transactions
	// with a commit record in the stream.
	copies    []wplCopy
	committed map[logrec.TID]bool
}

type wplCopy struct {
	tid  logrec.TID
	data []byte
}

// NewPageRebuilder starts a rebuild of pid under mode. base, when non-nil, is
// the page's image as of the start of the stream (copied).
func NewPageRebuilder(mode Mode, pid page.ID, base []byte) *PageRebuilder {
	b := &PageRebuilder{pid: pid, wpl: mode == ModeWPL}
	if base != nil {
		b.img = append([]byte(nil), base...)
	}
	if b.wpl {
		b.committed = make(map[logrec.TID]bool)
	}
	return b
}

// Feed folds one record into the rebuild. Records for other pages are
// ignored. The record is not retained.
func (b *PageRebuilder) Feed(r *logrec.Record) error {
	if b.wpl {
		switch {
		case r.Type == logrec.TypeCommit:
			b.committed[r.TID] = true
		case r.Type == logrec.TypePageImage && r.Page == b.pid:
			if err := checkGeometry(r); err != nil {
				return err
			}
			b.copies = append(b.copies, wplCopy{tid: r.TID, data: append([]byte(nil), r.After...)})
		}
		return nil
	}
	if r.Page != b.pid {
		return nil
	}
	switch r.Type {
	case logrec.TypeUpdate, logrec.TypeCLR, logrec.TypePageImage:
	default:
		return nil
	}
	if b.img == nil {
		if r.Type != logrec.TypePageImage {
			return fmt.Errorf("%w: %v of %v at LSN %d", ErrNoBaseImage, r.Type, b.pid, r.LSN)
		}
		b.img = make([]byte, page.Size)
	}
	_, err := replay(b.img, r, true)
	return err
}

// FeedLog feeds the stable records of l at or above from, the live-log leg of
// a rebuild. The cut at the stable end keeps the rebuilt page's LSN inside
// the stable log (the write-ahead rule) and excludes whatever a concurrent
// transaction appends mid-rebuild; callers force first if they want the
// freshest image.
func (b *PageRebuilder) FeedLog(l *wal.Log, from uint64) error {
	stable := l.StableEnd()
	var feedErr error
	err := l.Scan(l.Head(), func(r *logrec.Record) bool {
		if r.LSN+uint64(r.EncodedSize()) > stable {
			return false
		}
		if r.LSN >= from {
			feedErr = b.Feed(r)
		}
		return feedErr == nil
	})
	if feedErr != nil {
		return feedErr
	}
	return err
}

// Image returns the rebuilt page, or nil when neither the base nor the
// stream determined it. The slice is the rebuilder's own.
func (b *PageRebuilder) Image() []byte {
	for i := len(b.copies) - 1; i >= 0; i-- {
		if b.committed[b.copies[i].tid] {
			return b.copies[i].data
		}
	}
	// WPL with no committed copy in the stream: the base — itself an installed
	// committed state, no newer than any committed copy still logged — stands.
	return b.img
}

// --- record → tables --------------------------------------------------------

// newTxn returns an ATT entry with nothing logged yet.
func newTxn(tid logrec.TID) *txn {
	return &txn{tid: tid, lastLSN: logrec.NoLSN, firstLSN: logrec.NoLSN, pageLSN: make(map[page.ID]uint64)}
}

// chain links a record just logged for t at lsn into its undo chain.
func (t *txn) chain(lsn uint64) {
	t.lastLSN = lsn
	if t.firstLSN == logrec.NoLSN {
		t.firstLSN = lsn
	}
}

// noteDirty records in dpt that pid has a logged record at lsn: a clean page
// opens an entry with recLSN = lsn (insert-if-absent keeps an older recLSN,
// where redo for the page must begin), and newest advances so a flushed image
// retires the entry only once it has caught up. A nil dpt (WPL keeps none) is
// a no-op.
func noteDirty(dpt map[page.ID]dptEntry, pid page.ID, lsn uint64) {
	if dpt == nil {
		return
	}
	e, ok := dpt[pid]
	if !ok {
		e = dptEntry{rec: lsn}
	}
	if lsn > e.newest {
		e.newest = lsn
	}
	dpt[pid] = e
}

// markDirty is noteDirty on the live DPT.
func (s *Server) markDirty(pid page.ID, lsn uint64) {
	s.dptMu.Lock()
	noteDirty(s.dpt, pid, lsn)
	s.dptMu.Unlock()
}

// wplPush links a copy of pid logged at lsn by tid into the WPL table as the
// page's newest, above whatever was newest before. Insert-if-newer, the rule
// noteDirty applies to the DPT: a copy the table already holds — it can be in
// a checkpoint's logged table and in the scan window above it — lands once,
// and wplPush reports nil. A nil table (ESM/REDO keep none) is a no-op.
func wplPush(wpl map[page.ID]*wplEntry, pid page.ID, lsn uint64, tid logrec.TID) *wplEntry {
	head := wpl[pid]
	if wpl == nil || (head != nil && head.lsn >= lsn) {
		return nil
	}
	e := &wplEntry{pid: pid, lsn: lsn, tid: tid, prev: head}
	wpl[pid] = e
	return e
}

// pushCopy is wplPush for a copy t has just logged (or analysis has just
// read): the page joins t.wplPages, through which commit and abort find t's
// copies.
func (t *txn) pushCopy(wpl map[page.ID]*wplEntry, pid page.ID, lsn uint64) {
	if wplPush(wpl, pid, lsn, t.tid) != nil {
		t.wplPages = append(t.wplPages, pid)
	}
}

// wplMarkCommitted marks every logged copy of t's pages committed, with the
// end LSN of t's commit record (an install must not precede its stability).
func wplMarkCommitted(wpl map[page.ID]*wplEntry, t *txn, commitEnd uint64) {
	for _, pid := range t.wplPages {
		for e := wpl[pid]; e != nil; e = e.prev {
			if e.tid == t.tid {
				e.committed = true
				e.commitEnd = commitEnd
			}
		}
	}
}

// wplUnlink drops t's copies from the table (§3.4.2: abort by ignoring). They
// sit on top of their chains — t holds its pages' X locks from the first ship
// to the end — so whatever lay beneath resurfaces as the page's newest copy.
func wplUnlink(wpl map[page.ID]*wplEntry, t *txn) {
	for _, pid := range t.wplPages {
		e := wpl[pid]
		for e != nil && e.tid == t.tid {
			e = e.prev
		}
		if e == nil {
			delete(wpl, pid)
		} else {
			wpl[pid] = e
		}
	}
}

// tables is the recovery state a log record updates: the active transaction
// table, the dirty page table (nil under WPL), the WPL table (nil under
// ESM/REDO) and the coordinator's decided map. Its methods take no locks:
// restart analysis owns a private value, and around the server's embedded one
// logAndNote, checkpointCore and install hold the mutexes.
type tables struct {
	att     map[logrec.TID]*txn
	dpt     map[page.ID]dptEntry
	wpl     map[page.ID]*wplEntry
	decided map[logrec.TID]decidedTxn
}

// seed returns the tables as a checkpoint logged them, the state restart's
// scan advances from its begin LSN; with no checkpoint yet (ckpt nil) they
// are empty and the scan starts at the log's head.
func seed(mode Mode, ckpt *ckptPayload) tables {
	tb := tables{att: make(map[logrec.TID]*txn), decided: make(map[logrec.TID]decidedTxn)}
	if mode == ModeWPL {
		tb.wpl = make(map[page.ID]*wplEntry)
	} else {
		tb.dpt = make(map[page.ID]dptEntry)
	}
	if ckpt == nil {
		return tb
	}
	for _, ct := range ckpt.txns {
		t := newTxn(ct.tid)
		t.lastLSN, t.firstLSN = ct.lastLSN, ct.firstLSN
		tb.att[ct.tid] = t
	}
	// Prepared branches whose PREPARE record predates the scan window are
	// known only through the checkpoint's 2PC trailer.
	for _, cp := range ckpt.prepared {
		if t := tb.att[cp.tid]; t != nil {
			t.prepared = true
			t.coord = cp.coord
			t.parts = append([]int(nil), cp.parts...)
			t.prepLSN = cp.prepLSN
		}
	}
	for _, cd := range ckpt.decided {
		tb.decided[cd.tid] = decidedTxn{lsn: cd.lsn, parts: append([]int(nil), cd.parts...)}
	}
	// Fuzzy checkpoints flush nothing, so a page may have been dirty since
	// well before the checkpoint — its logged recLSN is the only record of
	// that, and the scan's insert-if-absent keeps it.
	for _, d := range ckpt.dpt {
		noteDirty(tb.dpt, d.pid, d.rec)
	}
	// The logged WPL table is sorted by page, then LSN: pushing in that order
	// rebuilds each chain oldest first.
	for _, w := range ckpt.wpl {
		tb.seedCopy(w)
	}
	return tb
}

// seedCopy pushes one entry of a checkpoint's logged WPL table. An
// uncommitted copy also rejoins its transaction, as note would have it, so a
// commit or abort record in the scan window finds it.
func (tb tables) seedCopy(w ckptWPL) {
	if !w.committed {
		t := tb.txn(w.tid)
		t.pageLSN[w.pid] = w.lsn
		t.pushCopy(tb.wpl, w.pid, w.lsn)
	} else if e := wplPush(tb.wpl, w.pid, w.lsn, w.tid); e != nil {
		e.committed = true
	}
}

// snapshot is seed's inverse: the tables as a checkpoint logs them — the ATT
// with the prepared branches' 2PC trailer, the decided map, every DPT entry's
// recLSN and every WPL chain entry. Entries come out in map order; encode
// sorts them.
func (tb tables) snapshot() ckptPayload {
	var c ckptPayload
	for _, t := range tb.att {
		c.txns = append(c.txns, ckptTxn{tid: t.tid, lastLSN: t.lastLSN, firstLSN: t.firstLSN})
		if t.prepared {
			c.prepared = append(c.prepared, ckptPrepared{tid: t.tid, prepLSN: t.prepLSN, coord: t.coord, parts: append([]int(nil), t.parts...)})
		}
	}
	for tid, d := range tb.decided {
		c.decided = append(c.decided, ckptDecided{tid: tid, lsn: d.lsn, parts: append([]int(nil), d.parts...)})
	}
	for pid, e := range tb.dpt {
		c.dpt = append(c.dpt, ckptDPT{pid: pid, rec: e.rec})
	}
	for _, head := range tb.wpl {
		for e := head; e != nil; e = e.prev {
			c.wpl = append(c.wpl, ckptWPL{pid: e.pid, lsn: e.lsn, tid: e.tid, committed: e.committed})
		}
	}
	return c
}

// sort puts every list in key order. Map iteration is randomized; sorted, the
// checkpoint record's bytes — and with them every later LSN — are identical
// run to run, which the crash-point sweep's reproducibility depends on, and
// seed can rebuild each WPL chain oldest first.
func (c *ckptPayload) sort() {
	sort.Slice(c.txns, func(i, j int) bool { return c.txns[i].tid < c.txns[j].tid })
	sort.Slice(c.wpl, func(i, j int) bool {
		if c.wpl[i].pid != c.wpl[j].pid {
			return c.wpl[i].pid < c.wpl[j].pid
		}
		return c.wpl[i].lsn < c.wpl[j].lsn
	})
	sort.Slice(c.dpt, func(i, j int) bool { return c.dpt[i].pid < c.dpt[j].pid })
	sort.Slice(c.prepared, func(i, j int) bool { return c.prepared[i].tid < c.prepared[j].tid })
	sort.Slice(c.decided, func(i, j int) bool { return c.decided[i].tid < c.decided[j].tid })
}

// txn finds or creates tid's ATT entry.
func (tb tables) txn(tid logrec.TID) *txn {
	t := tb.att[tid]
	if t == nil {
		t = newTxn(tid)
		tb.att[tid] = t
	}
	return t
}

// note is the analysis step for one record, in log order.
func (tb tables) note(r *logrec.Record) {
	switch r.Type {
	case logrec.TypeUpdate, logrec.TypePageImage, logrec.TypeCLR:
		t := tb.txn(r.TID)
		t.chain(r.LSN)
		t.pageLSN[r.Page] = r.LSN
		noteDirty(tb.dpt, r.Page, r.LSN)
		if r.Type == logrec.TypePageImage {
			t.pushCopy(tb.wpl, r.Page, r.LSN)
		}
	case logrec.TypePrepare:
		t := tb.txn(r.TID)
		t.chain(r.LSN)
		t.prepared = true
		t.prepLSN = r.LSN
		if coord, parts, err := logrec.DecodePrepareInfo(r.After); err == nil {
			t.coord = coord
			t.parts = parts
		}
	case logrec.TypeDecide:
		// Not chained into any branch: the decision's life cycle is this map
		// plus the forget End.
		if _, ok := tb.decided[r.TID]; !ok {
			if _, parts, err := logrec.DecodePrepareInfo(r.After); err == nil {
				tb.decided[r.TID] = decidedTxn{lsn: r.LSN, parts: parts}
			}
		}
	case logrec.TypeCommit:
		// The entry retires with the record that settles it — a prepared branch
		// included — so no snapshot ever holds a transaction whose commit is
		// logged.
		if t := tb.att[r.TID]; t != nil {
			wplMarkCommitted(tb.wpl, t, r.LSN+uint64(r.EncodedSize()))
		}
		delete(tb.att, r.TID)
	case logrec.TypeEnd:
		delete(tb.att, r.TID)
		// A forget End retires the decided entry; for a rolled-back loser this
		// is a harmless no-op.
		delete(tb.decided, r.TID)
	case logrec.TypeAbort:
		if t := tb.att[r.TID]; t != nil {
			// The abort decision was delivered: the branch is an ordinary loser
			// again (its CLRs may be partial), not in doubt.
			t.prepared = false
			wplUnlink(tb.wpl, t)
		}
	}
}

// --- a record of an existing log ----------------------------------------------

// repeat is history repeated for one record of a log this server takes in
// rather than writes — restart's pass over the window, a standby receiving the
// primary's stream — once the caller has noted it in the tables (restart in
// the value it is building, the standby through logAndNote). The allocation
// frontier moves past the record's ids, in whole strides so a sharded server
// stays in its residue class even when the record carries another shard's id
// (an adopted cross-shard TID), and under ESM/REDO a redoable record is
// replayed onto its page, conditionally on the page LSN; repeat returns 1 if
// it landed. Under WPL a logged copy is neither cached nor written home: the
// no-steal rule stands, and the table says which copy is current.
func (s *Server) repeat(sn *Session, r *logrec.Record) (int64, error) {
	st := s.stride()
	s.allocMu.Lock()
	if r.TID >= s.nextTID {
		n := (uint64(r.TID)-uint64(s.nextTID))/st + 1
		s.nextTID += logrec.TID(n * st)
	}
	if r.Page >= s.nextPage {
		n := (uint64(r.Page)-uint64(s.nextPage))/st + 1
		s.nextPage += page.ID(n * st)
	}
	s.allocMu.Unlock()
	if s.cfg.Mode == ModeWPL || !redoable(r) {
		return 0, nil
	}
	return s.replayOne(sn, r, true)
}

// redoable reports whether r carries redo information for a page.
func redoable(r *logrec.Record) bool {
	switch r.Type {
	case logrec.TypeUpdate, logrec.TypePageImage, logrec.TypeCLR:
		return true
	}
	return false
}

// redoRelevant reports whether restart's pass must replay r, a record below
// the analysis start: a redoable record of a page the checkpoint's logged DPT
// has open at or below it.
func redoRelevant(r *logrec.Record, dpt map[page.ID]dptEntry) bool {
	e, ok := dpt[r.Page]
	return ok && r.LSN >= e.rec && redoable(r)
}

// --- the live tables ----------------------------------------------------------

// logAndNote is the only way a transactional record enters the log of a live
// server and the only way its tables advance: one attMu critical section that
// appends r — a shipped record at the LSN the primary gave it, or not at all
// when a cold bootstrap already restored it — and runs note under decMu and
// the mode's table mutex. The caller has built the record (TID, PrevLSN) and
// afterwards does what only it owes: the redo apply, the pool copy, the force,
// the installs, the locks.
//
// attMu is therefore more than the ATT map lock. A checkpoint captures its
// analysis begin LSN and snapshots the tables inside one attMu section too
// (checkpointCore), so under gate.R any record below the captured begin LSN
// has its table updates in the snapshot, and any record the snapshot missed
// lies at or above it and is re-analyzed by the restart scan (DESIGN.md §13).
// Only the append is inside — a force can wait on the group-commit flusher.
func (s *Server) logAndNote(r *logrec.Record, shipped bool) error {
	_, err := s.logAndNoteIf(r, shipped, nil)
	return err
}

// logAndNoteIf is logAndNote behind a precondition on the tables (nil: none),
// evaluated inside the step's critical section so that the check and the
// append are one atomic act: two deliveries of a decision log one DECIDE, two
// of a forget one End. It reports whether r was logged.
func (s *Server) logAndNoteIf(r *logrec.Record, shipped bool, pre func() bool) (bool, error) {
	s.attMu.Lock()
	defer s.attMu.Unlock()
	s.decMu.Lock()
	defer s.decMu.Unlock()
	if pre != nil && !pre() {
		return false, nil
	}
	want, present := r.LSN, false
	if shipped {
		switch end := s.log.End(); {
		case want+uint64(r.EncodedSize()) <= end:
			// Already in the log (archive.Bootstrap re-appended the restored
			// stream at identical LSNs); tables and pages still need its effects.
			present = true
		case want != end:
			return false, fmt.Errorf("server: shipped record at LSN %d leaves a gap (log ends at %d)", want, end)
		}
	}
	if !present {
		got, err := s.log.Append(r)
		if err != nil {
			return false, err
		}
		if shipped && got != want {
			// Only a racing local append could do this — which the standby
			// guards exist to prevent.
			return false, fmt.Errorf("server: shipped record for LSN %d appended at %d (log diverged)", want, got)
		}
	}
	mu := &s.dptMu
	if s.cfg.Mode == ModeWPL {
		mu = &s.wplMu
	}
	mu.Lock()
	s.tables.note(r)
	mu.Unlock()
	return true, nil
}

// lockTables takes attMu and every table mutex beneath it: what a checkpoint's
// snapshot and install hold around the whole value.
func (s *Server) lockTables() {
	s.attMu.Lock()
	s.decMu.Lock()
	s.dptMu.Lock()
	s.wplMu.Lock()
}

func (s *Server) unlockTables() {
	s.wplMu.Unlock()
	s.dptMu.Unlock()
	s.decMu.Unlock()
	s.attMu.Unlock()
}

// install makes tb the server's tables: empty ones at a crash, the analysis
// result at restart. The WPL generation moves with them, so an install job
// queued against the old table is dropped.
func (s *Server) install(tb tables) {
	s.lockTables()
	s.tables = tb
	s.wplGen++
	s.unlockTables()
}
