// Package wal implements the server's transaction log: a circular,
// append-only log on a dedicated disk, as in ESM (paper §3.1).
//
// LSNs are byte offsets into the conceptually infinite log stream. The log
// keeps its bytes on a Device, which reads and writes them by LSN and makes
// two stable writes: Sync advances the stable end and SetHead moves the head.
// Ring, the memory device, is the only one the server runs on; the
// crash-point sweep wraps it in a device that can die at any stable write.
// Appended records are volatile until Force is called (write-ahead logging);
// a simulated crash discards the unforced tail. One routine, flush, reaches
// the device's Sync, and it calls it without the log mutex: appends go on
// while a sync is in flight, callers who need the log stable meanwhile park
// until it returns, and the next sync covers all of them — group commit,
// formed by nothing but the sync's own duration. The log can be scanned
// forward from any record boundary (ARIES redo), read at a specific LSN (WPL
// page reload), and truncated from the head as space is reclaimed.
//
// What keeps a record in the log is one rule (DESIGN.md "Log retention"):
// everyone who still needs log registers a named Holder at the oldest LSN it
// needs, and Truncate moves the head to the lowest of its argument and every
// holder. The log does not know who the holders are.
//
// The log has no notion of why a force happens. Commit forces, two-phase
// commit's forced PREPARE and DECIDE records (a prepared participant's vote
// and the coordinator's commit point both require stability before the
// message that reveals them), and checkpoint forces all funnel through the
// same flush, so 2PC forces batch into group-commit syncs exactly like
// ordinary commits.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/logrec"
	"repro/internal/page"
)

// Errors returned by the log manager.
var (
	ErrFull      = errors.New("wal: log full")
	ErrTruncated = errors.New("wal: LSN already reclaimed")
	ErrBeyondEnd = errors.New("wal: LSN beyond stable end")
	// ErrTorn marks a record only partially stable when a crash hit —
	// page-grained flushing (ForceFull) can split a record across the
	// durability boundary. Scans treat it as end of log; such a record
	// belongs to an uncommitted transaction by WAL rules.
	ErrTorn = errors.New("wal: torn record at end of log")
)

// Log is the server's log manager. It is safe for concurrent use.
type Log struct {
	mu       sync.Mutex
	capacity uint64
	dev      Device
	hdr      [4]byte // sizeAt's buffer: a local one would escape through dev.ReadAt
	head     uint64  // oldest LSN still needed; space below is reclaimed
	flushed  uint64  // stable up to here; [flushed, next) is volatile
	next     uint64  // next LSN to assign
	forces   int64   // syncs that wrote
	pages    int64   // cumulative 8 KB log pages physically written
	// holders is the retention registry: the head never passes any of them.
	// A handful at most, names unique, in registration order.
	holders []*Holder

	// Forcing (flush). At most one Sync is in flight, led by a caller that
	// released the mutex for it; everyone else who needs the log stable
	// parks on gcCond until it returns. attempt tracks how far completed
	// syncs have *attempted* to make the log stable (the device may have
	// stopped short of it): under fault injection a swallowed sync models a
	// crash, and a committer it covered returns rather than hanging.
	gcCond    *sync.Cond
	syncing   bool   // a Sync is in flight
	syncTo    uint64 // the end of the sync in flight
	attempt   uint64 // highest LSN a completed sync has attempted to make stable
	epoch     uint64 // bumped by Crash so parked callers drain
	gcWaiters int64  // committers parked for the next sync
	gcBatch   int64  // committers the sync in flight releases
	gcStats   GroupCommitStats
}

// GroupCommitStats counts group-commit activity for observability
// (qsctl stats, bench/'s wal.* metrics).
type GroupCommitStats struct {
	Commits        int64     // commit waits served
	Batches        int64     // syncs that released at least one committer
	FlushesAvoided int64     // commits that did not need their own stable write
	BatchSizes     [16]int64 // histogram: syncs by committers released (last bucket = 15+)
}

// DefaultCapacity is the log size used when Config.Capacity is zero: 256 MB,
// comfortably larger than the paper's workloads generate between
// checkpoints.
const DefaultCapacity = 256 << 20

// FirstLSN is the LSN of the first record ever appended. LSNs start one log
// page in so that 0 can mean "no LSN" in page headers (a freshly formatted
// page has page LSN 0).
const FirstLSN = uint64(page.Size)

// New creates an empty log on a fresh memory ring with the given capacity in
// bytes (DefaultCapacity if 0).
func New(capacity int) *Log {
	if capacity == 0 {
		capacity = DefaultCapacity
	}
	return Open(make(Ring, capacity), capacity, FirstLSN, FirstLSN)
}

// Open opens a log of the given capacity on dev, which already holds the log
// bytes [head, end). head must be a record boundary. The whole records below
// end are the log, stable; a record that end cuts is trimmed, exactly as a
// crash trims a torn tail, and the first record appended lands where the last
// whole one ends. head == end opens an empty log whose first record gets LSN
// head. Media restore opens the archived log stream this way, at its original
// LSNs, so every LSN recorded elsewhere (page headers, checkpoint payloads,
// the superblock's master record) resolves against it unchanged.
func Open(dev Device, capacity int, head, end uint64) *Log {
	l := &Log{capacity: uint64(capacity), dev: dev}
	l.gcCond = sync.NewCond(&l.mu)
	l.reset(head, end)
	return l
}

// StartAt does to an empty log already handed out what Open does to a new
// one: the first record appended will get LSN start. Restart uses it when a
// fresh log meets a volume a previous process wrote, whose page LSNs the new
// records must exceed. Every retention holder stands at the head of
// an empty log and moves along with it. A log that holds records, or a start
// below its head, is refused.
func (l *Log) StartAt(start uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.next != l.head || start < l.head {
		return fmt.Errorf("wal: cannot start at %d a log holding [%d, %d)", start, l.head, l.next)
	}
	l.reset(start, start)
	for _, h := range l.holders {
		h.pos = start
	}
	return nil
}

// encPool recycles the appends' staging buffers. Every append encodes into a
// scratch slice before writing it to the device; without pooling that is one
// allocation per append on the commit path (BenchmarkAppend reports the
// difference). Buffers grow to the largest append seen (a whole-page image
// under WPL, a shipped log page) and are reused at that size.
var encPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// Append assigns the next LSN to r and stores its encoding in the volatile
// tail. It returns the assigned LSN. The caller is responsible for setting
// PrevLSN and the transaction fields before appending.
func (l *Log) Append(r *logrec.Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.room(r.EncodedSize()); err != nil {
		return 0, err
	}
	r.LSN = l.next
	bp := encPool.Get().(*[]byte)
	l.put(bp, r.Encode((*bp)[:0]))
	return r.LSN, nil
}

// AppendRun appends recs, one transaction's records in order, as one
// contiguous run under one hold of the log: each gets the next LSN, and its
// PrevLSN is the LSN of the record before it — the first's is prev, the
// transaction's last LSN before the run. It returns the first LSN. The run
// is all or nothing: one that does not fit returns ErrFull and appends
// nothing, with recs untouched.
func (l *Log) AppendRun(recs []logrec.Record, prev uint64) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	size := 0
	for i := range recs {
		size += recs[i].EncodedSize()
	}
	if err := l.room(size); err != nil {
		return 0, err
	}
	first := l.next
	bp := encPool.Get().(*[]byte)
	buf := (*bp)[:0]
	for i := range recs {
		r := &recs[i]
		r.LSN, r.PrevLSN = first+uint64(len(buf)), prev
		prev = r.LSN
		buf = r.Encode(buf)
	}
	l.put(bp, buf)
	return first, nil
}

// room reports ErrFull unless size more bytes fit the log. l.mu held.
func (l *Log) room(size int) error {
	if l.next+uint64(size)-l.head > l.capacity {
		return fmt.Errorf("%w: need %d bytes, %d in use of %d",
			ErrFull, size, l.next-l.head, l.capacity)
	}
	return nil
}

// put writes buf, the encoding of the records just given LSNs from l.next
// on, to the device in one WriteAt, advances the end past them, and returns
// the staging buffer bp to the pool. l.mu held.
func (l *Log) put(bp *[]byte, buf []byte) {
	l.dev.WriteAt(buf, l.next)
	l.next += uint64(len(buf))
	*bp = buf[:0]
	encPool.Put(bp)
}

// Force makes every record appended before the call stable and returns the
// number of 8 KB log pages written, so callers can charge the log disk. A
// force that has nothing to flush writes no pages.
func (l *Log) Force() int { return l.flush(l.End(), false) }

// ForceFull makes only the complete 8 KB log pages of the volatile tail
// stable, leaving a partially filled tail page buffered in memory. Servers
// call this as client log records arrive so the disk sees full sequential
// pages; Force (at commit) flushes the remainder. Returns pages written.
func (l *Log) ForceFull() int { return l.flush(l.End()/page.Size*page.Size, false) }

// CommitWait makes the record ending at lsn stable via group commit and
// returns the number of log pages charged to this committer: the committer
// that leads a sync is charged its pages, every other member of its group
// zero. The caller must have appended its commit record (so lsn ≤ End()).
//
// The commit is satisfied as soon as a completed sync has attempted lsn.
// Normally the attempt succeeds and the record is stable; on the crash-point
// sweep's device the attempt may be swallowed, which models the server dying
// mid-write — the call returns rather than hanging, and the sweep's recovery
// invariants treat the transaction by where the durability boundary actually
// froze.
func (l *Log) CommitWait(lsn uint64) int { return l.flush(lsn, true) }

// flush is the log's one way to its device, and the only caller of
// dev.Sync: it returns once the log is stable through target — for a commit,
// once a completed sync has attempted target — and the pages it wrote
// itself. With a sync in flight the caller parks until it returns; with
// none and target not yet stable, the caller leads the next: it takes
// [flushed, to) under the mutex, syncs without it while appends go on past
// the end, and retakes it to advance the stable end. to is target, or the
// whole log when a committer waits, so one sync serves every parked commit:
// a slow Sync forms the groups. A caller leads at most once; a swallowed
// sync still releases the callers parked on it, and a later Force syncs
// again. A Crash while the sync is in flight discards its result.
func (l *Log) flush(target uint64, commit bool) int {
	l.mu.Lock()
	target = min(target, l.next) // a crash since the caller looked lost the rest
	done := func() bool { return l.flushed >= target || commit && l.attempt >= target }
	if commit {
		l.gcStats.Commits++
		switch {
		case done():
			l.gcStats.FlushesAvoided++
		case l.syncing && target <= l.syncTo:
			l.gcBatch++ // rides the sync in flight
		default:
			l.gcWaiters++ // joins the next sync
		}
	}
	e := l.epoch
	for l.syncing && !done() && l.epoch == e {
		l.gcCond.Wait()
	}
	if done() || l.epoch != e {
		l.mu.Unlock()
		return 0
	}
	from, to := l.flushed, target
	if l.gcWaiters > 0 {
		to = l.next
	}
	l.syncing, l.syncTo = true, to
	l.gcBatch, l.gcWaiters = l.gcWaiters, 0
	l.mu.Unlock()
	got := l.dev.Sync(from, to)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.syncing = false
	l.gcCond.Broadcast()
	if b := l.gcBatch; b > 0 {
		l.gcStats.Batches++
		l.gcStats.BatchSizes[min(b, int64(len(l.gcStats.BatchSizes)-1))]++
		l.gcStats.FlushesAvoided += b - 1
		l.gcBatch = 0
	}
	if l.epoch != e {
		return 0 // a crash discarded this sync: flushed stays at its trim
	}
	// Ack only now: a commit is released by attempt, which the sync covers
	// once it has returned. A device that stops mid-record tears it.
	l.attempt = max(l.attempt, to)
	got = min(max(got, from), to)
	if got == from {
		return 0
	}
	l.flushed = got
	n := PagesInRange(from, got)
	l.forces++
	l.pages += int64(n)
	return n
}

// GroupStats returns a snapshot of the group-commit counters.
func (l *Log) GroupStats() GroupCommitStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gcStats
}

// Crash discards the volatile tail, as a server failure would, and then
// repositions the log end at the last whole-record boundary at or below the
// stable end. The trim matters when the durability boundary fell mid-record
// (page-grained flushing, or an injected partial sector write): without it,
// records appended after restart would begin part-way through the torn
// record's surviving prefix, and a scan after a second crash would read that
// stale prefix followed by unrelated bytes — corruption it could not tell
// from the real thing. The torn record may span the circular log's wrap
// point (its prefix at the end of the ring, its lost tail at the start);
// trimming by walking record boundaries from the head handles the linear and
// wrapped cases identically, because LSNs never wrap even though ring
// positions do.
func (l *Log) Crash() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.reset(l.head, l.flushed)
	// Wake the callers parked in flush: the LSNs they were waiting on no
	// longer exist. The epoch bump (rather than an attempt/flushed comparison,
	// which the trim may have rewound below a waiter's target) is what makes
	// their wait loops exit, and it makes a sync still in flight discard its
	// result when it returns, so the stable end never passes the trim; no
	// commit appended after the crash rides it.
	l.epoch++
	l.syncTo, l.gcWaiters = 0, 0
	l.gcCond.Broadcast()
}

// CrashClone returns an independent copy of the log as a crash with the
// durability boundary frozen at stableEnd would leave it: records wholly at
// or below stableEnd (clamped to [Head, End]) are stable, everything above
// is discarded, and a boundary that falls mid-record is trimmed exactly as
// Crash trims a torn tail. The receiver is not modified. The copy lives on a
// fresh memory ring, whatever the receiver's device. The group-commit crash
// sweep uses this to replay one multi-client run at every candidate cut of
// the volatile region without re-running the workload.
func (l *Log) CrashClone(stableEnd uint64) *Log {
	l.mu.Lock()
	defer l.mu.Unlock()
	stableEnd = min(max(stableEnd, l.head), l.next)
	ring := make(Ring, l.capacity)
	b := make([]byte, stableEnd-l.head)
	l.dev.ReadAt(b, l.head)
	ring.WriteAt(b, l.head)
	return Open(ring, int(l.capacity), l.head, stableEnd)
}

// reset makes head the log's head and everything below end stable, trims a
// torn record at the end (walking record boundaries from the head to the
// last record wholly below end) and puts the log's end there, with no flush
// attempted past it. Caller holds l.mu, or owns a log no one else has yet.
func (l *Log) reset(head, end uint64) {
	lsn := head
	for lsn+logrec.HeaderSize <= end {
		total := l.sizeAt(lsn)
		if total < logrec.HeaderSize || lsn+total > end {
			break
		}
		lsn += total
	}
	l.head, l.next, l.flushed, l.attempt = head, lsn, lsn, lsn
}

// Holder is one named reason to keep log: its owner (restart redo, an
// archiver, a standby) still needs every record at or above its position.
// Positions are record boundaries the owner read from this log, so a head
// clamped to one is itself a record boundary.
type Holder struct {
	log       *Log
	name      string
	pos       uint64                    // guarded by log.mu
	catchUp   func(target uint64) error // may be nil; called with log.mu released
	allowance uint64                    // lag behind the stable end CatchUp tolerates
}

// Held is one holder in a Retention snapshot.
type Held struct {
	Name string
	LSN  uint64
}

// Retention is a snapshot of what bounds the log head.
type Retention struct {
	Head, StableEnd uint64
	Holders         []Held // registration order
	// PinnedBy names the holder Truncate would stop at: the lowest one
	// below the stable end. Empty when none holds the head back.
	PinnedBy string
}

// Hold registers a holder at pos: until it is moved (Set) or released,
// Truncate will not advance the head past it. catchUp (may be nil) lets the
// log ask the owner to advance to a target, or as far as it can — an
// archiver drains, where a standby's cursor can only wait. Names are unique:
// registering a name again replaces the earlier holder, which is how a
// restarted server or a new archiver generation adopts a surviving log.
func (l *Log) Hold(name string, pos uint64, catchUp func(target uint64) error, allowance uint64) *Holder {
	h := &Holder{log: l, name: name, pos: pos, catchUp: catchUp, allowance: allowance}
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, old := range l.holders {
		if old.name == name {
			l.holders[i] = h
			return h
		}
	}
	l.holders = append(l.holders, h)
	return h
}

// Set moves the holder to lsn. Holders move forward; one left below the head
// pins it where it is.
func (h *Holder) Set(lsn uint64) {
	h.log.mu.Lock()
	h.pos = lsn
	h.log.mu.Unlock()
}

// Release removes the holder: its owner no longer needs any log. A no-op for
// a holder already released or replaced.
func (h *Holder) Release() {
	l := h.log
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, cur := range l.holders {
		if cur == h {
			l.holders = append(l.holders[:i], l.holders[i+1:]...)
			return
		}
	}
}

// Holders returns the retention snapshot.
func (l *Log) Holders() Retention {
	l.mu.Lock()
	defer l.mu.Unlock()
	r := Retention{Head: l.head, StableEnd: l.flushed}
	for _, h := range l.holders {
		r.Holders = append(r.Holders, Held{h.name, h.pos})
	}
	if h := l.lowestBelow(l.flushed); h != nil {
		r.PinnedBy = h.name
	}
	return r
}

// lowestBelow returns the first-registered of the lowest holders below lsn,
// or nil. The caller holds l.mu.
func (l *Log) lowestBelow(lsn uint64) *Holder {
	var low *Holder
	for _, h := range l.holders {
		if h.pos < lsn && (low == nil || h.pos < low.pos) {
			low = h
		}
	}
	return low
}

// askBehind runs the catch-up of every holder below target — or, on the
// commit path (toStableEnd), more than its allowance below the stable end.
// The log mutex is released first: a catch-up scans the log and may write an
// archive, which must not stall every append and force. One that fails or
// falls short is not an error here — the holder stays put and keeps pinning
// the head, and its owner reports its own failures.
func (l *Log) askBehind(target uint64, toStableEnd bool) {
	var fns []func(uint64) error
	l.mu.Lock()
	if toStableEnd {
		target = l.flushed
	}
	for _, h := range l.holders {
		slack := uint64(0)
		if toStableEnd {
			slack = h.allowance
		}
		if h.catchUp != nil && h.pos+slack < target {
			fns = append(fns, h.catchUp)
		}
	}
	l.mu.Unlock()
	for _, fn := range fns {
		_ = fn(target)
	}
}

// CatchUp asks every holder further behind the stable end than its allowance
// to catch up to it. The commit path calls this with no locks held, which
// bounds such a holder's lag under commit traffic without the log (or the
// server) knowing what the holder is.
func (l *Log) CatchUp() { l.askBehind(0, true) }

// Truncate reclaims log space below newHead, which must be a record boundary
// at or below the stable end. The one retention rule: the head moves to the
// lowest of newHead and every holder. Holders behind newHead that can catch
// up are asked to first; then the head advances as far as the lowest holder
// allows. Moving the head is a stable write of its own, the device's
// SetHead: a head write that does not land reclaims nothing, as if the
// process died before the pointer reached disk — otherwise a checkpoint cut
// by a crash could reclaim log its never-durable checkpoint record was to
// cover, and restart would find the previous checkpoint truncated away. A
// truncation clamped to nothing is a no-op, not an error, and not a
// stable-storage event: SetHead is asked only when the head would move.
func (l *Log) Truncate(newHead uint64) error {
	l.askBehind(newHead, false)
	l.mu.Lock()
	defer l.mu.Unlock()
	if newHead < l.head {
		return fmt.Errorf("wal: truncate moves head backward (%d < %d)", newHead, l.head)
	}
	if newHead > l.flushed {
		return fmt.Errorf("wal: truncate beyond stable end (%d > %d)", newHead, l.flushed)
	}
	if h := l.lowestBelow(newHead); h != nil {
		newHead = h.pos
	}
	if newHead <= l.head {
		return nil
	}
	if !l.dev.SetHead(newHead) {
		return nil // swallowed: the head-pointer write never reached disk
	}
	l.head = newHead
	return nil
}

// Used returns the bytes of log space currently occupied.
func (l *Log) Used() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next - l.head
}

// Capacity returns the configured log size in bytes.
func (l *Log) Capacity() uint64 { return l.capacity }

// Head returns the oldest retained LSN.
func (l *Log) Head() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.head
}

// StableEnd returns the LSN just past the last forced record.
func (l *Log) StableEnd() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushed
}

// Stable reports whether the record that starts at lsn lies wholly below the
// stable end. This is the write-ahead test for a page whose pageLSN is lsn,
// and it must look at the record's END: ForceFull parks the stable end on an
// 8 KB boundary, which can fall inside the record, and a crash then trims the
// whole record away. lsn is a record boundary or 0: LSN 0 (no record describes
// the page) and an LSN below the head (reclaimed, so stable long ago) are
// stable.
func (l *Log) Stable(lsn uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn < l.head {
		return true
	}
	if lsn+logrec.HeaderSize > l.flushed {
		return false
	}
	size := l.sizeAt(lsn)
	return size >= logrec.HeaderSize && lsn+size <= l.flushed
}

// sizeAt reads the length field that opens the record header at lsn. Caller
// holds l.mu and has checked that the header lies inside the log.
func (l *Log) sizeAt(lsn uint64) uint64 {
	l.dev.ReadAt(l.hdr[:], lsn)
	return uint64(binary.LittleEndian.Uint32(l.hdr[:]))
}

// End returns the next LSN to be assigned (including volatile records).
func (l *Log) End() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Forces returns how many syncs wrote: stable writes of the device, one per
// group of commits, forced tail or full-page flush.
func (l *Log) Forces() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.forces
}

// PagesWritten returns the cumulative count of 8 KB log pages written.
func (l *Log) PagesWritten() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pages
}

// ReadAt decodes the record starting at lsn. scratch is as decodeAt's: nil
// gives the record its own payload; a caller reading many records passes one
// buffer, and each record's images are then valid until the next read into it.
func (l *Log) ReadAt(lsn uint64, scratch *[]byte) (*logrec.Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r := new(logrec.Record)
	if err := l.decodeAt(lsn, r, scratch); err != nil {
		return nil, err
	}
	return r, nil
}

// decodeAt decodes the record at lsn into dst. With a nil scratch each call
// allocates a fresh buffer and the record owns its payload. With a non-nil
// scratch the encoded bytes are staged in *scratch (grown as needed and
// reused), so the record's Before/After images alias that buffer and are
// valid only until the next decodeAt against the same scratch — the scans
// decode a whole restart pass into one record over one buffer. Caller holds
// l.mu.
func (l *Log) decodeAt(lsn uint64, dst *logrec.Record, scratch *[]byte) error {
	if lsn < l.head {
		return fmt.Errorf("%w: %d < head %d", ErrTruncated, lsn, l.head)
	}
	// Reads may cover the volatile tail: the in-memory log buffer is part of
	// the log manager (WPL re-reads unforced page images, undo walks fresh
	// records). A crash truncates next back to flushed, so post-crash reads
	// see only stable records.
	if lsn+logrec.HeaderSize > l.next {
		return fmt.Errorf("%w: %d", ErrBeyondEnd, lsn)
	}
	total := int(l.sizeAt(lsn))
	if total < logrec.HeaderSize {
		return fmt.Errorf("wal: bad record length %d at LSN %d", total, lsn)
	}
	if lsn+uint64(total) > l.next {
		return fmt.Errorf("%w: %d bytes at LSN %d", ErrTorn, total, lsn)
	}
	var buf []byte
	if scratch != nil {
		if cap(*scratch) < total {
			*scratch = make([]byte, max(total, 2*cap(*scratch)))
		}
		buf = (*scratch)[:total]
	} else {
		buf = make([]byte, total)
	}
	l.dev.ReadAt(buf, lsn)
	if _, err := logrec.DecodeInto(dst, buf); err != nil {
		// A record whose extent reaches the stable end and fails its CRC is
		// the surviving prefix of a torn write (possibly spanning the ring's
		// wrap point), not corruption in the middle of the log: report it as
		// a torn tail so scans stop cleanly instead of failing recovery.
		if lsn+uint64(total) >= l.flushed {
			return fmt.Errorf("%w: %v at LSN %d", ErrTorn, err, lsn)
		}
		return fmt.Errorf("wal: record at LSN %d: %w", lsn, err)
	}
	return nil
}

// Scan calls fn for every record with LSN in [from, End) — the volatile tail
// included — in LSN order, stopping early if fn returns false. from must be a
// record boundary at or above the head; passing Head() scans the whole
// retained log. The log lock is held throughout: the scan sees one state of
// the log, no truncation overtakes it, and fn must not call back into the log
// (ScanFrom's may).
//
// Every record is decoded into one Record over one buffer, reused across the
// scan: the record passed to fn — the record, not only its images — is valid
// for the callback only. A callback that keeps more than copies of scalar
// fields (TID, Page, LSN, Type) must Clone it.
func (l *Log) Scan(from uint64, fn func(*logrec.Record) bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < l.head {
		return fmt.Errorf("%w: scan from %d < head %d", ErrTruncated, from, l.head)
	}
	var (
		rec     logrec.Record
		scratch []byte
	)
	for lsn := from; lsn < l.next; {
		err := l.decodeAt(lsn, &rec, &scratch)
		if errors.Is(err, ErrTorn) || errors.Is(err, ErrBeyondEnd) {
			return nil // torn tail after a crash: end of usable log
		}
		if err != nil {
			return err
		}
		if !fn(&rec) {
			return nil
		}
		lsn += uint64(rec.EncodedSize())
	}
	return nil
}

// ScanFrom is the scan whose callback runs without the log lock: it calls fn
// for every record wholly stable in [from, StableEnd), in LSN order, and
// returns the boundary just past the last record delivered — the LSN at which
// a later call resumes once more of the tail has been forced. Log shipping and
// the archiver follow the tail with it, and restart reads its window with it
// (its callback writes pages home, which consults the log). Unlike Scan it
// never delivers the volatile tail (shipping a record the primary could still
// lose in a crash would let a standby get ahead of its primary), and it
// re-acquires the log lock per record so a long catch-up scan never blocks
// appenders or a sync.
//
// Like Scan it decodes into one Record over one buffer, private to this call
// and overwritten by the next record, so callers that retain one must Clone
// it (Encode-ing it into an outgoing batch is the typical, safe use). fn
// returning false stops the scan after the current record; the returned
// resume LSN then points just past it, so nothing is skipped or redelivered.
//
// If the resume point has been reclaimed under the caller (the truncation
// race: the shipper fell behind and held no Holder at its cursor), ScanFrom
// returns ErrTruncated with the same resume LSN — the caller must
// re-bootstrap from an archive rather than resume.
func (l *Log) ScanFrom(from uint64, fn func(*logrec.Record) bool) (uint64, error) {
	lsn := from
	var (
		rec     logrec.Record
		scratch []byte
	)
	for {
		l.mu.Lock()
		if lsn < l.head {
			head := l.head
			l.mu.Unlock()
			return lsn, fmt.Errorf("%w: scan from %d < head %d", ErrTruncated, lsn, head)
		}
		if lsn+logrec.HeaderSize > l.flushed {
			l.mu.Unlock()
			return lsn, nil // header not fully stable: end of shippable log
		}
		err := l.decodeAt(lsn, &rec, &scratch)
		end := lsn + uint64(rec.EncodedSize())
		if err == nil && end > l.flushed {
			// The record decodes (its bytes are on the device) but its tail is
			// still volatile — a mid-batch cut leaves the durability boundary
			// inside a record. Stop before it; the next call picks it up once
			// a flush covers it.
			err = ErrBeyondEnd
		}
		l.mu.Unlock()
		if errors.Is(err, ErrTorn) || errors.Is(err, ErrBeyondEnd) {
			return lsn, nil
		}
		if err != nil {
			return lsn, err
		}
		cont := fn(&rec)
		lsn = end
		if !cont {
			return lsn, nil
		}
	}
}

// PagesInRange returns the number of 8 KB log pages overlapping [from, to),
// for disk-cost accounting of scans.
func PagesInRange(from, to uint64) int {
	if to <= from {
		return 0
	}
	return int((to-1)/page.Size - from/page.Size + 1)
}
