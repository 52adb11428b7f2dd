// Package wal implements the server's transaction log: a circular,
// append-only log on a dedicated disk, as in ESM (paper §3.1).
//
// LSNs are byte offsets into the conceptually infinite log stream; the
// physical location of LSN l is l modulo the log capacity. Appended records
// are volatile until Force is called (write-ahead logging); a simulated
// crash discards the unforced tail. The log can be scanned forward from any
// record boundary (ARIES redo), read at a specific LSN (WPL page reload),
// and truncated from the head as space is reclaimed.
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
// same Force/CommitWait path, so 2PC forces batch into group-commit flushes
// exactly like ordinary commits.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

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
	ring     []byte
	head     uint64 // oldest LSN still needed; space below is reclaimed
	flushed  uint64 // stable up to here; [flushed, next) is volatile
	next     uint64 // next LSN to assign
	forces   int64
	pages    int64 // cumulative 8 KB log pages physically written
	// limiter, when set, intercepts every flush (fault injection): it may
	// clamp how far the stable end actually advances, down to not at all.
	limiter   func(proposed uint64) uint64
	truncGate func() bool
	// holders is the retention registry: the head never passes any of them.
	// A handful at most, names unique, in registration order.
	holders []*Holder

	// Group commit. Committers park in CommitWait until a flush attempt has
	// covered their commit LSN; a one-shot flusher goroutine performs one
	// stable write per group. attempt tracks how far flushes have been
	// *attempted* (the flush limiter may have clamped the actual stable end):
	// under fault injection a swallowed flush models a crash, and the commit
	// call — like the old inline Force — returns rather than hanging.
	gcCond        *sync.Cond
	gcDelay       time.Duration // extra wait for a group to form before flushing
	writeDelay    time.Duration // modeled log-device latency per stable write
	attempt       uint64        // highest LSN any flush has attempted to make stable
	gcWaiters     int64
	flusherOn     bool
	epoch         uint64 // bumped by Crash so parked committers drain
	pendingCharge int    // flushed pages not yet charged to a committer's meter
	gcStats       GroupCommitStats
}

// GroupCommitStats counts group-commit activity for observability
// (qsctl stats, the commit-throughput benchmark).
type GroupCommitStats struct {
	Commits        int64     // commit waits served
	Batches        int64     // group flushes performed
	PagesWritten   int64     // log pages written by group flushes
	FlushesAvoided int64     // commits that did not need their own stable write
	BatchSizes     [16]int64 // histogram: group flushes by committer count (last bucket = 15+)
}

// DefaultCapacity is the log size used when Config.Capacity is zero: 256 MB,
// comfortably larger than the paper's workloads generate between
// checkpoints.
const DefaultCapacity = 256 << 20

// FirstLSN is the LSN of the first record ever appended. LSNs start one log
// page in so that 0 can mean "no LSN" in page headers (a freshly formatted
// page has page LSN 0).
const FirstLSN = uint64(page.Size)

// New creates a log with the given capacity in bytes (DefaultCapacity if 0).
func New(capacity int) *Log {
	if capacity == 0 {
		capacity = DefaultCapacity
	}
	l := &Log{
		capacity: uint64(capacity),
		ring:     make([]byte, capacity),
		head:     FirstLSN,
		flushed:  FirstLSN,
		next:     FirstLSN,
		attempt:  FirstLSN,
	}
	l.gcCond = sync.NewCond(&l.mu)
	return l
}

// NewAt creates an empty log whose first LSN is start instead of FirstLSN.
// Media restore uses this to rebuild an archived log stream at its original
// LSNs: records appended in archive order are contiguous from start, so each
// is reassigned exactly the LSN it had when first logged, and every LSN
// recorded elsewhere (page headers, checkpoint payloads, the superblock's
// master record) resolves against the rebuilt log unchanged.
func NewAt(capacity int, start uint64) *Log {
	l := New(capacity)
	l.head, l.flushed, l.next, l.attempt = start, start, start, start
	return l
}

// StartAt does to an empty log already handed out what NewAt does to a new
// one: the first record appended will get LSN start. Restart uses it when a
// fresh log meets a volume a previous process checkpointed, whose page LSNs
// the new records must exceed. Every retention holder stands at the head of
// an empty log and moves along with it. A log that holds records, or a start
// below its head, is refused.
func (l *Log) StartAt(start uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.next != l.head || start < l.head {
		return fmt.Errorf("wal: cannot start at %d a log holding [%d, %d)", start, l.head, l.next)
	}
	l.head, l.flushed, l.next, l.attempt = start, start, start, start
	for _, h := range l.holders {
		h.pos = start
	}
	return nil
}

// encPool recycles Append's staging buffers. Every append encodes into a
// scratch slice before copying into the ring; without pooling that is one
// allocation per log record on the commit path (BenchmarkAppend reports the
// difference). Buffers grow to the largest record seen (a whole-page image
// under WPL) and are reused at that size.
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
	size := uint64(r.EncodedSize())
	if l.next+size-l.head > l.capacity {
		return 0, fmt.Errorf("%w: need %d bytes, %d in use of %d",
			ErrFull, size, l.next-l.head, l.capacity)
	}
	r.LSN = l.next
	bp := encPool.Get().(*[]byte)
	buf := r.Encode((*bp)[:0])
	l.writeRing(l.next, buf)
	*bp = buf[:0]
	encPool.Put(bp)
	l.next += size
	return r.LSN, nil
}

func (l *Log) writeRing(at uint64, b []byte) {
	pos := at % l.capacity
	n := copy(l.ring[pos:], b)
	if n < len(b) {
		copy(l.ring, b[n:])
	}
}

func (l *Log) readRing(at uint64, b []byte) {
	pos := at % l.capacity
	n := copy(b, l.ring[pos:])
	if n < len(b) {
		copy(b[n:], l.ring[:len(b)-n])
	}
}

// SetFlushLimiter installs fn, called (with the log lock held) on every
// flush that would advance the stable end; the proposed new stable end is
// passed in and the value fn returns — clamped to [flushed, proposed] —
// becomes the actual stable end. The crash-point sweep uses this both to
// enumerate WAL-flush boundaries and to freeze the log at a chosen crash
// instant; returning a value mid-record injects a partial (torn) WAL-sector
// write. A nil fn removes the limiter.
func (l *Log) SetFlushLimiter(fn func(proposed uint64) uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.limiter = fn
}

// advanceFlushed moves the stable end toward proposed, consulting the flush
// limiter, and returns the number of 8 KB log pages written. Caller holds
// l.mu.
func (l *Log) advanceFlushed(proposed uint64) int {
	if proposed > l.attempt {
		l.attempt = proposed
	}
	if proposed <= l.flushed {
		return 0
	}
	if l.limiter != nil {
		p := l.limiter(proposed)
		if p < l.flushed {
			p = l.flushed
		}
		if p > proposed {
			p = proposed
		}
		proposed = p
		if proposed == l.flushed {
			return 0
		}
	}
	first := l.flushed / page.Size
	last := (proposed - 1) / page.Size
	l.flushed = proposed
	return int(last - first + 1)
}

// Force makes every appended record stable and returns the number of 8 KB
// log pages physically written, so callers can charge the log disk. A force
// that has nothing to flush writes no pages. When a write delay is
// configured (SetWriteDelay) the caller blocks for one device write.
func (l *Log) Force() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.writeDelay > 0 && l.next > l.flushed {
		e := l.epoch
		l.mu.Unlock()
		time.Sleep(l.writeDelay)
		l.mu.Lock()
		if l.epoch != e {
			return 0 // crashed while the write was in flight
		}
	}
	n := l.advanceFlushed(l.next)
	if n > 0 {
		l.forces++
		l.pages += int64(n)
	}
	return n
}

// SetGroupCommitDelay sets the extra time a group flush waits for more
// committers to join before writing (0 = flush as soon as the flusher runs,
// which still batches every committer already parked).
func (l *Log) SetGroupCommitDelay(d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.gcDelay = d
}

// SetWriteDelay models the latency of one stable log write (the device the
// paper's dedicated log disk would be). Force and group flushes block for
// this long per write; ForceFull (asynchronous full-page writes) does not.
// The commit-throughput benchmark uses this so group commit shows its real
// effect — amortizing the device write across a group — even on a machine
// whose in-memory "log disk" is otherwise free.
func (l *Log) SetWriteDelay(d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.writeDelay = d
}

// CommitWait makes the record ending at lsn stable via group commit and
// returns the number of log pages charged to this committer (the whole
// group's write is charged to the first committer it wakes; the rest charge
// zero, conserving total pages). The caller must have appended its commit
// record (so lsn ≤ End()).
//
// The commit is satisfied as soon as a flush ATTEMPT covers lsn. Normally
// the attempt succeeds and the record is stable; under the crash-point
// sweep's flush limiter the attempt may be swallowed, which models the
// server dying mid-write — the call returns, exactly as the old inline
// Force did, and the sweep's recovery invariants treat the transaction by
// where the durability boundary actually froze.
func (l *Log) CommitWait(lsn uint64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.gcStats.Commits++
	if l.flushed >= lsn || l.attempt >= lsn {
		// Already stable (or already attempted): no write needed at all.
		l.gcStats.FlushesAvoided++
		charge := l.pendingCharge
		l.pendingCharge = 0
		return charge
	}
	e := l.epoch
	l.gcWaiters++
	for l.flushed < lsn && l.attempt < lsn && l.epoch == e {
		if !l.flusherOn {
			l.flusherOn = true
			go l.flushGroup()
		}
		l.gcCond.Wait()
	}
	l.gcWaiters--
	charge := l.pendingCharge
	l.pendingCharge = 0
	return charge
}

// flushGroup is the dedicated flusher: it performs one stable write covering
// every commit parked at the moment of the write, then exits. A committer
// that arrives mid-flush re-arms it, so there is never more than one flusher
// and never a lost wakeup. Sleeping happens outside the log lock: the
// batching delay and the device write time are exactly the windows in which
// new committers join the group.
func (l *Log) flushGroup() {
	l.mu.Lock()
	gcDelay, writeDelay := l.gcDelay, l.writeDelay
	l.mu.Unlock()
	if gcDelay > 0 {
		time.Sleep(gcDelay)
	}
	if writeDelay > 0 {
		time.Sleep(writeDelay)
	}
	l.mu.Lock()
	batch := l.gcWaiters
	n := l.advanceFlushed(l.next)
	if n > 0 {
		l.forces++
		l.pages += int64(n)
		l.pendingCharge += n
	}
	l.gcStats.Batches++
	idx := batch
	if idx > int64(len(l.gcStats.BatchSizes)-1) {
		idx = int64(len(l.gcStats.BatchSizes) - 1)
	}
	if idx >= 0 {
		l.gcStats.BatchSizes[idx]++
	}
	if batch > 1 {
		l.gcStats.FlushesAvoided += batch - 1
	}
	l.gcStats.PagesWritten += int64(n)
	l.flusherOn = false
	l.gcCond.Broadcast()
	l.mu.Unlock()
}

// GroupStats returns a snapshot of the group-commit counters.
func (l *Log) GroupStats() GroupCommitStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gcStats
}

// ForceFull makes only the complete 8 KB log pages of the volatile tail
// stable, leaving a partially filled tail page buffered in memory. Servers
// call this as client log records arrive so the disk sees full sequential
// pages; Force (at commit) flushes the remainder. Returns pages written.
func (l *Log) ForceFull() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	boundary := l.next / page.Size * page.Size
	if boundary <= l.flushed {
		return 0
	}
	n := l.advanceFlushed(boundary)
	l.pages += int64(n)
	return n
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
	l.next = l.flushed
	l.trimTornLocked()
	// Wake committers parked in CommitWait: the LSNs they were waiting on no
	// longer exist. The epoch bump (rather than an attempt/flushed comparison,
	// which the trim may have rewound below a waiter's target) is what makes
	// their wait loops exit.
	l.epoch++
	l.attempt = l.flushed
	l.pendingCharge = 0
	l.gcCond.Broadcast()
}

// CrashClone returns an independent copy of the log as a crash with the
// durability boundary frozen at stableEnd would leave it: records wholly at
// or below stableEnd (clamped to [Head, End]) are stable, everything above
// is discarded, and a boundary that falls mid-record is trimmed exactly as
// Crash trims a torn tail. The receiver is not modified. The group-commit
// crash sweep uses this to replay one multi-client run at every candidate
// cut of the volatile region without re-running the workload.
func (l *Log) CrashClone(stableEnd uint64) *Log {
	l.mu.Lock()
	defer l.mu.Unlock()
	if stableEnd < l.head {
		stableEnd = l.head
	}
	if stableEnd > l.next {
		stableEnd = l.next
	}
	c := &Log{
		capacity: l.capacity,
		ring:     append([]byte(nil), l.ring...),
		head:     l.head,
		flushed:  stableEnd,
		next:     stableEnd,
	}
	c.gcCond = sync.NewCond(&c.mu)
	c.trimTornLocked()
	c.attempt = c.flushed
	return c
}

// trimTornLocked walks record boundaries from the head and truncates the log
// end at the last record wholly contained in the stable region. Caller holds
// l.mu.
func (l *Log) trimTornLocked() {
	lsn := l.head
	for lsn+logrec.HeaderSize <= l.flushed {
		total := l.sizeAt(lsn)
		if total < logrec.HeaderSize || lsn+total > l.flushed {
			break
		}
		lsn += total
	}
	l.next, l.flushed = lsn, lsn
}

// SetTruncateGate installs fn, called (with the log lock held) whenever
// Truncate would advance the head. Advancing the head is a stable write in
// its own right — a real log persists its head pointer, or reclamation would
// not survive restart — so the crash-point sweep counts each advance as a
// crash point and, past the chosen point, swallows it: the head stays put,
// exactly as if the process died before the pointer write reached disk.
// Without this, a checkpoint cut by the fuse could reclaim log space its
// never-durable checkpoint record was supposed to cover, and restart would
// find the previous checkpoint truncated away. A nil fn removes the gate.
func (l *Log) SetTruncateGate(fn func() bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.truncGate = fn
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

// Retention is a snapshot of what bounds the log head. The holder with the
// lowest LSN is the one pinning it.
type Retention struct {
	Head, StableEnd uint64
	Holders         []Held // registration order
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
	return r
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
// allows. A truncation clamped to nothing is a no-op, not an error, and not
// a stable-storage event — the head-pointer write is never attempted, so the
// truncate gate is consulted only when the head would actually move.
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
	for _, h := range l.holders {
		if h.pos < newHead {
			newHead = h.pos
		}
	}
	if newHead <= l.head {
		return nil
	}
	if l.truncGate != nil && !l.truncGate() {
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
	var b [4]byte
	l.readRing(lsn, b[:])
	return uint64(binary.LittleEndian.Uint32(b[:]))
}

// End returns the next LSN to be assigned (including volatile records).
func (l *Log) End() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Forces returns how many Force calls actually wrote.
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

// ReadAt decodes the stable record starting at lsn.
func (l *Log) ReadAt(lsn uint64) (*logrec.Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r := new(logrec.Record)
	if err := l.decodeAt(lsn, r, nil); err != nil {
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
	l.readRing(lsn, buf)
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
// lose in a crash would let a standby get ahead of its primary), it
// re-acquires the log lock per record so a long catch-up scan never blocks
// appenders or the group-commit flusher, and it stops promptly when cancel is
// closed.
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
func (l *Log) ScanFrom(from uint64, cancel <-chan struct{}, fn func(*logrec.Record) bool) (uint64, error) {
	lsn := from
	var (
		rec     logrec.Record
		scratch []byte
	)
	for {
		select {
		case <-cancel:
			return lsn, nil
		default:
		}
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
			// The record decodes (its bytes are in the ring) but its tail is
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
