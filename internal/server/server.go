// Package server implements the storage server: an EXODUS-Storage-Manager-
// style page server (paper §3.1) with three selectable recovery modes.
//
//   - ModeESM: the baseline ARIES-style scheme. Clients ship log records and
//     then dirty pages; only the log is forced at commit (STEAL/NO-FORCE
//     with ESM's force-to-server-at-commit rule).
//   - ModeREDO: redo-at-server (§3.5). Clients ship log records only; the
//     server applies each record's redo information to its copy of the page,
//     reading the page from the data disk when necessary.
//   - ModeWPL: whole-page logging (§3.4). Clients ship dirty pages and no
//     log records; the server appends whole-page after-images to the log,
//     tracks them in the WPL table, and installs them to their permanent
//     locations after commit.
//
// The server owns the stable data volume, the transaction log, the lock
// manager, and its own buffer pool. Each session reports its work to a
// costmodel.Meter as events (a lock request, a page served, n log pages
// forced); a simulated run's meter prices them on the shared server
// resources, and the server itself carries no service times.
//
// # Concurrency model (DESIGN.md §9)
//
// Independent sessions run in parallel. There is no global server mutex;
// instead:
//
//   - gate (RWMutex): every session operation holds the read side for its
//     duration, and so do Checkpoint and the page cleaner; Restart, Crash and
//     FlushAll hold the write side, so they observe (and the crash-point
//     sweep replays) a fully quiesced server. Lock-manager waits never happen
//     under the gate — page locks are acquired before entering.
//   - The buffer pool is sharded (buffer.Sharded): a page's shard latch
//     protects its frame bytes and that shard's LRU/residency metadata for
//     the duration of one read/modify step. Isolation across operations is
//     the lock manager's job, exactly as page latches vs. locks in ARIES.
//   - The ATT, DPT, WPL table and allocation counters each have a small
//     leaf mutex (attMu, dptMu, wplMu, allocMu). A txn's fields beyond the
//     map entry itself change only in tables.note, under attMu, and are
//     otherwise read by the session driving it (clients issue requests for
//     one transaction sequentially).
//   - Stats fields are updated with atomics.
//
// Latch order (outer to inner): ckptMu → gate.R → one shard latch → attMu →
// {dptMu | wplMu} → log/store internal locks; allocMu is a leaf taken on its
// own. Never acquire a shard latch while holding one of the leaf mutexes,
// and never hold two shard latches (Crash and Restart, which need all
// shards, run under gate.W, where the pool helpers may latch shards in index
// order).
//
// attMu is more than the ATT map lock: it is the critical section in which
// logAndNote (replay.go) appends a record and advances the tables, and in
// which a checkpoint snapshots them — see there.
package server

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/costmodel"
	"repro/internal/disk"
	"repro/internal/lock"
	"repro/internal/logrec"
	"repro/internal/page"
	"repro/internal/wal"
)

// Mode selects the server's recovery scheme.
type Mode int

// Recovery modes.
const (
	// ModeESM is the ARIES-based baseline used by PD-ESM/SD-ESM/SL-ESM.
	ModeESM Mode = iota
	// ModeREDO applies client log records at the server (PD-REDO).
	ModeREDO
	// ModeWPL logs whole dirty pages at the server (WPL).
	ModeWPL
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeESM:
		return "ESM"
	case ModeREDO:
		return "REDO"
	case ModeWPL:
		return "WPL"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode returns the mode String names, in any case: esm, redo or wpl.
func ParseMode(s string) (Mode, error) {
	for _, m := range []Mode{ModeESM, ModeREDO, ModeWPL} {
		if strings.EqualFold(s, m.String()) {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q (want esm, redo or wpl)", s)
}

// Errors returned by the server.
var (
	ErrNoTxn         = errors.New("server: unknown or finished transaction")
	ErrNotLocked     = errors.New("server: page not locked by transaction")
	ErrModeViolation = errors.New("server: operation not valid in this recovery mode")
	// ErrRestarting is returned by maintenance entry points (Checkpoint,
	// Clean) invoked while Restart holds the server: restart takes its own
	// final checkpoint, so the caller's work is already covered.
	ErrRestarting = errors.New("server: restart in progress")
	// ErrStandby is returned for any operation that would append to the log
	// on a hot standby. A standby's log is a byte-exact replica of its
	// primary's stream (internal/repl); a locally generated record would
	// diverge it. Read-only sessions are served; everything else waits for
	// promotion.
	ErrStandby = errors.New("server: standby is read-only until promoted")
	// ErrInDoubt is returned for a unilateral Commit/Abort of a prepared
	// transaction branch: once a branch has voted yes its fate belongs to the
	// coordinator, and only Decide (or restart resolution) may finish it.
	ErrInDoubt = errors.New("server: transaction is prepared (in doubt); awaiting coordinator decision")
	// ErrMasterRecord refuses a client's lock on page 0, so no client reads,
	// ships or logs the master record.
	ErrMasterRecord = errors.New("server: page 0 holds the master record")
)

// Config configures a Server.
type Config struct {
	Mode Mode
	// ShardID / ShardCount place this server in a sharded deployment
	// (internal/shard, DESIGN.md §16). With ShardCount > 1 the server
	// allocates page ids and TIDs in its own residue class — ids ≡ ShardID+1
	// (mod ShardCount) — so the router can derive a page's home shard from
	// its id alone and a coordinator-issued global TID never collides with
	// another shard's local allocation. ShardCount 0 or 1 is the single-node
	// layout (stride 1, unchanged ids).
	ShardID     int
	ShardCount  int
	Store       disk.Store    // stable data volume; NewMemStore if nil
	LogCapacity int           // log bytes; wal.DefaultCapacity if 0
	PoolPages   int           // server buffer pool frames; default 4608 (36 MB)
	LockTimeout time.Duration // lock wait bound; lock.DefaultTimeout if 0
	// CheckpointEvery takes a checkpoint after this many commits (0 = 64).
	CheckpointEvery int
	// Log, when non-nil, is adopted instead of a freshly created log. The
	// crash-point sweep uses this to restart a server over the surviving
	// store and log of a crashed instance, as reopening the log disk would.
	Log *wal.Log
	// WPLInstallAsync is ignored: a committed WPL copy is installed inline
	// by whoever makes it the chain head. Kept only so bench/ still builds.
	WPLInstallAsync bool
	// RepairPage, when non-nil, rebuilds the current contents of one corrupt
	// page from media beyond the live log. archive.Wire installs
	// backup-plus-archived-log per-page redo here; repair (internal/server/
	// scrub.go) calls it when the live log alone cannot determine the page.
	// Called under a shard latch — implementations must only touch the log
	// and archive media, never server state.
	RepairPage func(pid page.ID) ([]byte, error)
	// ScrubEvery, when positive, runs the background scrubber: every tick it
	// verifies a batch of DefaultScrubPages stored pages against their
	// integrity envelopes and repairs what it finds (internal/server/scrub.go).
	ScrubEvery time.Duration
	// CleanerEvery, when positive, runs the background page cleaner: every
	// tick it writes home up to DefaultCleanerBatch cold dirty pages in
	// recLSN order, enforcing the WAL rule per page. Commits never wait on it.
	CleanerEvery time.Duration
	// DirtyPageTarget bounds restart redo work: the cleaner drains toward
	// this many DPT entries, and a committing session past 2x the target
	// cleans a few pages inline (soft backpressure, high watermark).
	// 0 disables backpressure.
	DirtyPageTarget int
	// Standby starts the server as a hot standby: it accepts no client
	// writes, its log and tables are maintained exclusively by
	// Session.ApplyShipped replaying the primary's record stream, and
	// read-only sessions see the replicated state. Session.Promote ends
	// standby mode by running the normal scheme-specific Restart.
	Standby bool
	// CommitAck, when non-nil, runs on the commit path after the commit
	// record is stable locally, with the LSN just past the commit record.
	// Semi-sync replication (internal/repl) hooks here to block the commit
	// until a standby has acknowledged that LSN; because group commit has
	// already batched the force, one standby ack typically covers the whole
	// group. The hook runs under the read side of the gate, so it must never
	// call back into server operations.
	CommitAck func(endLSN uint64)
}

// DefaultPoolPages is 36 MB of 8 KB frames, the paper's server memory.
const DefaultPoolPages = 36 << 20 / page.Size

// superblockPage holds the master record (checkpoint LSN and allocation
// counters); it is never handed to clients (ErrMasterRecord).
const superblockPage page.ID = 0

// Stats counts server-side work. Fields are updated with atomics; read them
// through Stats() / ExtendedStats().
type Stats struct {
	LogPagesReceived    int64 // client→server log record pages (ESM/REDO)
	DirtyPagesReceived  int64 // client→server dirty pages (ESM/WPL)
	PagesServed         int64 // server→client page fetches
	DataReads           int64 // data-disk page reads
	DataWrites          int64 // data-disk page writes
	LogRecordsApplied   int64 // REDO applications
	WPLInstalls         int64 // WPL pages installed to their home location
	WPLLogReloads       int64 // WPL pages re-read from the log
	Commits             int64
	Aborts              int64
	Checkpoints         int64
	CheckpointsFailed   int64 // checkpoints abandoned on a disk error (retried later)
	InstallsDeferred    int64 // WPL installs deferred on a disk error (page stays in the WPL table)
	Restarts            int64
	ScrubScanned        int64 // pages verified by the scrubber
	ChecksumFailures    int64 // reads that hit a corrupt page (rot, tear, misdirection)
	PagesRepaired       int64 // corrupt pages rebuilt and written home
	PagesUnrepairable   int64 // corrupt pages no source could rebuild
	CleanerPages        int64 // dirty pages written home by the cleaner
	CleanerPasses       int64 // cleaner passes (ticks + backpressure batches)
	CleanerHotSkips     int64 // cleaner candidates skipped: re-dirtied while the cleaner forced the log
	CkptStallNs         int64 // always 0: no checkpoint stops commits (bench/ reads this field)
	TwoPCPrepares       int64 // participant branches prepared (forced PREPARE records)
	TwoPCPresumedAborts int64 // resolution requests answered "no decision" (presumed abort)
	TwoPCResolutions    int64 // recovery-resolution round-trips served (ResolveInDoubt calls)
}

// StatsX extends Stats with the concurrency counters introduced with group
// commit and sharded latching; qsctl stats reports it from a live daemon.
type StatsX struct {
	Stats
	GroupCommit     wal.GroupCommitStats
	LogForces       int64        // stable log writes: syncs that wrote, one per group
	LogPagesWritten int64        // cumulative 8 KB log pages written
	PoolHits        int64        // buffer pool hits
	PoolMisses      int64        // buffer pool misses
	LatchContention int64        // shard-latch acquisitions that found the latch held
	LockWaits       int64        // lock-manager requests that blocked on a conflict
	Restart         RestartStats // the most recent restart, phase by phase
	RedoApplied     []int64      // one element, Restart.RecordsRedone: the pass is sequential (bench/ reads this field)
	DirtyPages      int64        // current DPT size (pages restart redo would visit)
	// RedoDistanceBytes is the stable log span a crash right now would
	// rescan for redo: StableEnd - min(recLSN) over the DPT (0 when clean).
	// The cleaner's dirty-page target exists to bound this number.
	RedoDistanceBytes int64
	Retention         wal.Retention // what bounds the log head; the lowest holder pins it
}

// RestartStats is the recovery timeline of one Restart: how long each phase
// took and how much work it found. A restart that failed part-way leaves the
// phases it finished.
type RestartStats struct {
	VerifyNs       int64 // master and checkpoint records read; for a fresh log, the volume walked and verified
	PassNs         int64 // the log pass: analysis and redo (WPL: analysis, then the installs)
	UndoNs         int64 // losers rolled back, in-doubt branches re-locked, log forced
	CheckpointNs   int64 // the closing checkpoint
	RecordsScanned int64 // log records the pass read
	BytesScanned   int64 // log bytes the pass read
	RecordsRedone  int64 // records the pass replayed onto a page (ESM/REDO)
	PagesVerified  int64 // stored pages the fresh-log walk read (zero over a non-empty log)
	Losers         int64 // transactions rolled back
	InDoubt        int64 // prepared branches left for resolution
}

// txn is an active-transaction-table entry. The att map and the entries'
// fields are written under attMu — by tables.note, through logAndNote — and
// snapshotted under it; the single session driving the transaction (clients
// issue a transaction's requests sequentially) reads its own entry freely.
type txn struct {
	tid      logrec.TID
	lastLSN  uint64 // most recent log record (undo chain head); NoLSN if none
	firstLSN uint64 // oldest log record; NoLSN if none
	// pageLSN tracks the last LSN assigned to each page this transaction
	// updated, used to stamp dirty pages on arrival (log records for a page
	// always precede the page itself).
	pageLSN map[page.ID]uint64
	// wplPages lists pages logged for this transaction under WPL, in order.
	wplPages []page.ID
	// 2PC branch state (DESIGN.md §16). A prepared branch has voted yes: its
	// PREPARE record is forced, its locks are pinned, and only a coordinator
	// decision (or restart resolution) may finish it. coord/parts echo the
	// PREPARE payload; prepLSN locates it; prepTime feeds in-doubt age
	// reporting only.
	prepared bool
	coord    int
	parts    []int
	prepLSN  uint64
	prepTime time.Time
}

// dptEntry is a dirty page table entry. rec is the recLSN: the oldest log
// record whose effect may not yet be on the stored page, where restart redo
// for this page must begin. newest is the newest logged record for the page;
// a flushed image retires the entry only when its pageLSN has caught up to
// newest (under ESM a page's records can outrun its shipped image, and an
// image older than newest leaves redo work outstanding).
type dptEntry struct {
	rec    uint64
	newest uint64
}

// wplEntry is a WPL-table entry (paper §3.4.2). Guarded by wplMu.
type wplEntry struct {
	pid       page.ID
	lsn       uint64 // location of the page image in the log
	tid       logrec.TID
	committed bool
	// commitEnd is the end LSN of the committing transaction's commit record,
	// set with committed. An install must not reach the permanent location
	// before the commit record is stable (the no-steal discipline WPL
	// recovery depends on); installers force the log when commitEnd is still
	// beyond the stable end.
	commitEnd uint64
	prev      *wplEntry // previously logged copy still needed for recovery
}

// Server is the storage server. Its methods are invoked through Sessions.
type Server struct {
	cfg   Config
	store disk.Store
	log   *wal.Log
	// redo holds the log at the oldest LSN restart would read. Set by
	// checkpointCore and applyShippedCheckpoint.
	redo  *wal.Holder
	locks *lock.Manager

	// gate quiesces the server: see the package comment's concurrency model.
	gate sync.RWMutex

	pool *buffer.Sharded

	// The recovery tables (replay.go), each map under its own leaf mutex:
	// att under attMu, dpt (ESM/REDO) under dptMu, wpl under wplMu, and under
	// decMu decided — the coordinator's commit decisions whose DECIDE record
	// is logged but whose participants have not all confirmed (the
	// presumed-abort "recovery table"; an abort decision is never entered,
	// absence IS the abort answer). decMu, dptMu and wplMu nest inside attMu.
	tables
	attMu, decMu, dptMu, wplMu sync.Mutex

	cleaning map[page.ID]bool // pages claimed by an in-flight cleanOne; under dptMu

	allocMu  sync.Mutex
	nextTID  logrec.TID
	nextPage page.ID
	roTID    logrec.TID // next standby read-only TID (standbyTIDBase range)
	commits  int        // since last checkpoint
	// pressureRearm is the log end at which the log-pressure checkpoint
	// trigger re-arms (0 = armed); see Commit.
	pressureRearm uint64

	stats Stats // atomics

	closeOnce sync.Once

	scrubMu     sync.Mutex
	scrubCursor page.ID       // next page the paced scrubber will verify
	scrubStop   chan struct{} // non-nil iff ScrubEvery > 0
	scrubWG     sync.WaitGroup

	// ckptMu serializes checkpointers: a checkpoint finding one in flight
	// waits for it, then takes its own.
	ckptMu      sync.Mutex
	cleanerStop chan struct{} // non-nil iff CleanerEvery > 0
	cleanerWG   sync.WaitGroup

	// restarting is set for the duration of Restart (which holds gate.W).
	// Read by maintenance entry points before they touch the gate, so a
	// checkpoint or cleaner pass racing a restart fails fast with
	// ErrRestarting instead of deadlocking behind the write side.
	restarting atomic.Bool

	// standby is set while the server is a replication standby (Config.
	// Standby, cleared by Promote): write entry points fail fast with
	// ErrStandby and local commits/aborts of read-only sessions finish
	// without log appends.
	standby atomic.Bool

	// lastRestart is the most recent restart's timeline; written under gate.W,
	// read under gate.R (ExtendedStats).
	lastRestart RestartStats
}

// New creates a server and formats the volume if it is empty. If the volume
// already contains data (a reopened file store), call Restart to recover.
func New(cfg Config) *Server {
	if cfg.Store == nil {
		cfg.Store = disk.NewMemStore()
	}
	if cfg.PoolPages == 0 {
		cfg.PoolPages = DefaultPoolPages
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 64
	}
	if cfg.Log == nil {
		cfg.Log = wal.New(cfg.LogCapacity)
	}
	s := &Server{
		cfg:      cfg,
		store:    cfg.Store,
		log:      cfg.Log,
		locks:    lock.NewManager(cfg.LockTimeout),
		pool:     buffer.NewSharded(cfg.PoolPages, buffer.DefaultShards),
		tables:   seed(cfg.Mode, nil),
		cleaning: make(map[page.ID]bool),
		nextTID:  1,
		nextPage: 1,
	}
	if cfg.ShardCount > 1 {
		// Residue-class allocation: shard i hands out ids ≡ i+1 (mod N), so
		// page 0 (the superblock) belongs to no shard and shardOf(pid) is a
		// pure function of the id.
		s.nextTID = logrec.TID(cfg.ShardID + 1)
		s.nextPage = page.ID(cfg.ShardID + 1)
	}
	s.standby.Store(cfg.Standby)
	// Until a checkpoint says otherwise restart needs all the log there is.
	// On an adopted Config.Log this replaces the previous server's holder.
	s.redo = s.log.Hold("redo", s.log.Head(), nil, 0)
	if cfg.ScrubEvery > 0 {
		s.scrubStop = make(chan struct{})
		s.scrubWG.Add(1)
		go s.scrubWorker(cfg.ScrubEvery)
	}
	if cfg.CleanerEvery > 0 {
		s.cleanerStop = make(chan struct{})
		s.cleanerWG.Add(1)
		go s.cleanerWorker(cfg.CleanerEvery)
	}
	return s
}

// Close stops the background cleaner and scrubber, if any. Safe to call
// more than once; a closed server still serves requests.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		if s.cleanerStop != nil {
			close(s.cleanerStop)
			s.cleanerWG.Wait()
		}
		if s.scrubStop != nil {
			close(s.scrubStop)
			s.scrubWG.Wait()
		}
	})
}

// Mode returns the server's recovery mode.
func (s *Server) Mode() Mode { return s.cfg.Mode }

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() Stats {
	ld := func(p *int64) int64 { return atomic.LoadInt64(p) }
	return Stats{
		LogPagesReceived:    ld(&s.stats.LogPagesReceived),
		DirtyPagesReceived:  ld(&s.stats.DirtyPagesReceived),
		PagesServed:         ld(&s.stats.PagesServed),
		DataReads:           ld(&s.stats.DataReads),
		DataWrites:          ld(&s.stats.DataWrites),
		LogRecordsApplied:   ld(&s.stats.LogRecordsApplied),
		WPLInstalls:         ld(&s.stats.WPLInstalls),
		WPLLogReloads:       ld(&s.stats.WPLLogReloads),
		Commits:             ld(&s.stats.Commits),
		Aborts:              ld(&s.stats.Aborts),
		Checkpoints:         ld(&s.stats.Checkpoints),
		CheckpointsFailed:   ld(&s.stats.CheckpointsFailed),
		InstallsDeferred:    ld(&s.stats.InstallsDeferred),
		Restarts:            ld(&s.stats.Restarts),
		ScrubScanned:        ld(&s.stats.ScrubScanned),
		ChecksumFailures:    ld(&s.stats.ChecksumFailures),
		PagesRepaired:       ld(&s.stats.PagesRepaired),
		PagesUnrepairable:   ld(&s.stats.PagesUnrepairable),
		CleanerPages:        ld(&s.stats.CleanerPages),
		CleanerPasses:       ld(&s.stats.CleanerPasses),
		CleanerHotSkips:     ld(&s.stats.CleanerHotSkips),
		TwoPCPrepares:       ld(&s.stats.TwoPCPrepares),
		TwoPCPresumedAborts: ld(&s.stats.TwoPCPresumedAborts),
		TwoPCResolutions:    ld(&s.stats.TwoPCResolutions),
	}
}

// ExtendedStats returns the full observability snapshot.
func (s *Server) ExtendedStats() StatsX {
	x := StatsX{
		Stats:           s.Stats(),
		GroupCommit:     s.log.GroupStats(),
		LogForces:       s.log.Forces(),
		LogPagesWritten: s.log.PagesWritten(),
		PoolHits:        s.pool.Hits(),
		PoolMisses:      s.pool.Misses(),
		LatchContention: s.pool.Contention(),
		LockWaits:       s.locks.Waits(),
		Retention:       s.log.Holders(),
	}
	s.gate.RLock()
	x.Restart = s.lastRestart
	x.RedoApplied = []int64{s.lastRestart.RecordsRedone}
	s.gate.RUnlock()
	s.dptMu.Lock()
	x.DirtyPages = int64(len(s.dpt))
	var minRec uint64
	for _, e := range s.dpt {
		if minRec == 0 || e.rec < minRec {
			minRec = e.rec
		}
	}
	s.dptMu.Unlock()
	if minRec > 0 {
		if end := s.log.StableEnd(); end > minRec {
			x.RedoDistanceBytes = int64(end - minRec)
		}
	}
	return x
}

// Log exposes the log manager for tests and tools.
func (s *Server) Log() *wal.Log { return s.log }

// enter takes the per-operation (read) side of the quiesce gate. The
// returned func releases it.
func (s *Server) enter() func() {
	s.gate.RLock()
	return s.gate.RUnlock
}

// commitWait parks until a group flush covers rec — a just-appended COMMIT,
// PREPARE or DECIDE — and charges the session its share of the group's write.
func (sn *Session) commitWait(rec *logrec.Record) {
	sn.m.Add(costmodel.LogForce, sn.s.log.CommitWait(rec.LSN+uint64(rec.EncodedSize())))
}

// stride is the allocation step for page ids and TIDs: ShardCount in a
// sharded deployment (each shard stays in its residue class), 1 otherwise.
func (s *Server) stride() uint64 {
	if s.cfg.ShardCount > 1 {
		return uint64(s.cfg.ShardCount)
	}
	return 1
}

// lookupTxn finds tid's ATT entry.
func (s *Server) lookupTxn(tid logrec.TID) (*txn, bool) {
	s.attMu.Lock()
	defer s.attMu.Unlock()
	t, ok := s.att[tid]
	return t, ok
}

// Session is one client's connection; server-side costs are charged to its
// meter so the simulation attributes queueing correctly.
type Session struct {
	s *Server
	m costmodel.Meter
	// tidMu guards blocks: a management goroutine may call in beside a
	// transaction's own calls.
	tidMu sync.Mutex
	// blocks are the transaction ids reserved for this session and not all
	// opened yet (Reserve, Open); they die with the session.
	blocks []tidBlock
}

// TIDBlock is how many transaction ids one Reserve sets aside: a wire
// connection begins that many transactions for one reserve frame.
const TIDBlock = 256

// tidBlock is a run of n reserved ids, first, first+stride, ...; used marks
// the ones opened.
type tidBlock struct {
	first  logrec.TID
	stride uint64
	n      int
	opened int
	used   [TIDBlock / 64]uint64
}

// claim marks tid opened if it is in one of sn's blocks and not opened yet,
// reporting whether it was; a block all of whose ids are opened is dropped.
func (sn *Session) claim(tid logrec.TID) bool {
	sn.tidMu.Lock()
	defer sn.tidMu.Unlock()
	for i := range sn.blocks {
		b := &sn.blocks[i]
		if tid < b.first {
			continue
		}
		d := uint64(tid - b.first)
		k := d / b.stride
		if d%b.stride != 0 || k >= uint64(b.n) || b.used[k/64]&(1<<(k%64)) != 0 {
			continue
		}
		b.used[k/64] |= 1 << (k % 64)
		if b.opened++; b.opened == b.n {
			sn.blocks = append(sn.blocks[:i], sn.blocks[i+1:]...)
		}
		return true
	}
	return false
}

// NewSession opens a session reporting its work to m (nil for no
// accounting). The ignored *costmodel.Params is kept only because the
// frozen bench/ module calls NewSession(nil, nil); the meter prices events
// itself.
func (s *Server) NewSession(m costmodel.Meter, _ *costmodel.Params) *Session {
	if m == nil {
		m = costmodel.NopMeter{}
	}
	return &Session{s: s, m: m}
}

// meter is sn.m, nil-safe: internal paths with no session (the master
// record's repair) pass a nil *Session and charge nothing.
func (sn *Session) meter() costmodel.Meter {
	if sn == nil {
		return costmodel.NopMeter{}
	}
	return sn.m
}

// Begin starts a transaction and returns its id: it reserves one id and
// opens it.
func (sn *Session) Begin() logrec.TID {
	tid, _ := sn.reserve(1)
	sn.Open(tid) // a fresh reservation opens
	return tid
}

// Reserve sets aside TIDBlock transaction ids for this session and returns
// the first and the stride between them (ShardCount when sharded, else 1).
// Only this session may open them (Open). Nothing is logged: an id reserved
// but never opened before a crash may be reserved again after restart, which
// is safe because every session — every connection — dies with the server.
// An in-process Crash keeps the allocation frontier, so it reissues none.
func (sn *Session) Reserve() (logrec.TID, uint64) { return sn.reserve(TIDBlock) }

// reserve sets aside n ids; it is the one transaction id allocation.
func (sn *Session) reserve(n int) (logrec.TID, uint64) {
	s := sn.s
	defer s.enter()()
	s.allocMu.Lock()
	var first logrec.TID
	stride := uint64(1)
	if s.standby.Load() {
		// Standby read-only sessions draw TIDs from a disjoint high range:
		// the low range belongs to the primary's transactions arriving in
		// the replicated stream, and a collision would chain shipped records
		// onto a local reader's ATT entry. nextTID itself stays untouched —
		// it mirrors the primary through checkpoint records and Restart.
		if s.roTID == 0 {
			s.roTID = standbyTIDBase
		}
		first = s.roTID
		s.roTID += logrec.TID(n)
	} else {
		stride = s.stride()
		first = s.nextTID
		s.nextTID += logrec.TID(uint64(n) * stride)
	}
	s.allocMu.Unlock()
	sn.tidMu.Lock()
	sn.blocks = append(sn.blocks, tidBlock{first: first, stride: stride, n: n})
	sn.tidMu.Unlock()
	return first, stride
}

// Open begins transaction tid, creating its ATT entry. tid must be one this
// session reserved and has not opened yet, or a coordinator-issued id of
// another shard's residue class (the router adopting a transaction onto this
// shard, which residue-class allocation keeps from colliding with a local
// one). Opening a transaction that is already active is a no-op, so a
// duplicated or re-sent open is harmless. Anything else is ErrNoTxn: an open
// never re-creates a finished transaction, nor one reserved on a connection
// that has since died. A standby's read-only id opens only while it is one.
func (sn *Session) Open(tid logrec.TID) error {
	s := sn.s
	defer s.enter()()
	fresh := sn.claim(tid)
	s.attMu.Lock()
	defer s.attMu.Unlock()
	if _, ok := s.att[tid]; ok {
		return nil
	}
	standby := s.standby.Load()
	switch {
	case fresh && tid >= standbyTIDBase && !standby:
		return fmt.Errorf("%w: %v reserved before promotion", ErrNoTxn, tid)
	case fresh:
	case standby:
		return ErrStandby
	case s.ownClass(tid):
		return fmt.Errorf("%w: %v", ErrNoTxn, tid)
	}
	s.att[tid] = newTxn(tid)
	return nil
}

// ownClass reports whether tid is in this shard's residue class — every id
// is, unsharded.
func (s *Server) ownClass(tid logrec.TID) bool {
	st := s.stride()
	return (uint64(tid)-1)%st == uint64(s.cfg.ShardID)%st
}

// Lock acquires a page lock on behalf of tid, blocking until granted. Lock
// waits do not hold the quiesce gate (a parked waiter must not block a
// checkpoint). A lock for a finished transaction would never be released, so
// an unknown tid — a Lock re-sent after a dropped connection already aborted
// its transaction — is ErrNoTxn, as for every other transactional call.
// Page 0 is the master record's and is refused (ErrMasterRecord). Only a
// request that reaches the lock table is metered.
func (sn *Session) Lock(tid logrec.TID, pid page.ID, mode lock.Mode) error {
	if pid == superblockPage {
		return ErrMasterRecord
	}
	if _, ok := sn.s.lookupTxn(tid); !ok {
		return fmt.Errorf("%w: %v", ErrNoTxn, tid)
	}
	sn.m.Add(costmodel.LockReq, 1)
	return sn.s.locks.Lock(tid, pid, mode)
}

// AllocPage reserves a fresh page id for tid. The client formats the page
// and ships it (or its image) with its recovery scheme's normal machinery.
func (sn *Session) AllocPage(tid logrec.TID) (page.ID, error) {
	s := sn.s
	if s.standby.Load() {
		return 0, ErrStandby
	}
	exit := s.enter()
	if _, ok := s.lookupTxn(tid); !ok {
		exit()
		return 0, fmt.Errorf("%w: %v", ErrNoTxn, tid)
	}
	s.allocMu.Lock()
	pid := s.nextPage
	s.nextPage += page.ID(s.stride())
	s.allocMu.Unlock()
	exit()
	// New pages are implicitly exclusive to their creator.
	if err := s.locks.Lock(tid, pid, lock.Exclusive); err != nil {
		return 0, err
	}
	return pid, nil
}

// ReadPage copies the contents of pid into dst, which must be page.Size
// bytes, after acquiring the requested lock through Lock. The lock is acquired
// before entering the gate, so a conflict wait never delays a checkpoint.
func (sn *Session) ReadPage(tid logrec.TID, pid page.ID, mode lock.Mode, dst []byte) error {
	s := sn.s
	if len(dst) != page.Size {
		return fmt.Errorf("server: ReadPage into %d bytes", len(dst))
	}
	if err := sn.Lock(tid, pid, mode); err != nil {
		return err
	}
	defer s.enter()()
	sn.m.Add(costmodel.ServerPage, 1)
	sh := s.pool.Lock(pid)
	defer sh.Unlock()
	f, err := s.fetchShardLocked(sn, sh, pid, true)
	if err != nil {
		return err
	}
	copy(dst, f.Bytes())
	atomic.AddInt64(&s.stats.PagesServed, 1)
	return nil
}

// fetchShardLocked brings pid into its pool shard, reading from the WPL log
// copy or the data volume as appropriate. Caller holds pid's shard latch. If
// mustExist is false, a missing page is created empty (the replay path).
//
// The page is read into the shard's scratch buffer, room is made, and only
// then is it inserted: a frame inserted before the read would be a blank
// resident copy that repairImage trusts over the stored one.
func (s *Server) fetchShardLocked(sn *Session, sh *buffer.PoolShard, pid page.ID, mustExist bool) (*buffer.Frame, error) {
	if f := sh.Get(pid); f != nil {
		return f, nil
	}
	var wplLSN uint64
	haveWPL := false
	if s.cfg.Mode == ModeWPL {
		s.wplMu.Lock()
		if e := s.wpl[pid]; e != nil {
			wplLSN, haveWPL = e.lsn, true
		}
		s.wplMu.Unlock()
	}
	buf := sh.Scratch()
	if haveWPL {
		// The newest logged copy is the current version (paper §3.4.2:
		// replaced dirty pages are re-read from the log).
		bp := logScratch.Get().(*[]byte)
		defer logScratch.Put(bp)
		rec, err := s.log.ReadAt(wplLSN, bp)
		if err != nil {
			return nil, fmt.Errorf("server: WPL reload of %v: %w", pid, err)
		}
		copy(buf, rec.After)
		sn.meter().Add(costmodel.LogRead, 1)
		atomic.AddInt64(&s.stats.WPLLogReloads, 1)
	} else {
		err := s.storeRead(sn, pid, buf)
		switch {
		case errors.Is(err, disk.ErrNotFound) && !mustExist:
			return s.insertBlankShardLocked(sn, sh, pid)
		case errors.Is(err, disk.ErrCorruptPage):
			// Rot, a torn write, or a misdirected write under the stored
			// copy. Repair in place before serving or redoing anything;
			// unrepairable pages fail loudly and the damaged bytes are
			// never served. Restart's pass and undo repair here too: the
			// pass reads the log with ScanFrom, whose callback runs without
			// the log's lock, so repair may force and scan it.
			atomic.AddInt64(&s.stats.ChecksumFailures, 1)
			if rerr := s.repairShardLocked(sn, sh, pid, err, buf); rerr != nil {
				return nil, rerr
			}
		case err != nil:
			return nil, err
		}
	}
	if err := s.makeRoomShardLocked(sn, sh); err != nil {
		return nil, err
	}
	return sh.Insert(pid, buf)
}

// insertBlankShardLocked makes room in the shard and inserts pid as a freshly
// initialised page: one the volume never stored, or one a whole-page image is
// about to overwrite. Caller holds the shard latch.
func (s *Server) insertBlankShardLocked(sn *Session, sh *buffer.PoolShard, pid page.ID) (*buffer.Frame, error) {
	if err := s.makeRoomShardLocked(sn, sh); err != nil {
		return nil, err
	}
	f, err := sh.Insert(pid, nil)
	if err != nil {
		return nil, err
	}
	page.Wrap(f.Bytes()).Init(pid)
	return f, nil
}

// makeRoomShardLocked evicts the shard's LRU frame if the shard is full,
// handling dirty victims per the recovery mode. Caller holds the shard latch.
func (s *Server) makeRoomShardLocked(sn *Session, sh *buffer.PoolShard) error {
	if !sh.Full() {
		return nil
	}
	v := sh.Victim()
	if v == nil {
		return fmt.Errorf("%w: server pool wedged", buffer.ErrNoFrame)
	}
	pid := v.PID()
	if v.Dirty() {
		if err := s.flushVictimShardLocked(sn, sh, v); err != nil {
			return err
		}
	}
	return sh.Remove(pid)
}

// flushVictimShardLocked handles a dirty page leaving its shard.
func (s *Server) flushVictimShardLocked(sn *Session, sh *buffer.PoolShard, v *buffer.Frame) error {
	pid := v.PID()
	if s.cfg.Mode == ModeWPL {
		s.wplMu.Lock()
		defer s.wplMu.Unlock()
		e := s.wpl[pid]
		if e == nil || !e.committed {
			// Uncommitted logged copy (or none): the permanent location must
			// not be overwritten; the log holds the current version (§3.4.2).
			return nil
		}
		// Committed but not yet installed: install now. If the data disk
		// rejects the write (injected or real), the committed image still
		// lives in the log and the WPL table entry is retained, so reads
		// reload it from there until a later install succeeds — degrade,
		// don't fail the eviction.
		if err := s.installWPLLocked(sn, sh, e); err != nil {
			atomic.AddInt64(&s.stats.InstallsDeferred, 1)
		}
		return nil
	}
	_, err := s.writeHome(sn, sh, v, true)
	return err
}

// retireDPT drops pid's dirty-page-table entry if the image just written
// home (stamped written) covers every logged record for the page. An image
// older than the newest logged record leaves the entry — with its recLSN —
// in place, so redo and the cleaner still know work is outstanding.
func (s *Server) retireDPT(pid page.ID, written uint64) {
	s.dptMu.Lock()
	if e, ok := s.dpt[pid]; ok && written >= e.newest {
		delete(s.dpt, pid)
	}
	s.dptMu.Unlock()
}

// logScratch recycles the buffers WPL copy reloads decode a log record into;
// each reload copies or writes the image out before its buffer goes back.
var logScratch = sync.Pool{New: func() any { return new([]byte) }}

// shipRuns recycles ShipLog's decoded log pages: one slice of record values
// per page, decoded in place, their images aliasing the shipped bytes.
var shipRuns = sync.Pool{New: func() any { return new([]logrec.Record) }}

// ShipLog delivers a batch of client-generated log records (one "log page").
// The server assigns LSNs, chains PrevLSN, and under REDO applies each
// record to its copy of the page. The page is logged whole or not at all: a
// log without room for every record returns wal.ErrFull and logs none. Not
// valid under WPL.
func (sn *Session) ShipLog(tid logrec.TID, data []byte) error {
	s := sn.s
	if s.cfg.Mode == ModeWPL {
		return fmt.Errorf("%w: ShipLog under WPL", ErrModeViolation)
	}
	if s.standby.Load() {
		return ErrStandby
	}
	rp := shipRuns.Get().(*[]logrec.Record)
	defer func() {
		clear(*rp) // drop the aliases of data
		*rp = (*rp)[:0]
		shipRuns.Put(rp)
	}()
	recs, err := decodeRun((*rp)[:0], data)
	*rp = recs
	if err != nil {
		return fmt.Errorf("server: bad log page from %v: %w", tid, err)
	}
	// The whole batch is vetted before any of it is logged: a record whose
	// images fall outside the page would be poison for redo and undo alike.
	for i := range recs {
		r := &recs[i]
		if r.Type != logrec.TypeUpdate && r.Type != logrec.TypePageImage {
			return fmt.Errorf("server: client shipped %v record", r.Type)
		}
		if err := checkGeometry(r); err != nil {
			return fmt.Errorf("server: bad log record from %v: %w", tid, err)
		}
		r.TID = tid
	}
	defer s.enter()()
	t, ok := s.lookupTxn(tid)
	if !ok {
		return fmt.Errorf("%w: %v", ErrNoTxn, tid)
	}
	// A client logs only pages it holds X on: a client's exclusive lock
	// request travels ahead of its records, never behind them. One check per
	// run of records on the same page.
	for i := range recs {
		if i > 0 && recs[i].Page == recs[i-1].Page {
			continue
		}
		if m, ok := s.locks.Holds(tid, recs[i].Page); !ok || m != lock.Exclusive {
			return fmt.Errorf("%w: %v logs %v", ErrNotLocked, tid, recs[i].Page)
		}
	}
	atomic.AddInt64(&s.stats.LogPagesReceived, 1)
	sn.m.Add(costmodel.ServerPage, 1)
	if err := s.logAndNoteRun(t, recs); err != nil {
		return err
	}
	if s.cfg.Mode == ModeREDO {
		// New history, applied in log order: each record is above every page
		// LSN, so one that does not land is a bug, not a repeat. The one page
		// it finds at its own LSN is one the fetch repaired from the log, which
		// now holds the record.
		for i := range recs {
			r := &recs[i]
			n, err := s.replayOne(sn, r)
			if err == nil && n == 0 {
				var lsn uint64
				if lsn, err = s.pageLSN(sn, r.Page); err == nil && lsn != r.LSN {
					err = fmt.Errorf("server: %v's record at %d on %v is not above the page's LSN", tid, r.LSN, r.Page)
				}
			}
			if err != nil {
				return err
			}
		}
	}
	// The server writes filled log pages to disk as they arrive, without
	// blocking the client; the commit force queues behind this backlog.
	sn.m.Add(costmodel.LogWriteAsync, s.log.ForceFull())
	return nil
}

// decodeRun appends the records of a log page to dst, each decoded in place
// with logrec.DecodeInto: nothing is allocated once dst has grown.
func decodeRun(dst []logrec.Record, data []byte) ([]logrec.Record, error) {
	for len(data) > 0 {
		dst = append(dst, logrec.Record{})
		n, err := logrec.DecodeInto(&dst[len(dst)-1], data)
		if err != nil {
			return dst[:len(dst)-1], err
		}
		data = data[n:]
	}
	return dst, nil
}

// replayOne brings r.Page into the pool and replays r onto its frame under
// the shard latch (restart's pass, the standby's apply, REDO-mode ShipLog),
// returning 1 if the record landed. Safe for concurrent callers on different
// pages and, via the latch, on the same page.
//
// A whole-page image overwrites every byte, so it needs no stored copy: over
// one that fails its checksum it lands on a blank frame, as over one never
// written, and later records apply on top in log order. That heals a page born
// after the newest checkpoint and torn by the crash, which restart's
// verification (up to the superblock's frontier) never sees. Any other record
// over a damaged copy fails, loudly.
func (s *Server) replayOne(sn *Session, r *logrec.Record) (int64, error) {
	sh := s.pool.Lock(r.Page)
	defer sh.Unlock()
	f, err := s.fetchShardLocked(sn, sh, r.Page, false)
	if r.Type == logrec.TypePageImage && errors.Is(err, disk.ErrCorruptPage) {
		f, err = s.insertBlankShardLocked(sn, sh, r.Page)
	}
	if err != nil {
		return 0, err
	}
	applied, err := replay(f.Bytes(), r)
	if !applied {
		return 0, err
	}
	sh.MarkDirty(r.Page)
	sn.meter().Add(costmodel.ServerApply, 1)
	atomic.AddInt64(&s.stats.LogRecordsApplied, 1)
	return 1, nil
}

// pageLSN returns pid's page LSN, fetching the page if it is not cached.
func (s *Server) pageLSN(sn *Session, pid page.ID) (uint64, error) {
	sh := s.pool.Lock(pid)
	defer sh.Unlock()
	f, err := s.fetchShardLocked(sn, sh, pid, true)
	if err != nil {
		return 0, err
	}
	return page.Wrap(f.Bytes()).LSN(), nil
}

// ShipPage delivers a dirty page. Under ESM the page is cached and stamped
// with its last assigned LSN; under WPL it is appended to the log and
// tracked in the WPL table. Not valid under REDO (clients never ship pages).
func (sn *Session) ShipPage(tid logrec.TID, pid page.ID, data []byte) error {
	s := sn.s
	if s.cfg.Mode == ModeREDO {
		return fmt.Errorf("%w: ShipPage under REDO", ErrModeViolation)
	}
	if s.standby.Load() {
		return ErrStandby
	}
	if len(data) != page.Size {
		return fmt.Errorf("server: shipped page is %d bytes", len(data))
	}
	if m, ok := s.locks.Holds(tid, pid); !ok || m != lock.Exclusive {
		return fmt.Errorf("%w: %v ships %v", ErrNotLocked, tid, pid)
	}
	defer s.enter()()
	t, ok := s.lookupTxn(tid)
	if !ok {
		return fmt.Errorf("%w: %v", ErrNoTxn, tid)
	}
	atomic.AddInt64(&s.stats.DirtyPagesReceived, 1)
	sn.m.Add(costmodel.ServerPage, 1)
	if s.cfg.Mode == ModeWPL {
		return s.wplShip(sn, t, pid, data)
	}
	// ESM: the log records for this page have already arrived; stamp the
	// page with the last LSN assigned for it so pageLSN-conditional redo is
	// sound.
	sh := s.pool.Lock(pid)
	defer sh.Unlock()
	if err := s.makeRoomShardLocked(sn, sh); err != nil {
		return err
	}
	f := sh.Get(pid)
	if f == nil {
		var err error
		f, err = sh.Insert(pid, data)
		if err != nil {
			return err
		}
	} else {
		copy(f.Bytes(), data)
	}
	if lsn, ok := t.pageLSN[pid]; ok {
		page.Wrap(f.Bytes()).SetLSN(lsn)
		// Usually a no-op: ShipLog inserted the entry when it appended the
		// records. If the cleaner retired it in between (the disk image had
		// caught up), the arriving image re-dirties the frame at the same
		// LSN, so reopen the entry conservatively at that LSN.
		s.markDirty(pid, lsn)
	}
	sh.MarkDirty(pid)
	return nil
}

// wplShip logs the page image — note links it into the WPL table — and caches
// the copy. The record's image is data itself, not a copy: Append encodes it
// into the log and note keeps only its LSN.
func (s *Server) wplShip(sn *Session, t *txn, pid page.ID, data []byte) error {
	r := &logrec.Record{TID: t.tid, Type: logrec.TypePageImage, Page: pid, PrevLSN: t.lastLSN, After: data}
	if err := s.logAndNote(r, false); err != nil {
		return err
	}
	sn.m.Add(costmodel.LogWriteAsync, s.log.ForceFull())
	// Cache the copy; the permanent location is untouched until install.
	sh := s.pool.Lock(pid)
	defer sh.Unlock()
	if err := s.makeRoomShardLocked(sn, sh); err != nil {
		return err
	}
	if f := sh.Get(pid); f != nil {
		copy(f.Bytes(), data)
		sh.MarkDirty(pid)
	} else if f, err := sh.Insert(pid, data); err != nil {
		return err
	} else {
		sh.MarkDirty(f.PID())
	}
	return nil
}

// Commit commits tid: the commit record and everything before it is made
// stable by a group-commit sync, then locks are released. Under WPL
// the transaction's logged pages become installable and are installed
// before Commit returns.
func (sn *Session) Commit(tid logrec.TID) error { return sn.commit(tid, false) }

// commit is Commit, and — with decided set — the commit half of Decide: a
// prepared branch's fate belongs to the coordinator, and only its decision
// may finish it.
func (sn *Session) commit(tid logrec.TID, decided bool) error {
	s := sn.s
	exit := s.enter()
	t, ok := s.lookupTxn(tid)
	if !ok {
		exit()
		return fmt.Errorf("%w: %v", ErrNoTxn, tid)
	}
	if s.standby.Load() {
		return sn.finishStandby(t, exit)
	}
	if t.prepared && !decided {
		exit()
		return fmt.Errorf("%w: %v", ErrInDoubt, tid)
	}
	c := logrec.NewCommit(tid)
	c.PrevLSN = t.lastLSN
	// note retires the ATT entry — and under WPL marks t's copies committed —
	// in the append's critical section; t itself stays ours for the installs.
	if err := s.logAndNote(c, false); err != nil {
		exit()
		return err
	}
	sn.commitWait(c)
	if s.cfg.CommitAck != nil {
		// Semi-sync replication: the commit record is stable locally; now
		// wait for a standby to acknowledge the LSN just past it (the shipper
		// degrades to async on timeout, so this is bounded). Group commit has
		// already batched the force, so one ack usually covers the group.
		s.cfg.CommitAck(c.LSN + uint64(c.EncodedSize()))
	}
	atomic.AddInt64(&s.stats.Commits, 1)
	if s.cfg.Mode == ModeWPL {
		s.wplCommit(sn, t)
	}
	s.allocMu.Lock()
	s.commits++
	// Checkpoint on schedule, or early when the log is filling (whole-page
	// logging can write tens of MB per transaction).
	due := s.commits >= s.cfg.CheckpointEvery ||
		(s.logPressure() && s.log.End() >= s.pressureRearm)
	if due {
		s.commits = 0
	}
	s.allocMu.Unlock()
	exit()
	s.locks.ReleaseAll(tid)
	// Soft backpressure: commits never wait on the cleaner, but past the
	// high watermark (2x the dirty-page target) the committer cleans a few
	// pages inline so a write-heavy load cannot outrun the cleaner and grow
	// restart redo without bound. The inline quantum is deliberately small —
	// a commit dirties at most a handful of pages, so paying a comparable
	// handful back keeps the pool draining collectively without turning the
	// watermark into a stop-the-world flush on the commit path.
	if s.cfg.DirtyPageTarget > 0 {
		s.dptMu.Lock()
		backlog := len(s.dpt)
		s.dptMu.Unlock()
		if excess := backlog - 2*s.cfg.DirtyPageTarget; excess > 0 {
			quantum := backpressureQuantum
			if excess < quantum {
				quantum = excess
			}
			// Maintenance: a disk error here resurfaces on the eviction or
			// checkpoint path; the commit itself is already durable.
			_, _ = sn.Clean(quantum)
		}
	}
	if due {
		if err := sn.Checkpoint(); err != nil {
			// The commit record is forced; the transaction is durable. A
			// checkpoint is maintenance — on a disk error (injected or real)
			// abandon it and let a later commit retry, rather than reporting
			// a failed commit for a committed transaction.
			atomic.AddInt64(&s.stats.CheckpointsFailed, 1)
		}
		// Still more than half full: a retention holder or an open
		// transaction pins the head, so the next checkpoint would reclaim
		// nothing either and add its own record. Re-arm the pressure trigger
		// only once the log has really grown.
		s.allocMu.Lock()
		s.pressureRearm = 0
		if s.logPressure() {
			s.pressureRearm = s.log.End() + s.log.Capacity()/pressureRearmFraction
		}
		s.allocMu.Unlock()
	}
	// A retention holder too far behind the stable end (an archiver past its
	// lag bound) catches up on the committer's time, with no locks held.
	s.log.CatchUp()
	return nil
}

// pressureRearmFraction of the log's capacity is the growth that re-arms the
// log-pressure trigger: three more attempts between half full and full.
const pressureRearmFraction = 8

// logPressure: more than half full, where a commit checkpoints early.
func (s *Server) logPressure() bool { return s.log.Used() > s.log.Capacity()/2 }

// wplCommit installs the transaction's logged pages whose entries are chain
// heads, inline (the paper's §3.4.2 installer; see DESIGN.md §3). The
// committed marking itself happened with the commit record's append (note).
func (s *Server) wplCommit(sn *Session, t *txn) {
	for _, pid := range t.wplPages {
		s.wplMu.Lock()
		head := s.wpl[pid]
		s.wplMu.Unlock()
		if head != nil && head.tid == t.tid {
			// Newest copy is ours and now committed: install it (dropping
			// the whole chain — older copies are obsolete).
			s.installHead(sn, pid, head)
		}
	}
}

// installHead installs e to pid's permanent location if it is still the
// committed chain head — validated under wplMu before any write, since a
// concurrent eviction may have installed it first. Every caller holds
// gate.R, and the tables are replaced only under gate.W, so e cannot be a
// stale entry from before a crash. Install failures degrade: the entry is
// retained and retried at eviction/restart.
func (s *Server) installHead(sn *Session, pid page.ID, e *wplEntry) {
	sh := s.pool.Lock(pid)
	defer sh.Unlock()
	s.wplMu.Lock()
	defer s.wplMu.Unlock()
	if s.wpl[pid] != e || !e.committed {
		return
	}
	if err := s.installWPLLocked(sn, sh, e); err != nil {
		atomic.AddInt64(&s.stats.InstallsDeferred, 1)
	}
}

// Abort rolls tid back. Under ESM/REDO the transaction's update records are
// undone with compensation log records; under WPL its logged copies are
// simply dropped from the WPL table (§3.4.2: abort by ignoring).
func (sn *Session) Abort(tid logrec.TID) error { return sn.abort(tid, false) }

// abort is Abort, and — with decided set — the abort half of Decide. An
// in-doubt branch must survive client disconnects and unilateral rollback
// attempts: only the coordinator's decision — or restart resolution's presumed
// abort — may roll it back.
func (sn *Session) abort(tid logrec.TID, decided bool) error {
	s := sn.s
	exit := s.enter()
	t, ok := s.lookupTxn(tid)
	if !ok {
		exit()
		return fmt.Errorf("%w: %v", ErrNoTxn, tid)
	}
	if s.standby.Load() {
		return sn.finishStandby(t, exit)
	}
	if t.prepared && !decided {
		exit()
		return fmt.Errorf("%w: %v", ErrInDoubt, tid)
	}
	if t.lastLSN == logrec.NoLSN {
		// Nothing was ever logged for this transaction — a read-only branch,
		// or an empty one a sharded router opened and never used. There is
		// nothing to undo and restart treats unknown ids as aborted, so it is
		// dropped without appending or forcing anything.
		atomic.AddInt64(&s.stats.Aborts, 1)
		sn.finishUnlogged(tid, exit)
		return nil
	}
	a := logrec.NewAbort(tid)
	a.PrevLSN = t.lastLSN
	// note clears a decided branch's prepared flag and, under WPL, unlinks t's
	// copies (t still holds its X locks, so no one else is shipping these
	// pages) in the append's critical section.
	if err := s.logAndNote(a, false); err != nil {
		exit()
		return err
	}
	if s.cfg.Mode == ModeWPL {
		s.wplAborted(sn, t)
	}
	err := s.rollback(sn, t)
	if err != nil {
		// The locks are about to go, so a partial rollback is sealed with its End
		// all the same: an End-less one would be resumed by the next restart over
		// pages that later transactions have since committed to.
		_ = s.logEnd(t)
	}
	sn.m.Add(costmodel.LogForce, s.log.Force())
	atomic.AddInt64(&s.stats.Aborts, 1)
	// A no-op once the End's note has retired the entry; if the End could not
	// be logged the entry still leaves, or it would pin the log head for good.
	sn.finishUnlogged(tid, exit)
	return err
}

// rollback finishes a transaction that will not commit: under ESM/REDO its
// updates are undone with CLRs (WPL aborts by ignoring, §3.4.2), then the End
// record retires its ATT entry. Abort and restart's loser pass both end here.
// A failed undo logs no End: restart returns the error with the loser still a
// loser, and the next restart resumes the rollback from its CLRs.
func (s *Server) rollback(sn *Session, t *txn) error {
	if s.cfg.Mode != ModeWPL {
		if err := s.undo(sn, t, logrec.NoLSN); err != nil {
			return err
		}
	}
	return s.logEnd(t)
}

// logEnd logs the End that closes t's chain and retires its ATT entry.
func (s *Server) logEnd(t *txn) error {
	e := logrec.NewEnd(t.tid)
	e.PrevLSN = t.lastLSN
	return s.logAndNote(e, false)
}

// finishStandby ends a local session's transaction on a standby. A replicated
// transaction's fate is the primary's to decide, through the shipped stream —
// never a local client's; a read-only one logged nothing (writes are refused)
// and finishes without appending — a standby-side record would diverge the
// replicated log from the primary's byte stream.
func (sn *Session) finishStandby(t *txn, exit func()) error {
	if t.lastLSN != logrec.NoLSN {
		exit()
		return ErrStandby
	}
	sn.finishUnlogged(t.tid, exit)
	return nil
}

// finishUnlogged ends tid with no record of its own to retire it: the ATT
// entry is dropped, the gate left and the locks released.
func (sn *Session) finishUnlogged(tid logrec.TID, exit func()) {
	s := sn.s
	s.attMu.Lock()
	delete(s.att, tid)
	s.attMu.Unlock()
	exit()
	s.locks.ReleaseAll(tid)
}

// wplAborted is what an abort owes beyond the table, once t's copies are
// unlinked: the cached copy in the pool is the aborted version, so it is
// dropped, and an older committed copy that resurfaced as chain head is
// installed so its log space can eventually be reclaimed.
func (s *Server) wplAborted(sn *Session, t *txn) {
	for _, pid := range t.wplPages {
		sh := s.pool.Lock(pid)
		if f := sh.Peek(pid); f != nil {
			sh.MarkClean(pid)
			sh.Remove(pid)
		}
		sh.Unlock()
		s.wplMu.Lock()
		head := s.wpl[pid]
		s.wplMu.Unlock()
		if head != nil && head.committed {
			s.installHead(sn, pid, head)
		}
	}
}

// undo rolls back t's update records down to (but not including) stopAt,
// writing CLRs. Used by abort (stopAt = NoLSN) and by restart to roll back
// loser transactions. Undo reads the log, so it begins by forcing the
// volatile tail.
func (s *Server) undo(sn *Session, t *txn, stopAt uint64) error {
	sn.meter().Add(costmodel.LogForce, s.log.Force())
	cur := t.lastLSN
	var scratch []byte // one record at a time: undoApply copies what it keeps
	for cur != logrec.NoLSN && cur != stopAt {
		r, err := s.log.ReadAt(cur, &scratch)
		if err != nil {
			return fmt.Errorf("server: undo %v at %d: %w", t.tid, cur, err)
		}
		switch r.Type {
		case logrec.TypeUpdate:
			if err := s.undoApply(sn, t, r); err != nil {
				return err
			}
			cur = r.PrevLSN
		case logrec.TypeCLR:
			cur = r.UndoNext
		case logrec.TypePageImage:
			// A fresh page created by the loser: it was never linked into
			// any committed structure, so leave its bytes; the allocation is
			// simply wasted (documented in DESIGN.md).
			cur = r.PrevLSN
		default:
			cur = r.PrevLSN
		}
	}
	return nil
}

// undoApply reverses one update record: it logs the CLR whose after-image is
// the update's before-image, then replays that CLR onto the page — undo is
// redo of the compensation.
//
//qslint:allow latch-io: ARIES undo restores the before-image and appends its CLR under the page's shard latch — the two must be atomic against concurrent readers of the page, and the append is buffered (no force)
func (s *Server) undoApply(sn *Session, t *txn, r *logrec.Record) error {
	sh := s.pool.Lock(r.Page)
	defer sh.Unlock()
	f, err := s.fetchShardLocked(sn, sh, r.Page, false)
	if err != nil {
		return err
	}
	clr := &logrec.Record{
		TID:      t.tid,
		Type:     logrec.TypeCLR,
		Page:     r.Page,
		Off:      r.Off,
		UndoNext: r.PrevLSN,
		After:    append([]byte(nil), r.Before...),
		PrevLSN:  t.lastLSN,
	}
	// Vetted before it is logged: a CLR that cannot be replayed must not
	// reach the log.
	if err := checkGeometry(clr); err != nil {
		return fmt.Errorf("server: undo %v at %d: %w", t.tid, r.LSN, err)
	}
	if err := s.logAndNote(clr, false); err != nil {
		return err
	}
	applied, err := replay(f.Bytes(), clr)
	if err != nil {
		return err
	}
	if !applied {
		return fmt.Errorf("server: undo %v: CLR at %d on %v is not above the page's LSN", t.tid, clr.LSN, r.Page)
	}
	sh.MarkDirty(r.Page)
	return nil
}
