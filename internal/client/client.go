// Package client implements the QuickStore client: a memory-mapped
// persistent object store (paper [White94]) with the four recovery schemes
// of the paper.
//
//   - PD  (page differencing, §3.2): the first write to a page faults, the
//     fault handler copies the page into the recovery buffer, takes an
//     exclusive lock, and write-enables the frame; log records are generated
//     later by diffing the copy against the buffer pool.
//   - SD  (sub-page differencing, §3.3): updates go through a software
//     update function that copies the containing 64-byte block on first
//     touch; blocks are diffed at log-generation time.
//   - SL  (sub-page logging): as SD but whole blocks are logged undiffed.
//   - WPL (whole-page logging, §3.4): no client-side copies or log records;
//     dirty pages are shipped at commit and logged whole at the server.
//
// The redo-at-server variant (PD-REDO, §3.5) is a client-visible flag,
// ShipDirtyPages=false: the client generates log records exactly as PD but
// never ships the pages themselves.
//
// Log records for a page are always shipped before the page itself, and all
// dirty pages are shipped at commit (ESM's force-to-server-at-commit), as
// §3.1 requires.
package client

import (
	"errors"
	"fmt"

	"repro/internal/buffer"
	"repro/internal/costmodel"
	"repro/internal/diff"
	"repro/internal/lock"
	"repro/internal/page"
	"repro/internal/recbuf"
	"repro/internal/vmem"
	"repro/internal/wire"
)

// Scheme selects the client's log-record generation strategy (Table 3).
type Scheme int

// Client schemes.
const (
	// PD is page differencing.
	PD Scheme = iota
	// SD is sub-page differencing.
	SD
	// SL is sub-page logging (no diffing).
	SL
	// WPL is whole-page logging (the ObjectStore approach).
	WPL
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case PD:
		return "PD"
	case SD:
		return "SD"
	case SL:
		return "SL"
	case WPL:
		return "WPL"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Errors returned by the client.
var (
	ErrTxnActive   = errors.New("client: a transaction is already active")
	ErrNoTxn       = errors.New("client: no active transaction")
	ErrObjectLarge = errors.New("client: object larger than a page")
)

// Config configures a Client. The zero value plus a Service is usable: PD
// with the paper's unconstrained memory split (8 MB pool, 4 MB recovery
// buffer).
type Config struct {
	Scheme Scheme
	// PoolPages is the client buffer pool size in frames (default 1024, 8 MB).
	PoolPages int
	// RecoveryBytes is the recovery buffer capacity (default 4 MB). Ignored
	// for WPL, which dedicates all client memory to the pool.
	RecoveryBytes int
	// BlockSize is the sub-page block size for SD/SL (default 64 bytes; the
	// paper experimented with 8–64 and reports 64).
	BlockSize int
	// ShipDirtyPages controls whether dirty pages are shipped at commit and
	// eviction. True for ESM and WPL servers; false for redo-at-server.
	ShipDirtyPages bool
	// AdaptiveRecoveryBuffer enables the paper's §7 future-work policy:
	// after each commit, memory shifts between the buffer pool and the
	// recovery buffer toward whichever was under more pressure (spills grow
	// the recovery buffer, evictions grow the pool). The total budget stays
	// PoolPages*8 KB + RecoveryBytes.
	AdaptiveRecoveryBuffer bool
	// Meter receives the client's work; nil means no accounting.
	Meter costmodel.Meter
}

// Stats counts client-side work. Figure 9/14 derive their page-write counts
// from LogBytesShipped and DirtyPagesShipped deltas per transaction.
type Stats struct {
	Faults            int64 // write-protection faults handled
	Updates           int64 // update operations performed
	PageCopies        int64 // pages copied into the recovery buffer (PD)
	BlockCopies       int64 // blocks copied into the recovery buffer (SD/SL)
	PageDiffs         int64 // pages diffed (PD)
	BlockDiffs        int64 // blocks diffed (SD)
	LogRecords        int64 // log records generated
	LogBytesShipped   int64 // bytes of encoded log records shipped
	LogPagesShipped   int64 // 8 KB log pages shipped
	DirtyPagesShipped int64 // dirty data pages shipped
	PagesFetched      int64 // pages fetched from the server
	RecbufSpills      int64 // pages force-spilled from the recovery buffer
	Evictions         int64 // pages evicted from the client pool
	Commits           int64
	Aborts            int64
}

// Client is one application process's QuickStore runtime. Not safe for
// concurrent use: like the paper's clients, one workstation runs one
// application thread.
type Client struct {
	cfg   Config
	svc   wire.Service
	pool  *buffer.Pool
	space *vmem.Space
	rb    *recbuf.Buffer
	m     costmodel.Meter
	tx    *Tx
	stats Stats
	// allocPage is the page new objects are placed on until it fills.
	allocPage page.ID
	// txSeq numbers this client's transactions; a descriptor's cached lock
	// is valid only under the number it was cached with. Server tids cannot
	// serve: a restarted server may hand one out again.
	txSeq uint64
	// chunk is the unused tail of the slab ReadObject cuts copies from.
	chunk []byte
	// logPage holds the active transaction's encoded log records awaiting
	// shipment; its memory is reused from one transaction to the next.
	logPage []byte
	// regions is log generation's scratch: one object's or block's diff.
	regions []diff.Region
}

// readChunk is the size of the slabs ReadObject's copies are cut from.
const readChunk = 16 << 10

// objectCopy returns an n-byte slice cut from the current slab, capped so
// that appending to it reallocates rather than overwriting the next copy.
func (c *Client) objectCopy(n int) []byte {
	if n > len(c.chunk) {
		c.chunk = make([]byte, max(readChunk, n))
	}
	out := c.chunk[:n:n]
	c.chunk = c.chunk[n:]
	return out
}

// New creates a client speaking to svc. Retry is a property of the
// transport: wrap it first, client.New(cfg, wire.WithRetry(c, pol)).
func New(cfg Config, svc wire.Service) *Client {
	if cfg.PoolPages == 0 {
		cfg.PoolPages = (8 << 20) / page.Size
	}
	if cfg.RecoveryBytes == 0 {
		cfg.RecoveryBytes = 4 << 20
	}
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 64
	}
	if cfg.Meter == nil {
		cfg.Meter = costmodel.NopMeter{}
	}
	c := &Client{
		cfg:   cfg,
		svc:   svc,
		pool:  buffer.NewPool(cfg.PoolPages),
		space: vmem.NewSpace(),
		m:     cfg.Meter,
	}
	if cfg.Scheme != WPL {
		c.rb = recbuf.New(cfg.RecoveryBytes)
	}
	c.space.SetFaultHandler(c.handleFault)
	return c
}

// Scheme returns the configured scheme.
func (c *Client) Scheme() Scheme { return c.cfg.Scheme }

// Stats returns a snapshot of the client counters.
func (c *Client) Stats() Stats { return c.stats }

// Pool exposes buffer pool statistics for the harness.
func (c *Client) Pool() *buffer.Pool { return c.pool }

// RecoveryBufferBytes returns the recovery buffer's current capacity (it
// moves when AdaptiveRecoveryBuffer is on); zero for WPL.
func (c *Client) RecoveryBufferBytes() int {
	if c.rb == nil {
		return 0
	}
	return c.rb.Cap()
}

// adaptSplit rebalances client memory after a commit based on this
// transaction's pressure signals. It moves one step (1/16 of the smaller
// side, at least one page) from the less-pressured side to the other.
func (c *Client) adaptSplit(spills, evictions int64) {
	if !c.cfg.AdaptiveRecoveryBuffer || c.rb == nil {
		return
	}
	const minPool = 8
	var deltaPages int
	switch {
	case spills > 2*evictions:
		deltaPages = c.pool.Capacity() / 16 // grow recovery buffer
	case evictions > 2*spills:
		deltaPages = -(c.rb.Cap() / page.Size) / 16 // grow pool
	default:
		return
	}
	if deltaPages == 0 {
		if spills > 2*evictions {
			deltaPages = 1
		} else {
			deltaPages = -1
		}
	}
	newPool := c.pool.Capacity() - deltaPages
	newRec := c.rb.Cap() + deltaPages*page.Size
	if newPool < minPool || newRec < page.Size {
		return
	}
	// Shrinking the pool requires evicting surplus pages; this runs between
	// transactions, so every page is clean and eviction is cheap.
	for c.pool.Len() > newPool {
		v := c.pool.Victim()
		if v == nil {
			return
		}
		if d := c.space.ByPage(v.PID()); d != nil {
			c.space.Unmap(d)
		}
		c.stats.Evictions++
		c.pool.Remove(v.PID())
	}
	c.pool.SetCapacity(newPool)
	c.rb.SetCap(newRec)
}

// Space exposes the address space for tests.
func (c *Client) Space() *vmem.Space { return c.space }

// Begin starts a transaction. One transaction may be active at a time.
func (c *Client) Begin() (*Tx, error) {
	if c.tx != nil {
		return nil, ErrTxnActive
	}
	tid, err := c.svc.Begin()
	if err != nil {
		return nil, err
	}
	c.txSeq++
	c.logPage = c.logPage[:0]
	c.tx = &Tx{
		c:              c,
		tid:            tid,
		seq:            c.txSeq,
		dirty:          make(map[page.ID]bool),
		fresh:          make(map[page.ID]bool),
		locks:          make(map[page.ID]lock.Mode),
		startSpills:    c.stats.RecbufSpills,
		startEvictions: c.stats.Evictions,
	}
	return c.tx, nil
}

// handleFault is the QuickStore page-fault handler (paper §3.2.1): invoked
// on the first write to a write-protected frame.
func (c *Client) handleFault(d *vmem.Desc, _ vmem.Addr, write bool) error {
	if !write {
		return fmt.Errorf("%w: read fault on %v", vmem.ErrProtection, d.Page)
	}
	if c.tx == nil {
		return fmt.Errorf("%w: write outside transaction", ErrNoTxn)
	}
	c.m.Add(costmodel.Fault, 1)
	c.stats.Faults++
	return c.tx.enableRecovery(d)
}

// fetch makes pid resident, locked in mode, and returns its descriptor,
// evicting as needed. A resident page costs one descriptor lookup: the
// descriptor holds its pool frame and the lock this transaction took on it.
// Pages cached across transaction boundaries still need a lock each
// transaction — ESM caches pages but not locks (§3.1).
func (c *Client) fetch(tx *Tx, pid page.ID, mode lock.Mode) (*vmem.Desc, error) {
	if d := c.space.ByPage(pid); d != nil {
		c.pool.Touch(d.Frame)
		if err := tx.lockDesc(d, mode); err != nil {
			return nil, err
		}
		return d, nil
	}
	c.pool.Miss()
	if c.pool.Full() {
		if err := c.evictOne(tx); err != nil {
			return nil, err
		}
	}
	data, err := c.svc.ReadPage(tx.tid, pid, mode)
	if err != nil {
		return nil, err
	}
	if !tx.holds(pid, mode) {
		tx.locks[pid] = mode
	}
	c.stats.PagesFetched++
	// The reply is the service's buffer: Insert copies it into the frame
	// buffer the eviction above left for reuse.
	f, err := c.pool.Insert(pid, data)
	if err != nil {
		return nil, err
	}
	return c.space.Map(pid, f), nil
}

// evictOne pushes the LRU page out of the client pool, generating log
// records and shipping the page as the recovery scheme requires (paper:
// "when paging in the buffer pool occurs").
func (c *Client) evictOne(tx *Tx) error {
	v := c.pool.Victim()
	if v == nil {
		return fmt.Errorf("%w: client pool wedged", buffer.ErrNoFrame)
	}
	pid := v.PID()
	d := c.space.ByPage(pid)
	if v.Dirty() && tx != nil {
		if err := tx.emitLogForPage(pid); err != nil {
			return err
		}
		if err := tx.flushLog(); err != nil {
			return err
		}
		if c.cfg.ShipDirtyPages {
			if err := c.svc.ShipPage(tx.tid, pid, v.Bytes()); err != nil {
				return err
			}
			c.stats.DirtyPagesShipped++
		}
		delete(tx.dirty, pid)
		delete(tx.fresh, pid)
		if c.rb != nil {
			c.rb.Drop(pid)
		}
		c.pool.MarkClean(pid)
	}
	if d != nil {
		c.space.Unmap(d)
	}
	c.stats.Evictions++
	return c.pool.Remove(pid)
}
