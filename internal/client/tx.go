package client

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/diff"
	"repro/internal/lock"
	"repro/internal/logrec"
	"repro/internal/page"
	"repro/internal/vmem"
)

// Tx is an active transaction. All object access goes through it; at most
// one transaction is active per client.
type Tx struct {
	c      *Client
	tid    logrec.TID
	dirty  map[page.ID]bool      // pages updated and still resident
	fresh  map[page.ID]bool      // pages created by this transaction
	locks  map[page.ID]lock.Mode // page locks taken this transaction
	logBuf []byte                // encoded log records awaiting shipment
	done   bool
	// Pressure counters at Begin, for the adaptive memory-split policy.
	startSpills    int64
	startEvictions int64
}

// TID returns the server-assigned transaction id.
func (tx *Tx) TID() logrec.TID { return tx.tid }

func (tx *Tx) check() error {
	if tx.done || tx.c.tx != tx {
		return ErrNoTxn
	}
	return nil
}

// holds reports whether the transaction already holds pid's lock in mode or
// a stronger one.
func (tx *Tx) holds(pid page.ID, mode lock.Mode) bool {
	held, ok := tx.locks[pid]
	return ok && (held == lock.Exclusive || mode == lock.Shared)
}

// lock acquires pid's lock in mode once per transaction; asking for
// Exclusive while holding Shared is the paper's upgrade.
func (tx *Tx) lock(pid page.ID, mode lock.Mode) error {
	if tx.holds(pid, mode) {
		return nil
	}
	if err := tx.c.svc.Lock(tx.tid, pid, mode); err != nil {
		return err
	}
	tx.locks[pid] = mode
	return nil
}

// markDirty records that the page has uncommitted updates.
func (tx *Tx) markDirty(d *vmem.Desc) {
	d.Dirty = true
	tx.dirty[d.Page] = true
	tx.c.pool.MarkDirty(d.Page)
}

// enableRecovery performs the scheme's first-write work for a page (the
// body of the paper's fault handler, §3.2.1 / §3.4.1).
func (tx *Tx) enableRecovery(d *vmem.Desc) error {
	c := tx.c
	switch c.cfg.Scheme {
	case PD:
		if !d.RecoveryEnabled && !tx.fresh[d.Page] {
			if err := tx.spillFor(page.Size); err != nil {
				return err
			}
			c.m.ClientCompute(c.p.CopyPage)
			c.rb.PutPage(d.Page, d.Frame)
			c.stats.PageCopies++
		}
		if err := tx.lock(d.Page, lock.Exclusive); err != nil {
			return err
		}
		d.RecoveryEnabled = true
	case WPL:
		if err := tx.lock(d.Page, lock.Exclusive); err != nil {
			return err
		}
		d.RecoveryEnabled = true
	default:
		// SD/SL route updates through the update function and deliberately
		// leave frames write-protected to catch stray writes (§3.3.1).
		return fmt.Errorf("%w: stray write to %v under %v",
			vmem.ErrProtection, d.Page, c.cfg.Scheme)
	}
	c.space.Protect(d, vmem.ReadWrite)
	tx.markDirty(d)
	return nil
}

// spillFor frees recovery-buffer space by generating log records for the
// FIFO-oldest page and dropping its copies (§3.2.1). Spilled pages are
// re-protected so later updates capture a fresh before-image.
func (tx *Tx) spillFor(n int) error {
	c := tx.c
	for !c.rb.Fits(n) {
		victim, ok := c.rb.Oldest()
		if !ok {
			return fmt.Errorf("client: recovery buffer too small for %d bytes", n)
		}
		if err := tx.emitLogForPage(victim); err != nil {
			return err
		}
		c.rb.Drop(victim)
		c.rb.NoteSpill()
		c.stats.RecbufSpills++
		if d := c.space.ByPage(victim); d != nil {
			d.RecoveryEnabled = false
			if c.cfg.Scheme == PD {
				c.space.Protect(d, vmem.ReadOnly)
			}
		}
	}
	return nil
}

// touchBlocks copies the not-yet-copied blocks overlapping [start,start+n)
// into the recovery buffer (the SD update function's first-touch work).
func (tx *Tx) touchBlocks(d *vmem.Desc, start, n int) error {
	c := tx.c
	bs := c.cfg.BlockSize
	for b := start / bs; b <= (start+n-1)/bs; b++ {
		if c.rb.HasBlock(d.Page, b) {
			continue
		}
		if err := tx.spillFor(bs); err != nil {
			return err
		}
		c.m.ClientCompute(c.p.CopyBlock)
		c.rb.PutBlock(d.Page, b, d.Frame[b*bs:(b+1)*bs])
		c.stats.BlockCopies++
	}
	return nil
}

// prepareStructWrite readies a page for a runtime-internal structural
// mutation (object allocation or free): the same recovery work as an update
// covering the whole page, without the protection-fault detour.
func (tx *Tx) prepareStructWrite(d *vmem.Desc) error {
	c := tx.c
	if tx.fresh[d.Page] {
		tx.markDirty(d)
		return nil
	}
	switch c.cfg.Scheme {
	case PD:
		if !d.RecoveryEnabled {
			if err := tx.spillFor(page.Size); err != nil {
				return err
			}
			c.m.ClientCompute(c.p.CopyPage)
			c.rb.PutPage(d.Page, d.Frame)
			c.stats.PageCopies++
			d.RecoveryEnabled = true
		}
	case SD, SL:
		// Conservative: capture every block; allocation moves header, slot
		// directory and object bytes. The paper's measured workloads only
		// allocate at load time.
		if err := tx.touchBlocks(d, 0, page.Size); err != nil {
			return err
		}
	case WPL:
		// Nothing to capture.
	}
	if err := tx.lock(d.Page, lock.Exclusive); err != nil {
		return err
	}
	c.space.Protect(d, vmem.ReadWrite)
	tx.markDirty(d)
	return nil
}

// --- object operations ------------------------------------------------------

// objectRange resolves an OID to its descriptor and the page-offset range of
// the object, its page locked in mode.
func (tx *Tx) objectRange(oid page.OID, mode lock.Mode) (*vmem.Desc, int, int, error) {
	if err := tx.check(); err != nil {
		return nil, 0, 0, err
	}
	d, err := tx.c.fetch(tx, oid.Page, mode)
	if err != nil {
		return nil, 0, 0, err
	}
	pg := page.Wrap(d.Frame)
	off, err := pg.ObjectOffset(int(oid.Slot))
	if err != nil {
		return nil, 0, 0, fmt.Errorf("client: %v: %w", oid, err)
	}
	size, err := pg.ObjectSize(int(oid.Slot))
	if err != nil {
		return nil, 0, 0, err
	}
	return d, off, size, nil
}

// Size returns the object's size in bytes.
func (tx *Tx) Size(oid page.OID) (int, error) {
	_, _, size, err := tx.objectRange(oid, lock.Shared)
	return size, err
}

// Read copies len(dst) bytes from the object starting at off.
func (tx *Tx) Read(oid page.OID, off int, dst []byte) error {
	d, objOff, size, err := tx.objectRange(oid, lock.Shared)
	if err != nil {
		return err
	}
	if off < 0 || off+len(dst) > size {
		return fmt.Errorf("client: read [%d,%d) outside %v (size %d)", off, off+len(dst), oid, size)
	}
	tx.c.m.ClientCompute(tx.c.p.Deref)
	return tx.c.space.Read(d.VAddr+uint64(objOff+off), dst)
}

// ReadObject returns a copy of the whole object.
func (tx *Tx) ReadObject(oid page.OID) ([]byte, error) {
	_, _, size, err := tx.objectRange(oid, lock.Shared)
	if err != nil {
		return nil, err
	}
	out := make([]byte, size)
	if err := tx.Read(oid, 0, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Write stores data into the object starting at off. Under PD and WPL the
// write goes through the virtual-memory protection machinery (first write
// per page faults); under SD and SL it goes through the software update
// function. Knowing it will write, it takes the page's exclusive lock up
// front rather than a shared one the write would then upgrade.
func (tx *Tx) Write(oid page.OID, off int, data []byte) error {
	d, objOff, size, err := tx.objectRange(oid, lock.Exclusive)
	if err != nil {
		return err
	}
	if off < 0 || off+len(data) > size {
		return fmt.Errorf("client: write [%d,%d) outside %v (size %d)", off, off+len(data), oid, size)
	}
	c := tx.c
	c.stats.Updates++
	start := objOff + off
	switch c.cfg.Scheme {
	case SD, SL:
		c.m.ClientCompute(c.p.UpdateCall)
		if !tx.fresh[oid.Page] {
			if err := tx.touchBlocks(d, start, len(data)); err != nil {
				return err
			}
		}
		copy(d.Frame[start:start+len(data)], data)
		tx.markDirty(d)
		return nil
	default:
		return c.space.Write(d.VAddr+uint64(start), data)
	}
}

// Allocate creates a new object of the given size on the client's current
// allocation page, moving to a fresh page when it fills.
func (tx *Tx) Allocate(size int) (page.OID, error) {
	if err := tx.check(); err != nil {
		return page.NilOID, err
	}
	if size > page.MaxObjectSize {
		return page.NilOID, ErrObjectLarge
	}
	if tx.c.allocPage != 0 {
		oid, err, ok := tx.tryAllocateOn(tx.c.allocPage, size)
		if ok {
			return oid, err
		}
	}
	if _, err := tx.NewPage(); err != nil {
		return page.NilOID, err
	}
	oid, err, ok := tx.tryAllocateOn(tx.c.allocPage, size)
	if !ok {
		return page.NilOID, fmt.Errorf("client: object of %d bytes does not fit a fresh page", size)
	}
	return oid, err
}

// tryAllocateOn attempts allocation on pid; ok=false means the page is full.
func (tx *Tx) tryAllocateOn(pid page.ID, size int) (page.OID, error, bool) {
	d, err := tx.c.fetch(tx, pid, lock.Shared)
	if err != nil {
		return page.NilOID, err, true
	}
	pg := page.Wrap(d.Frame)
	if pg.FreeSpace() < size {
		return page.NilOID, nil, false
	}
	if err := tx.prepareStructWrite(d); err != nil {
		return page.NilOID, err, true
	}
	slot, err := pg.Allocate(size)
	if errors.Is(err, page.ErrPageFull) {
		return page.NilOID, nil, false
	}
	if err != nil {
		return page.NilOID, err, true
	}
	return page.OID{Page: pid, Slot: uint16(slot)}, nil, true
}

// NewPage starts a fresh allocation page and makes it current, giving
// loaders control over clustering (OO7 clusters each composite part's
// atomic parts and connections together).
func (tx *Tx) NewPage() (page.ID, error) {
	if err := tx.check(); err != nil {
		return 0, err
	}
	c := tx.c
	pid, err := c.svc.AllocPage(tx.tid)
	if err != nil {
		return 0, err
	}
	if c.pool.Full() {
		if err := c.evictOne(tx); err != nil {
			return 0, err
		}
	}
	f, err := c.pool.Insert(pid, nil)
	if err != nil {
		return 0, err
	}
	page.Wrap(f.Bytes()).Init(pid)
	d := c.space.Map(pid, f.Bytes())
	tx.fresh[pid] = true
	tx.locks[pid] = lock.Exclusive // AllocPage grants the X lock at the server
	d.RecoveryEnabled = true
	c.space.Protect(d, vmem.ReadWrite)
	tx.markDirty(d)
	c.allocPage = pid
	return pid, nil
}

// Free releases an object.
func (tx *Tx) Free(oid page.OID) error {
	d, _, _, err := tx.objectRange(oid, lock.Exclusive)
	if err != nil {
		return err
	}
	if err := tx.prepareStructWrite(d); err != nil {
		return err
	}
	return page.Wrap(d.Frame).Free(int(oid.Slot))
}

// --- log generation ----------------------------------------------------------

// appendRec queues a record for shipment; a full log page is shipped as soon
// as the next record would not fit (ESM ships log records a page at a time).
func (tx *Tx) appendRec(r *logrec.Record) error {
	c := tx.c
	sz := r.EncodedSize()
	if len(tx.logBuf) > 0 && len(tx.logBuf)+sz > page.Size {
		if err := tx.flushLog(); err != nil {
			return err
		}
	}
	tx.logBuf = r.Encode(tx.logBuf)
	c.stats.LogRecords++
	c.m.ClientCompute(c.p.LogRecCPU)
	if len(tx.logBuf) >= page.Size {
		return tx.flushLog()
	}
	return nil
}

// flushLog ships any buffered log records to the server.
func (tx *Tx) flushLog() error {
	if len(tx.logBuf) == 0 {
		return nil
	}
	c := tx.c
	if err := c.svc.ShipLog(tx.tid, tx.logBuf); err != nil {
		return err
	}
	c.stats.LogBytesShipped += int64(len(tx.logBuf))
	c.stats.LogPagesShipped += int64((len(tx.logBuf) + page.Size - 1) / page.Size)
	tx.logBuf = tx.logBuf[:0]
	return nil
}

// emitLogForPage generates log records describing pid's uncommitted changes:
// a whole-page image for fresh pages, diffed records for PD, block diffs for
// SD, whole blocks for SL. WPL generates none (§3.4.1).
func (tx *Tx) emitLogForPage(pid page.ID) error {
	c := tx.c
	if c.cfg.Scheme == WPL {
		return nil
	}
	f := c.pool.Peek(pid)
	if f == nil {
		return nil
	}
	if tx.fresh[pid] {
		return tx.appendRec(logrec.NewPageImage(tx.tid, pid, f.Bytes()))
	}
	e := c.rb.Entry(pid)
	if e == nil {
		return nil // already spilled; nothing new captured since
	}
	if e.Image != nil {
		c.m.ClientCompute(c.p.DiffPage)
		c.stats.PageDiffs++
		return tx.emitPageDiff(pid, e.Image, f.Bytes())
	}
	// Sub-page blocks, in index order for determinism.
	idxs := make([]int, 0, len(e.Blocks))
	for b := range e.Blocks {
		idxs = append(idxs, b)
	}
	sort.Ints(idxs)
	bs := c.cfg.BlockSize
	for _, b := range idxs {
		old := e.Blocks[b]
		cur := f.Bytes()[b*bs : b*bs+len(old)]
		if c.cfg.Scheme == SL {
			// Log the whole block undiffed.
			if err := tx.appendRec(logrec.NewUpdate(tx.tid, pid, b*bs, old, cur)); err != nil {
				return err
			}
			continue
		}
		c.m.ClientCompute(c.p.DiffBlock)
		c.stats.BlockDiffs++
		for _, r := range diff.Regions(old, cur) {
			rec := logrec.NewUpdate(tx.tid, pid, b*bs+r.Off, old[r.Off:r.End()], cur[r.Off:r.End()])
			if err := tx.appendRec(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// emitPageDiff produces the PD log records for one page. When the page's
// structure (header and slot directory) is unchanged, objects are diffed
// individually — log records never span objects, per ESM. Structural changes
// fall back to a raw whole-page diff, which is correct for any change.
func (tx *Tx) emitPageDiff(pid page.ID, old, cur []byte) error {
	po, pn := page.Wrap(old), page.Wrap(cur)
	if structuralChange(old, cur) {
		// Raw diff of everything past the page-LSN field (server-owned).
		for _, r := range diff.Regions(old[page.HeaderSize/2:], cur[page.HeaderSize/2:]) {
			off := r.Off + page.HeaderSize/2
			rec := logrec.NewUpdate(tx.tid, pid, off, old[off:off+r.Len], cur[off:off+r.Len])
			if err := tx.appendRec(rec); err != nil {
				return err
			}
		}
		return nil
	}
	var firstErr error
	pn.LiveObjects(func(slot int, data []byte) {
		if firstErr != nil {
			return
		}
		off, err := po.ObjectOffset(slot)
		if err != nil {
			firstErr = err
			return
		}
		oldData := old[off : off+len(data)]
		for _, r := range diff.Regions(oldData, data) {
			rec := logrec.NewUpdate(tx.tid, pid, off+r.Off, oldData[r.Off:r.End()], data[r.Off:r.End()])
			if err := tx.appendRec(rec); err != nil {
				firstErr = err
				return
			}
		}
	})
	return firstErr
}

// structuralChange reports whether the page header (beyond the LSN) or slot
// directory differs between the two images.
func structuralChange(old, cur []byte) bool {
	for i := 8; i < page.HeaderSize; i++ {
		if old[i] != cur[i] {
			return true
		}
	}
	n := page.Wrap(old).SlotCount()
	if m := page.Wrap(cur).SlotCount(); m > n {
		n = m
	}
	dirEnd := page.Size - page.TrailerSize
	for i := dirEnd - 4*n; i < dirEnd; i++ {
		if old[i] != cur[i] {
			return true
		}
	}
	return false
}

// --- commit / abort ----------------------------------------------------------

// Commit generates any remaining log records, ships them followed by the
// dirty pages (unless running redo-at-server), commits at the server, and
// resets per-transaction state. Cached pages stay resident across the
// boundary; locks do not (§3.1).
func (tx *Tx) Commit() error {
	if err := tx.check(); err != nil {
		return err
	}
	c := tx.c
	pids := make([]page.ID, 0, len(tx.dirty))
	for pid := range tx.dirty {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	for _, pid := range pids {
		if err := tx.emitLogForPage(pid); err != nil {
			return err
		}
	}
	if err := tx.flushLog(); err != nil {
		return err
	}
	if c.cfg.ShipDirtyPages {
		for _, pid := range pids {
			f := c.pool.Peek(pid)
			if f == nil {
				continue
			}
			if err := c.svc.ShipPage(tx.tid, pid, f.Bytes()); err != nil {
				return err
			}
			c.stats.DirtyPagesShipped++
		}
	}
	if err := c.svc.Commit(tx.tid); err != nil {
		return err
	}
	for _, pid := range pids {
		c.pool.MarkClean(pid)
		if d := c.space.ByPage(pid); d != nil {
			d.Dirty = false
			d.RecoveryEnabled = false
			c.space.Protect(d, vmem.ReadOnly)
		}
	}
	if c.rb != nil {
		c.rb.Clear()
	}
	c.stats.Commits++
	c.adaptSplit(c.stats.RecbufSpills-tx.startSpills, c.stats.Evictions-tx.startEvictions)
	tx.done = true
	c.tx = nil
	return nil
}

// Abort rolls the transaction back at the server and discards the client's
// modified pages; they are re-fetched on demand.
func (tx *Tx) Abort() error {
	if err := tx.check(); err != nil {
		return err
	}
	c := tx.c
	if err := c.svc.Abort(tx.tid); err != nil {
		return err
	}
	for pid := range tx.dirty {
		c.pool.MarkClean(pid)
		if d := c.space.ByPage(pid); d != nil {
			c.space.Unmap(d)
		}
		c.pool.Remove(pid)
		if c.allocPage == pid {
			c.allocPage = 0
		}
	}
	if c.rb != nil {
		c.rb.Clear()
	}
	c.stats.Aborts++
	tx.done = true
	c.tx = nil
	return nil
}
