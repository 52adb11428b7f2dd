package client

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/costmodel"
	"repro/internal/diff"
	"repro/internal/lock"
	"repro/internal/logrec"
	"repro/internal/page"
	"repro/internal/vmem"
)

// Tx is an active transaction. All object access goes through it; at most
// one transaction is active per client.
type Tx struct {
	c     *Client
	tid   logrec.TID
	seq   uint64                // the client's number for it (Client.txSeq)
	dirty map[page.ID]bool      // pages updated and still resident
	fresh map[page.ID]bool      // pages created by this transaction
	locks map[page.ID]lock.Mode // page locks taken this transaction
	done  bool
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

// covers reports whether holding a lock in mode held satisfies a request
// for mode.
func covers(held, mode lock.Mode) bool {
	return held == lock.Exclusive || mode == lock.Shared
}

// holds reports whether the transaction already holds pid's lock in mode or
// a stronger one.
func (tx *Tx) holds(pid page.ID, mode lock.Mode) bool {
	held, ok := tx.locks[pid]
	return ok && covers(held, mode)
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

// lockDesc is lock for a resident page: the lock d caches for this
// transaction answers it when strong enough, and the lock table otherwise,
// after which d caches mode (the table may hold more).
func (tx *Tx) lockDesc(d *vmem.Desc, mode lock.Mode) error {
	if d.LockTx == tx.seq && covers(d.Lock, mode) {
		return nil
	}
	if err := tx.lock(d.Page, mode); err != nil {
		return err
	}
	d.LockTx, d.Lock = tx.seq, mode
	return nil
}

// markDirty records that the page has uncommitted updates.
func (tx *Tx) markDirty(d *vmem.Desc) {
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
			c.m.Add(costmodel.CopyPage, 1)
			c.rb.PutPage(d.Page, d.Frame.Bytes())
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
		c.m.Add(costmodel.CopyBlock, 1)
		c.rb.PutBlock(d.Page, b, d.Frame.Bytes()[b*bs:(b+1)*bs])
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
			c.m.Add(costmodel.CopyPage, 1)
			c.rb.PutPage(d.Page, d.Frame.Bytes())
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
	off, size, err := page.Wrap(d.Frame.Bytes()).ObjectRange(int(oid.Slot))
	if err != nil {
		return nil, 0, 0, fmt.Errorf("client: %v: %w", oid, err)
	}
	return d, off, size, nil
}

// Size returns the object's size in bytes.
func (tx *Tx) Size(oid page.OID) (int, error) {
	_, _, size, err := tx.objectRange(oid, lock.Shared)
	return size, err
}

// Read copies len(dst) bytes from the object starting at off: a copy
// through the page's descriptor.
func (tx *Tx) Read(oid page.OID, off int, dst []byte) error {
	d, objOff, size, err := tx.objectRange(oid, lock.Shared)
	if err != nil {
		return err
	}
	if off < 0 || off+len(dst) > size {
		return fmt.Errorf("client: read [%d,%d) outside %v (size %d)", off, off+len(dst), oid, size)
	}
	tx.c.m.Add(costmodel.Deref, 1)
	return tx.c.space.Read(d, objOff+off, dst)
}

// ReadObject returns a copy of the whole object. Copies are cut from a
// client-owned slab, but each is an independent slice: appending to one, or
// a later write to the object, leaves every other copy as it was.
func (tx *Tx) ReadObject(oid page.OID) ([]byte, error) {
	d, objOff, size, err := tx.objectRange(oid, lock.Shared)
	if err != nil {
		return nil, err
	}
	tx.c.m.Add(costmodel.Deref, 1)
	out := tx.c.objectCopy(size)
	if err := tx.c.space.Read(d, objOff, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Write stores data into the object starting at off. Under PD and WPL the
// write goes through the virtual-memory protection machinery (first write
// per page faults); under SD and SL it goes through the software update
// function. Knowing it will write, it takes the page's exclusive lock up
// front rather than a shared one the write would then upgrade. On a cached
// page the request does not wait: it rides the transaction's next call to
// the server, ahead of the page's log records, and a conflict surfaces there
// (ErrDeadlock at the commit, say), after which the transaction must abort.
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
		c.m.Add(costmodel.UpdateCall, 1)
		if !tx.fresh[oid.Page] {
			if err := tx.touchBlocks(d, start, len(data)); err != nil {
				return err
			}
		}
		copy(d.Frame.Bytes()[start:start+len(data)], data)
		tx.markDirty(d)
		return nil
	default:
		return c.space.Write(d, start, data)
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
	pg := page.Wrap(d.Frame.Bytes())
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
	d := c.space.Map(pid, f)
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
	return page.Wrap(d.Frame.Bytes()).Free(int(oid.Slot))
}

// --- log generation ----------------------------------------------------------

// appendRec queues a record for shipment; a full log page is shipped as soon
// as the next record would not fit (ESM ships log records a page at a time).
// Only fresh pages' whole-page images take this path; updates are encoded
// by appendUpdate.
func (tx *Tx) appendRec(r *logrec.Record) error {
	if err := tx.roomFor(r.EncodedSize()); err != nil {
		return err
	}
	tx.c.logPage = r.Encode(tx.c.logPage)
	return tx.appended()
}

// appendUpdate queues the update record for bytes [off, off+len(before)) of
// pid, encoded straight from the before-image (in the recovery buffer) and
// the after-image (in the pool) into the log page: the images are copied
// once, and no record is built.
func (tx *Tx) appendUpdate(pid page.ID, off int, before, after []byte) error {
	if err := tx.roomFor(logrec.HeaderSize + len(before) + len(after)); err != nil {
		return err
	}
	tx.c.logPage = logrec.AppendUpdate(tx.c.logPage, tx.tid, pid, off, before, after)
	return tx.appended()
}

// roomFor ships the log page if a record of n bytes would not fit it.
func (tx *Tx) roomFor(n int) error {
	if l := len(tx.c.logPage); l > 0 && l+n > page.Size {
		return tx.flushLog()
	}
	return nil
}

// appended charges the record just encoded and ships the log page once full.
func (tx *Tx) appended() error {
	c := tx.c
	c.stats.LogRecords++
	c.m.Add(costmodel.LogRec, 1)
	if len(c.logPage) >= page.Size {
		return tx.flushLog()
	}
	return nil
}

// flushLog ships any buffered log records to the server.
func (tx *Tx) flushLog() error {
	c := tx.c
	if len(c.logPage) == 0 {
		return nil
	}
	if err := c.svc.ShipLog(tx.tid, c.logPage); err != nil {
		return err
	}
	c.stats.LogBytesShipped += int64(len(c.logPage))
	c.stats.LogPagesShipped += int64((len(c.logPage) + page.Size - 1) / page.Size)
	c.logPage = c.logPage[:0]
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
		c.m.Add(costmodel.DiffPage, 1)
		c.stats.PageDiffs++
		return tx.emitPageDiff(pid, e.Image, f.Bytes())
	}
	// Sub-page blocks, in index order for determinism.
	return e.Blocks(func(b int, old []byte) error {
		off := b * len(old)
		cur := f.Bytes()[off : off+len(old)]
		if c.cfg.Scheme == SL {
			// Log the whole block undiffed.
			return tx.appendUpdate(pid, off, old, cur)
		}
		c.m.Add(costmodel.DiffBlock, 1)
		c.stats.BlockDiffs++
		return tx.appendDiff(pid, off, old, cur)
	})
}

// appendDiff logs the combined modified regions between old and cur, the
// images of the bytes at page offset base of pid, one update record each.
// The regions go into the client's scratch slice.
func (tx *Tx) appendDiff(pid page.ID, base int, old, cur []byte) error {
	c := tx.c
	c.regions = diff.AppendRegionsH(c.regions[:0], old, cur, diff.HeaderSize)
	for _, r := range c.regions {
		if err := tx.appendUpdate(pid, base+r.Off, old[r.Off:r.End()], cur[r.Off:r.End()]); err != nil {
			return err
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
		const from = page.HeaderSize / 2
		return tx.appendDiff(pid, from, old[from:], cur[from:])
	}
	var firstErr error
	pn.LiveObjects(func(slot int, data []byte) {
		if firstErr != nil {
			return
		}
		off, _, err := po.ObjectRange(slot)
		if err != nil {
			firstErr = err
			return
		}
		firstErr = tx.appendDiff(pid, off, old[off:off+len(data)], data)
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
