// fixture-path: repro/internal/recbuf/qslintcleanio

// Package qslintcleanio seeds latch-io violations: slow and blocking
// operations performed while holding a buffer shard latch or a leaf
// mutex (the paper's §6 latch-convoy pathology, planted on purpose).
// The fixture path sits under internal/recbuf so the wal-discipline
// layering rule permits the store writes — every finding here must come
// from latch-io alone.
package qslintcleanio

import (
	"sync"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/logrec"
	"repro/internal/page"
	"repro/internal/wal"
)

type cleaner struct {
	pool  *buffer.Sharded
	log   *wal.Log
	store disk.Store
	dptMu sync.Mutex
	work  chan page.ID
}

// forceLatched forces the wal with the shard latch still held: every
// contending session's cache hit now waits on the log device.
func (c *cleaner) forceLatched(pid page.ID) {
	sh := c.pool.Lock(pid)
	c.log.Force() // want "wal force while holding"
	sh.Unlock()
}

// appendLatched appends under a page latch; appends belong to the attMu
// commit section.
func (c *cleaner) appendLatched(pid page.ID, r *logrec.Record) error {
	sh := c.pool.Lock(pid)
	defer sh.Unlock()
	_, err := c.log.Append(r) // want "wal append while holding shard latch"
	return err
}

// writeUnderLeaf does store I/O under a leaf mutex — only shard-latched
// page writes are part of the eviction/cleaning protocol.
func (c *cleaner) writeUnderLeaf(pid page.ID, buf []byte) error {
	c.dptMu.Lock()
	defer c.dptMu.Unlock()
	return c.store.WritePage(pid, buf) // want "disk store I/O while holding"
}

// volume is a disk.Store implementor declared outside internal/disk: the
// store rule follows the interface, not the package that declares it.
type volume struct{ pages map[page.ID][]byte }

var _ disk.Store = (*volume)(nil)

func (v *volume) ReadPage(id page.ID, buf []byte) error {
	copy(buf, v.pages[id])
	return nil
}

func (v *volume) WritePage(id page.ID, data []byte) error {
	v.pages[id] = data
	return nil
}

func (v *volume) Pages() int { return len(v.pages) }

func (v *volume) ForEachPage(fn func(id page.ID, data []byte) error) error { return nil }

func (v *volume) Close() error { return nil }

// writeVolumeUnderLeaf writes through the concrete implementor under a leaf
// mutex.
func (c *cleaner) writeVolumeUnderLeaf(v *volume, pid page.ID, buf []byte) error {
	c.dptMu.Lock()
	defer c.dptMu.Unlock()
	return v.WritePage(pid, buf) // want "disk store I/O while holding"
}

// recvLatched parks on channel traffic while latched.
func (c *cleaner) recvLatched(pid page.ID) page.ID {
	sh := c.pool.Lock(pid)
	v := <-c.work // want "channel receive while holding"
	sh.Unlock()
	return v
}

// forcer is the indirect force; a latched call site inherits its
// may-force bit through the interprocedural summary.
func (c *cleaner) forcer() {
	c.log.Force()
}

// indirect calls the forcing helper under the shard latch.
func (c *cleaner) indirect(pid page.ID) {
	sh := c.pool.Lock(pid)
	c.forcer() // want "may force the wal"
	sh.Unlock()
}
