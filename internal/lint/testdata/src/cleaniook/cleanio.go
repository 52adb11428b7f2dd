// fixture-path: repro/internal/recbuf/qslintcleaniook

// Package qslintcleaniook is the clean twin of the seeded latch-io
// fixture: it exercises every documented exception — shard-latched page
// writes (the eviction/cleaner protocol), wal appends under attMu (the
// §13 commit order), a force taken latch-free before re-latching,
// default-guarded selects, and sync.Cond.Wait holding exactly its own
// leaf mutex. latch-io must stay silent here.
package qslintcleaniook

import (
	"sync"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/logrec"
	"repro/internal/page"
	"repro/internal/wal"
)

type flusher struct {
	gate  sync.RWMutex
	pool  *buffer.Sharded
	log   *wal.Log
	store disk.Store
	attMu sync.Mutex
	cond  *sync.Cond
	ready bool
	work  chan page.ID
}

// cleanOne is the cleaner order: force the covering records latch-free,
// then re-latch and write the page home. The shard latch is exactly what
// keeps the frame image stable during the store write.
func (f *flusher) cleanOne(pid page.ID, buf []byte) error {
	f.log.Force()
	sh := f.pool.Lock(pid)
	defer sh.Unlock()
	return f.store.WritePage(pid, buf)
}

// logCommit appends under attMu: the §13 commit protocol orders the
// append with the table mutations, and only shard latches ban appends.
func (f *flusher) logCommit(r *logrec.Record) error {
	f.attMu.Lock()
	defer f.attMu.Unlock()
	_, err := f.log.Append(r)
	return err
}

// waitRoom parks on the pool condition holding exactly the cond's own
// leaf mutex; Wait releases it atomically while parked.
func (f *flusher) waitRoom() {
	f.attMu.Lock()
	for !f.ready {
		f.cond.Wait()
	}
	f.attMu.Unlock()
}

func (f *flusher) enter() func() {
	f.gate.RLock()
	return f.gate.RUnlock
}

// waitRoomGated is waitRoom inside the session gate: the gate sits above
// every tracked latch, so Wait still holds nothing but its own leaf.
func (f *flusher) waitRoomGated() {
	defer f.enter()()
	f.attMu.Lock()
	for !f.ready {
		f.cond.Wait()
	}
	f.attMu.Unlock()
}

// poll drains ready work without blocking: the default clause makes the
// latched select non-blocking, whatever its cases name.
func (f *flusher) poll(pid page.ID) {
	sh := f.pool.Lock(pid)
	select {
	case p := <-f.work:
		_ = p
	default:
	}
	sh.Unlock()
}
