// fixture-path: repro/internal/wal

// Package wal seeds the log's device sync back under the log's mutex: a
// scratch copy of the log under the real package's path, so its mu is the
// leaf mutex latch-io knows and its Device is the interface whose Sync is
// I/O. A sync under the mutex makes every append wait on the disk.
package wal

import "sync"

type Device interface {
	Sync(from, to uint64) uint64
}

type Log struct {
	mu      sync.Mutex
	dev     Device
	flushed uint64
	next    uint64
}

// Force syncs with the mutex held.
func (l *Log) Force() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.flushed = l.dev.Sync(l.flushed, l.next) // want "log device sync while holding l.mu"
}

// syncRange hides the sync in a callee.
func (l *Log) syncRange(from, to uint64) uint64 { return l.dev.Sync(from, to) }

// ForceFull reaches the sync through syncRange with the mutex held.
func (l *Log) ForceFull() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.flushed = l.syncRange(l.flushed, l.next) // want "call to syncRange, which may force the wal"
}

// flush is the shape the log keeps: the range is taken under the mutex and
// synced with it released. Nothing to report.
func (l *Log) flush() {
	l.mu.Lock()
	from, to := l.flushed, l.next
	l.mu.Unlock()
	got := l.dev.Sync(from, to)
	l.mu.Lock()
	l.flushed = got
	l.mu.Unlock()
}
