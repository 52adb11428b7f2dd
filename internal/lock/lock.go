// Package lock implements the server's page-level lock manager. ESM uses
// page-granularity two-phase locking; clients request locks as they read and
// update pages and release everything at transaction end (no
// inter-transaction lock caching, paper §3.1).
//
// There is no queue: a request is granted once it fits the page's current
// grants, so a later Shared request overtakes a waiting Exclusive one.
// Deadlocks are broken by a wait timeout:
// waiting longer than the configured bound fails the request with
// ErrDeadlock and the caller is expected to abort. The paper's experiments
// give each client a private module precisely to keep conflicts out of the
// measurements, so the timeout path is exercised only by tests.
package lock

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/logrec"
	"repro/internal/page"
)

// Mode is a lock mode.
type Mode int

// Lock modes.
const (
	// Shared allows concurrent readers.
	Shared Mode = iota
	// Exclusive allows a single updater.
	Exclusive
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Shared {
		return "S"
	}
	return "X"
}

// ErrDeadlock is returned when a lock wait exceeds the timeout.
var ErrDeadlock = errors.New("lock: wait timeout (presumed deadlock)")

// DefaultTimeout bounds lock waits when Config.Timeout is zero.
const DefaultTimeout = 2 * time.Second

// Manager is a page lock manager, safe for concurrent use.
type Manager struct {
	timeout time.Duration

	mu    sync.Mutex
	cond  *sync.Cond
	locks map[page.ID]*entry
	held  map[logrec.TID]map[page.ID]Mode
	waits atomic.Int64 // Lock calls that had to block on a conflict
}

type entry struct {
	granted map[logrec.TID]Mode
	waiters int
}

// NewManager creates a lock manager with the given wait timeout
// (DefaultTimeout if zero).
func NewManager(timeout time.Duration) *Manager {
	if timeout == 0 {
		timeout = DefaultTimeout
	}
	m := &Manager{
		timeout: timeout,
		locks:   make(map[page.ID]*entry),
		held:    make(map[logrec.TID]map[page.ID]Mode),
	}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// compatible reports whether tid may acquire mode on e given current grants.
func compatible(e *entry, tid logrec.TID, mode Mode) bool {
	for holder, held := range e.granted {
		if holder == tid {
			continue
		}
		if mode == Exclusive || held == Exclusive {
			return false
		}
	}
	return true
}

// Lock acquires mode on pid for tid, blocking until granted. A transaction
// already holding the page in the same or a stronger mode returns
// immediately; holding Shared and requesting Exclusive upgrades.
//
//qslint:allow determinism: the deadlock-timeout deadline is a real wall-clock bound; it only decides when to give up and never reaches a log record or a sweep diff
func (m *Manager) Lock(tid logrec.TID, pid page.ID, mode Mode) error {
	deadline := time.Now().Add(m.timeout)
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.locks[pid]
	if e == nil {
		e = &entry{granted: make(map[logrec.TID]Mode)}
		m.locks[pid] = e
	}
	if held, ok := e.granted[tid]; ok && (held == Exclusive || mode == Shared) {
		return nil // already strong enough
	}
	for !compatible(e, tid, mode) {
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: %v %v on %v", ErrDeadlock, tid, mode, pid)
		}
		m.waits.Add(1)
		e.waiters++
		m.waitWithDeadline(deadline)
		e.waiters--
	}
	e.granted[tid] = mode
	h := m.held[tid]
	if h == nil {
		h = make(map[page.ID]Mode)
		m.held[tid] = h
	}
	h[pid] = mode
	return nil
}

// waitWithDeadline waits on the manager's condition variable but wakes up by
// the deadline even if nothing broadcast.
//
//qslint:allow determinism: wakes a blocked waiter at its deadlock deadline; pure scheduling, no logged or diffed state
func (m *Manager) waitWithDeadline(deadline time.Time) {
	timer := time.AfterFunc(time.Until(deadline), func() {
		m.mu.Lock()
		m.cond.Broadcast()
		m.mu.Unlock()
	})
	m.cond.Wait()
	timer.Stop()
}

// Reset drops the whole lock table (a server crash: the table is volatile).
// Waiters parked on old entries keep seeing their stale grants and fail by
// timeout, which is the correct client-visible outcome for a request that
// was in flight when the server died.
func (m *Manager) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.locks = make(map[page.ID]*entry)
	m.held = make(map[logrec.TID]map[page.ID]Mode)
	m.cond.Broadcast()
}

// ReleaseAll drops every lock held by tid (transaction end).
func (m *Manager) ReleaseAll(tid logrec.TID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for pid := range m.held[tid] {
		e := m.locks[pid]
		delete(e.granted, tid)
		if len(e.granted) == 0 && e.waiters == 0 {
			delete(m.locks, pid)
		}
	}
	delete(m.held, tid)
	m.cond.Broadcast()
}

// Holds returns the mode tid holds on pid, if any.
func (m *Manager) Holds(tid logrec.TID, pid page.ID) (Mode, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mode, ok := m.held[tid][pid]
	return mode, ok
}

// Waits returns how many Lock calls have blocked on a conflicting holder.
func (m *Manager) Waits() int64 { return m.waits.Load() }
