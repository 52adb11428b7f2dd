package faultinject

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/disk"
	"repro/internal/page"
)

// SectorSize is the granularity of torn writes: a crashed write persists a
// whole number of sectors.
const SectorSize = 512

// Store wraps a disk.Store with deterministic fault injection. It is safe
// for concurrent use and transparent while disarmed. An optional Fuse (the
// crash-point sweep's counting injector) sees every write as one
// stable-storage event; swallowed events leave the underlying store
// untouched while reporting success, exactly as writes issued after a crash
// instant would.
type Store struct {
	inner disk.Store

	mu      sync.Mutex
	plan    Plan
	armed   bool
	rng     *RNG
	reads   uint64
	writes  uint64
	faults  int64
	pending []pendingWrite // reorder window
	fuse    *Fuse
}

type pendingWrite struct {
	id   page.ID
	data []byte
}

// NewStore wraps inner; the injector starts disarmed.
func NewStore(inner disk.Store) *Store { return &Store{inner: inner} }

// NewSweepStore wraps inner with only a fuse attached (no fault plan): the
// configuration used by the crash-point sweep.
func NewSweepStore(inner disk.Store, fuse *Fuse) *Store {
	return &Store{inner: inner, fuse: fuse}
}

// Arm activates plan. The fault schedule restarts: op sequence numbers reset
// and the PRNG is reseeded from plan.Seed, so arming the same plan twice
// yields the same schedule.
func (s *Store) Arm(plan Plan) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.plan = plan
	s.armed = true
	s.rng = NewRNG(plan.Seed)
	s.reads, s.writes = 0, 0
	s.pending = nil
}

// Disarm deactivates fault injection, flushing any reordered writes still
// buffered so no updates are silently lost.
func (s *Store) Disarm() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.armed = false
	return s.flushPendingLocked()
}

// Armed reports the active plan name, or "" when disarmed.
func (s *Store) Armed() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.armed {
		return ""
	}
	return s.plan.Name
}

// Faults returns the number of faults injected since the store was created.
func (s *Store) Faults() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.faults
}

// CrashDropPending simulates the crash-time loss of the reorder window:
// buffered (unsynced) writes are discarded rather than applied.
func (s *Store) CrashDropPending() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pending = nil
}

// ReadPage implements disk.Store.
func (s *Store) ReadPage(id page.ID, buf []byte) error {
	s.mu.Lock()
	s.reads++
	seq := s.reads
	// Reads must observe buffered reordered writes (the OS cache would).
	for i := len(s.pending) - 1; i >= 0; i-- {
		if s.pending[i].id == id {
			copy(buf, s.pending[i].data)
			s.mu.Unlock()
			return nil
		}
	}
	if s.armed && s.plan.ReadErrorRate > 0 && s.rng.Float() < s.plan.ReadErrorRate {
		s.faults++
		s.mu.Unlock()
		return injected("transient read error", seq)
	}
	s.mu.Unlock()
	return s.inner.ReadPage(id, buf)
}

// WritePage implements disk.Store.
func (s *Store) WritePage(id page.ID, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writes++
	seq := s.writes
	if s.fuse != nil {
		if _, allowed := s.fuse.Event(); !allowed {
			return nil // beyond the crash point: the write never happens
		}
	}
	if !s.armed {
		return s.inner.WritePage(id, data)
	}
	if s.plan.WriteErrorRate > 0 && s.rng.Float() < s.plan.WriteErrorRate {
		s.faults++
		return injected("transient write error", seq)
	}
	if s.plan.TornWriteRate > 0 && s.rng.Float() < s.plan.TornWriteRate {
		s.faults++
		if err := s.tornWriteLocked(id, data); err != nil {
			return err
		}
		return injected("torn write", seq)
	}
	if s.plan.BitFlipRate > 0 && s.rng.Float() < s.plan.BitFlipRate {
		// Silent rot: one bit of the stored page differs from what was
		// written, and the write still reports success (no injected error —
		// only an integrity envelope on a later read can catch this).
		s.faults++
		rotted := append([]byte(nil), data...)
		bit := s.rng.Intn(len(rotted) * 8)
		rotted[bit/8] ^= 1 << (bit % 8)
		return s.inner.WritePage(id, rotted)
	}
	if s.plan.ReorderWindow > 1 {
		s.pending = append(s.pending, pendingWrite{id: id, data: append([]byte(nil), data...)})
		if len(s.pending) >= s.plan.ReorderWindow {
			return s.flushPendingLocked()
		}
		return nil
	}
	return s.inner.WritePage(id, data)
}

// tornWriteLocked persists a sector-aligned prefix of data over the old
// contents, as a write interrupted by power loss would.
func (s *Store) tornWriteLocked(id page.ID, data []byte) error {
	sectors := len(data) / SectorSize
	keep := s.rng.Intn(sectors) * SectorSize // 0 .. len-SectorSize bytes of new data
	merged := make([]byte, len(data))
	if err := s.inner.ReadPage(id, merged); err != nil {
		// Page never written: the unwritten remainder reads as zeroes.
		for i := range merged {
			merged[i] = 0
		}
	}
	copy(merged[:keep], data[:keep])
	return s.inner.WritePage(id, merged)
}

// flushPendingLocked applies the reorder window in a deterministic shuffled
// order (a disk scheduler reordering unsynced writes).
func (s *Store) flushPendingLocked() error {
	w := s.pending
	s.pending = nil
	for i := len(w) - 1; i > 0; i-- {
		j := s.rngIntn(i + 1)
		w[i], w[j] = w[j], w[i]
	}
	for _, p := range w {
		if err := s.inner.WritePage(p.id, p.data); err != nil {
			return fmt.Errorf("faultinject: flushing reordered write: %w", err)
		}
	}
	return nil
}

// rngIntn tolerates a nil rng (Disarm before any Arm).
func (s *Store) rngIntn(n int) int {
	if s.rng == nil {
		return 0
	}
	return s.rng.Intn(n)
}

// Pages implements disk.Store.
func (s *Store) Pages() int { return s.inner.Pages() }

// ForEachPage implements disk.Store.
func (s *Store) ForEachPage(fn func(id page.ID, data []byte) error) error {
	return s.ForEachPageFrom(0, fn)
}

// ForEachPageFrom implements disk.Store. The scan observes writes buffered
// in the reorder window (as the OS cache would) and is not itself subject to
// injected read faults: it models a bulk volume scan (online backup), whose
// per-page errors the fault plans do not target.
func (s *Store) ForEachPageFrom(from page.ID, fn func(id page.ID, data []byte) error) error {
	s.mu.Lock()
	overlay := make(map[page.ID][]byte, len(s.pending))
	for _, p := range s.pending {
		if p.id >= from {
			overlay[p.id] = append([]byte(nil), p.data...) // newest write wins
		}
	}
	s.mu.Unlock()
	seen := make(map[page.ID]bool, len(overlay))
	if err := s.inner.ForEachPageFrom(from, func(id page.ID, data []byte) error {
		if buf, ok := overlay[id]; ok {
			seen[id] = true
			return fn(id, buf)
		}
		return fn(id, data)
	}); err != nil {
		return err
	}
	// Buffered writes to pages the underlying store has never seen.
	rest := make([]page.ID, 0, len(overlay))
	for id := range overlay {
		if !seen[id] {
			rest = append(rest, id)
		}
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i] < rest[j] })
	for _, id := range rest {
		if err := fn(id, overlay[id]); err != nil {
			return err
		}
	}
	return nil
}

// Close implements disk.Store.
func (s *Store) Close() error { return s.inner.Close() }

var _ disk.Store = (*Store)(nil)
