// Package vmem simulates the virtual-memory machinery QuickStore builds on:
// mmap'd virtual frames, per-frame read/write protection, and SIGSEGV-driven
// fault handling (paper §3.2.1).
//
// Go offers no portable page protection or safe pointer mapping, so this
// package routes every access through Read/Write calls on a descriptor the
// caller holds. An access the frame's protection allows is a bounds check
// and a copy of just the bytes asked for, the memory-speed dereference of a
// resident page. The recovery-relevant behaviour is preserved exactly: the
// first write to a write-protected frame invokes the registered fault
// handler, which performs whatever its recovery scheme requires and upgrades
// the frame's protection so subsequent writes proceed at memory speed.
//
// The paper's SIGSEGV handler is given only a faulting address, so it
// searches a height-balanced tree keyed by virtual address for the page
// descriptor. Here the fault already holds its descriptor, so the table is
// one map from page id to descriptor: a fault checks that the descriptor is
// still its page's mapping, and the caller finds a resident page's
// descriptor by page id (ByPage), which answers a repeat of its last page
// from a one-entry cache. The paper's tree search is charged in every
// simulated figure through costmodel.Fault, not by this table.
package vmem

import (
	"errors"
	"fmt"

	"repro/internal/buffer"
	"repro/internal/lock"
	"repro/internal/page"
)

// Prot is a frame protection level.
type Prot uint8

// Protection levels.
const (
	// None faults on any access (frame mapped but page not resident).
	None Prot = iota
	// ReadOnly faults on writes — the initial state of every mapped page, so
	// the first update triggers recovery enablement.
	ReadOnly
	// ReadWrite allows updates directly in the buffer pool frame.
	ReadWrite
)

// String implements fmt.Stringer.
func (p Prot) String() string {
	switch p {
	case None:
		return "---"
	case ReadOnly:
		return "r--"
	case ReadWrite:
		return "rw-"
	default:
		return "???"
	}
}

// Errors returned by the address space.
var (
	ErrUnmapped   = errors.New("vmem: page not mapped")
	ErrProtection = errors.New("vmem: access violates protection")
	ErrBounds     = errors.New("vmem: access crosses frame boundary")
)

// Desc is a page descriptor: the table entry for one mapped virtual frame
// (paper Figure 1). The recovery-related fields are owned by the client's
// scheme implementation.
type Desc struct {
	Page  page.ID
	Frame *buffer.Frame // the buffer-pool frame backing this virtual frame
	Prot  Prot

	// RecoveryEnabled is set once the scheme has captured whatever it needs
	// (page copy, lock) to allow in-place updates.
	RecoveryEnabled bool
	// LockTx and Lock cache the page lock held by the client's transaction
	// number LockTx: at least Lock. The client's lock table stays the truth;
	// this copy may lag it, never lead it.
	LockTx uint64
	Lock   lock.Mode
}

// FaultHandler is invoked on access violations, in the role of QuickStore's
// SIGSEGV handler. It receives the descriptor of the faulted frame and
// whether the access was a write. If it returns nil the access proceeds;
// protection must have been raised or the access fails.
type FaultHandler func(d *Desc, write bool) error

// Space is a process address space: the page-descriptor table. Not safe for
// concurrent use; each client owns one.
type Space struct {
	byPage  map[page.ID]*Desc // the mapped descriptor of each page
	last    *Desc             // the descriptor ByPage returned last, or nil
	handler FaultHandler
}

// NewSpace creates an empty address space.
func NewSpace() *Space {
	return &Space{byPage: make(map[page.ID]*Desc)}
}

// SetFaultHandler installs the handler invoked on protection violations.
func (s *Space) SetFaultHandler(h FaultHandler) { s.handler = h }

// Map binds a fresh virtual frame to pid, backed by f (the buffer-pool
// slot). The frame starts ReadOnly, so the first update faults. It returns
// the new descriptor; a descriptor is never reused, so one that was
// unmapped cannot come back through ByPage's cache.
func (s *Space) Map(pid page.ID, f *buffer.Frame) *Desc {
	if s.byPage[pid] != nil {
		panic(fmt.Sprintf("vmem: %v already mapped", pid))
	}
	d := &Desc{Page: pid, Frame: f, Prot: ReadOnly}
	s.byPage[pid] = d
	return d
}

// Unmap removes the frame mapping (page evicted from the buffer pool). The
// descriptor's protection drops to None, so an access through a stale
// descriptor faults and finds that it is no longer its page's mapping.
func (s *Space) Unmap(d *Desc) {
	delete(s.byPage, d.Page)
	if s.last == d {
		s.last = nil
	}
	d.Prot = None
}

// ByPage returns the descriptor for pid, or nil. A repeat of the page it
// returned last is a pointer compare; any other page is a map probe.
func (s *Space) ByPage(pid page.ID) *Desc {
	if d := s.last; d != nil && d.Page == pid {
		return d
	}
	d := s.byPage[pid]
	if d != nil {
		s.last = d
	}
	return d
}

// Protect sets the frame's protection (mprotect).
func (s *Space) Protect(d *Desc, p Prot) { d.Prot = p }

// Read copies len(dst) bytes from d's frame at byte offset off. A frame
// whose protection allows reads is a plain copy; one with protection None
// faults first.
func (s *Space) Read(d *Desc, off int, dst []byte) error {
	if off < 0 || off+len(dst) > page.Size {
		return fmt.Errorf("%w: %v+%d len %d", ErrBounds, d.Page, off, len(dst))
	}
	if d.Prot == None {
		if err := s.fault(d, off, false); err != nil {
			return err
		}
	}
	copy(dst, d.Frame.Bytes()[off:])
	return nil
}

// Write copies src into d's frame at byte offset off. Writing a frame that
// is not ReadWrite invokes the fault handler — this is the hardware hook the
// page-differencing and whole-page-logging schemes rely on.
func (s *Space) Write(d *Desc, off int, src []byte) error {
	if off < 0 || off+len(src) > page.Size {
		return fmt.Errorf("%w: %v+%d len %d", ErrBounds, d.Page, off, len(src))
	}
	if d.Prot != ReadWrite {
		if err := s.fault(d, off, true); err != nil {
			return err
		}
	}
	copy(d.Frame.Bytes()[off:], src)
	return nil
}

// fault runs the handler for an access at d's offset off that d's
// protection forbids. A descriptor that is no longer its page's mapping (the
// page was unmapped, and perhaps mapped again under a new descriptor) is
// ErrUnmapped. The access then proceeds only if the handler raised the
// protection far enough.
func (s *Space) fault(d *Desc, off int, write bool) error {
	if s.byPage[d.Page] != d {
		return fmt.Errorf("%w: %v+%d", ErrUnmapped, d.Page, off)
	}
	if s.handler == nil {
		return fmt.Errorf("%w: %v+%d (no fault handler)", ErrProtection, d.Page, off)
	}
	if err := s.handler(d, write); err != nil {
		return err
	}
	if d.Prot == None || write && d.Prot != ReadWrite {
		return fmt.Errorf("%w: %v+%d still %v after fault", ErrProtection, d.Page, off, d.Prot)
	}
	return nil
}
