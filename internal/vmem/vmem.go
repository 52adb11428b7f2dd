// Package vmem simulates the virtual-memory machinery QuickStore builds on:
// mmap'd virtual frames, per-frame read/write protection, and SIGSEGV-driven
// fault handling (paper §3.2.1).
//
// Go offers no portable page protection or safe pointer mapping, so this
// package substitutes synthetic 8 KB-aligned virtual addresses and routes
// every access through Read/Write calls on a descriptor the caller holds. An
// access the frame's protection allows is a bounds check and a copy of just
// the bytes asked for, the memory-speed dereference of a resident page. The
// recovery-relevant behaviour is preserved exactly: the first write to a
// write-protected frame invokes the registered fault handler, which — like
// the paper's SIGSEGV handler, given only the faulting address — finds the
// page descriptor in a height-balanced (AVL) table keyed by virtual address,
// performs whatever its recovery scheme requires, and upgrades the frame's
// protection so subsequent writes proceed at memory speed. The AVL table
// serves faults only; the caller finds a resident page's descriptor by page
// id (ByPage), which answers a repeat of its last page from a one-entry
// cache: a depth-first walk dereferences the same page many times running.
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

// Addr is a synthetic virtual address.
type Addr = uint64

// Base is the first virtual-frame address handed out.
const Base Addr = 0x1000_0000

// Errors returned by the address space.
var (
	ErrUnmapped   = errors.New("vmem: address not mapped")
	ErrProtection = errors.New("vmem: access violates protection")
	ErrBounds     = errors.New("vmem: access crosses frame boundary")
)

// Desc is a page descriptor: the table entry for one mapped virtual frame
// (paper Figure 1). The recovery-related fields are owned by the client's
// scheme implementation.
type Desc struct {
	VAddr Addr
	Page  page.ID
	Frame *buffer.Frame // the buffer-pool frame backing this virtual frame
	Prot  Prot

	// RecoveryEnabled is set once the scheme has captured whatever it needs
	// (page copy, lock) to allow in-place updates.
	RecoveryEnabled bool
	// Dirty is set on the first write fault (whole-page logging state).
	Dirty bool
	// LockTx and Lock cache the page lock held by the client's transaction
	// number LockTx: at least Lock. The client's lock table stays the truth;
	// this copy may lag it, never lead it.
	LockTx uint64
	Lock   lock.Mode
}

// FaultHandler is invoked on access violations, in the role of QuickStore's
// SIGSEGV handler. It receives the descriptor of the faulted frame, the
// faulting address and whether the access was a write. If it returns nil the
// access is retried; protection must have been raised or the retry fails.
type FaultHandler func(d *Desc, addr Addr, write bool) error

// Space is a process address space: the descriptor table plus the mapping
// allocator. Not safe for concurrent use; each client owns one.
type Space struct {
	root    *avlNode          // descriptors by virtual address, for faults
	byPage  map[page.ID]*Desc // descriptors by page id, for the client's hits
	last    *Desc             // the descriptor ByPage returned last, or nil
	nextVA  Addr
	handler FaultHandler
	faults  int64
}

// NewSpace creates an empty address space.
func NewSpace() *Space {
	return &Space{byPage: make(map[page.ID]*Desc), nextVA: Base}
}

// SetFaultHandler installs the handler invoked on protection violations.
func (s *Space) SetFaultHandler(h FaultHandler) { s.handler = h }

// Faults returns the number of handled protection faults.
func (s *Space) Faults() int64 { return s.faults }

// Mapped returns the number of mapped frames.
func (s *Space) Mapped() int { return countNodes(s.root) }

// Map binds a fresh virtual frame to pid, backed by f (the buffer-pool
// slot). The frame starts ReadOnly, so the first update faults. It returns
// the new descriptor; a descriptor is never reused, so one that was
// unmapped cannot come back through ByPage's cache.
func (s *Space) Map(pid page.ID, f *buffer.Frame) *Desc {
	if s.byPage[pid] != nil {
		panic(fmt.Sprintf("vmem: %v already mapped", pid))
	}
	d := &Desc{VAddr: s.nextVA, Page: pid, Frame: f, Prot: ReadOnly}
	s.nextVA += page.Size
	s.root = insert(s.root, d.VAddr, d)
	s.byPage[pid] = d
	return d
}

// Unmap removes the frame mapping (page evicted from the buffer pool). The
// descriptor's protection drops to None, so an access through a stale
// descriptor faults and finds no mapping.
func (s *Space) Unmap(d *Desc) {
	s.root = remove(s.root, d.VAddr)
	delete(s.byPage, d.Page)
	if s.last == d {
		s.last = nil
	}
	d.Prot = None
}

// Lookup finds the descriptor whose frame contains addr, as the fault
// handler does, or nil.
func (s *Space) Lookup(addr Addr) *Desc {
	n := floor(s.root, addr)
	if n == nil || addr >= n.desc.VAddr+page.Size {
		return nil
	}
	return n.desc
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
		return fmt.Errorf("%w: %#x+%d", ErrBounds, d.VAddr+uint64(off), len(dst))
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
		return fmt.Errorf("%w: %#x+%d", ErrBounds, d.VAddr+uint64(off), len(src))
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
// protection forbids. Like a SIGSEGV handler it starts from the faulting
// address alone: the descriptor it passes on is the AVL table's, and an
// address no longer mapped is ErrUnmapped. The access then proceeds only if
// the handler raised the protection far enough.
func (s *Space) fault(d *Desc, off int, write bool) error {
	addr := d.VAddr + uint64(off)
	fd := s.Lookup(addr)
	if fd == nil {
		return fmt.Errorf("%w: %#x", ErrUnmapped, addr)
	}
	if s.handler == nil {
		return fmt.Errorf("%w: %#x (no fault handler)", ErrProtection, addr)
	}
	s.faults++
	if err := s.handler(fd, addr, write); err != nil {
		return err
	}
	if fd.Prot == None || write && fd.Prot != ReadWrite {
		return fmt.Errorf("%w: %#x still %v after fault", ErrProtection, addr, fd.Prot)
	}
	return nil
}
