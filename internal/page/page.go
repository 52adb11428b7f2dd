// Package page implements the fixed-size slotted page format shared by the
// QuickStore client and the storage server.
//
// A page is an 8 KB byte array (the paper's virtual-memory frame size)
// divided into a header, an object area that grows upward, and a slot
// directory that grows downward from the end of the page. Objects are
// addressed by an OID that names the page and the slot within it; the slot
// indirection lets objects move within a page without invalidating OIDs.
//
// Layout:
//
//	[0,8)    page LSN (uint64) — LSN of the last log record applied
//	[8,12)   page id (uint32)
//	[12,14)  slot count (uint16)
//	[14,16)  free-space offset (uint16), start of unused object area
//	[16,...) object area
//	[...,8K-16) slot directory: 4 bytes per slot (offset uint16, length uint16),
//	         slot i at bytes [Size-TrailerSize-4*(i+1), Size-TrailerSize-4*i)
//	[8K-16,8K) integrity trailer, reserved for the storage layer
//	         (disk.Checksummed stamps a CRC envelope here; the page code
//	         never touches these bytes, so the envelope survives every
//	         in-memory copy, backup and whole-page log image)
package page

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Size is the size of every database page and virtual-memory frame in bytes.
const Size = 8192

// HeaderSize is the number of bytes reserved at the start of each page.
const HeaderSize = 16

// TrailerSize is the number of bytes reserved at the end of each page for
// the storage layer's integrity envelope (disk.StampTrailer). The slot
// directory grows down from Size-TrailerSize, so these bytes are never used
// for objects or slots.
const TrailerSize = 16

const slotSize = 4

// ID identifies a page within the database.
type ID uint32

// InvalidID is never assigned to a real page.
const InvalidID ID = 0

// String implements fmt.Stringer.
func (id ID) String() string { return fmt.Sprintf("P%d", uint32(id)) }

// OID identifies a persistent object: a page and a slot within it.
type OID struct {
	Page ID
	Slot uint16
}

// NilOID is the zero OID, used as a null object reference.
var NilOID = OID{}

// IsNil reports whether the OID is the null reference.
func (o OID) IsNil() bool { return o == NilOID }

// String implements fmt.Stringer.
func (o OID) String() string { return fmt.Sprintf("P%d.%d", uint32(o.Page), o.Slot) }

// OIDSize is the encoded size of an OID in object data.
const OIDSize = 8

// EncodeOID writes o into b, which must be at least OIDSize bytes.
func EncodeOID(b []byte, o OID) {
	binary.LittleEndian.PutUint32(b, uint32(o.Page))
	binary.LittleEndian.PutUint16(b[4:], o.Slot)
	binary.LittleEndian.PutUint16(b[6:], 0)
}

// DecodeOID reads an OID previously written by EncodeOID.
func DecodeOID(b []byte) OID {
	return OID{
		Page: ID(binary.LittleEndian.Uint32(b)),
		Slot: binary.LittleEndian.Uint16(b[4:]),
	}
}

// Errors returned by page operations.
var (
	ErrPageFull    = errors.New("page: not enough free space")
	ErrBadSlot     = errors.New("page: no such slot")
	ErrBadBounds   = errors.New("page: access out of object bounds")
	ErrObjectLarge = errors.New("page: object larger than a page can hold")
)

// MaxObjectSize is the largest object a single page can hold.
const MaxObjectSize = Size - HeaderSize - TrailerSize - slotSize

// Page is an 8 KB database page. The zero value is not valid; use Init or
// interpret bytes received from disk or the network in place.
type Page struct {
	buf []byte
}

// New allocates a fresh, formatted page with the given id.
func New(id ID) *Page {
	p := &Page{buf: make([]byte, Size)}
	p.Init(id)
	return p
}

// Wrap interprets buf, which must be exactly Size bytes, as a page. The page
// shares storage with buf.
func Wrap(buf []byte) *Page {
	if len(buf) != Size {
		panic(fmt.Sprintf("page: Wrap with %d bytes, want %d", len(buf), Size))
	}
	return &Page{buf: buf}
}

// Init formats the page as empty with the given id.
func (p *Page) Init(id ID) {
	for i := range p.buf {
		p.buf[i] = 0
	}
	binary.LittleEndian.PutUint32(p.buf[8:], uint32(id))
	p.setSlotCount(0)
	p.setFreeOff(HeaderSize)
}

// Bytes returns the page's backing storage. Mutating the returned slice
// mutates the page.
func (p *Page) Bytes() []byte { return p.buf }

// ID returns the page id stored in the header.
func (p *Page) ID() ID { return ID(binary.LittleEndian.Uint32(p.buf[8:])) }

// LSN returns the page LSN from the header.
func (p *Page) LSN() uint64 { return binary.LittleEndian.Uint64(p.buf) }

// SetLSN stores lsn in the page header.
func (p *Page) SetLSN(lsn uint64) { binary.LittleEndian.PutUint64(p.buf, lsn) }

// SlotCount returns the number of slots in the directory, including freed ones.
func (p *Page) SlotCount() int { return int(binary.LittleEndian.Uint16(p.buf[12:])) }

func (p *Page) setSlotCount(n int) { binary.LittleEndian.PutUint16(p.buf[12:], uint16(n)) }

func (p *Page) freeOff() int { return int(binary.LittleEndian.Uint16(p.buf[14:])) }

func (p *Page) setFreeOff(off int) { binary.LittleEndian.PutUint16(p.buf[14:], uint16(off)) }

func (p *Page) slotPos(slot int) int { return Size - TrailerSize - slotSize*(slot+1) }

func (p *Page) slot(slot int) (off, length int) {
	pos := p.slotPos(slot)
	return int(binary.LittleEndian.Uint16(p.buf[pos:])), int(binary.LittleEndian.Uint16(p.buf[pos+2:]))
}

func (p *Page) setSlot(slot, off, length int) {
	pos := p.slotPos(slot)
	binary.LittleEndian.PutUint16(p.buf[pos:], uint16(off))
	binary.LittleEndian.PutUint16(p.buf[pos+2:], uint16(length))
}

// FreeSpace returns the number of bytes available for a new object,
// accounting for the slot directory entry it would need.
func (p *Page) FreeSpace() int {
	// slotPos(SlotCount) is the position the next directory entry would
	// occupy, so the object area may grow up to it.
	n := p.slotPos(p.SlotCount()) - p.freeOff()
	if n < 0 {
		return 0
	}
	return n
}

// Allocate creates a new object of the given size, zero-filled, and returns
// its slot number. It fails with ErrPageFull if the page cannot hold it.
func (p *Page) Allocate(size int) (slot int, err error) {
	if size < 0 || size > MaxObjectSize {
		return 0, ErrObjectLarge
	}
	n, reuse, need := p.allocPlan(size)
	if p.slotPos(n)-p.freeOff() < need {
		// Out of contiguous space; compact and re-plan, since compaction can
		// trim trailing free slots and change both the directory size and
		// which slot is reusable.
		p.compact()
		n, reuse, need = p.allocPlan(size)
		if p.slotPos(n)-p.freeOff() < need {
			return 0, ErrPageFull
		}
	}
	off := p.freeOff()
	p.setFreeOff(off + size)
	if reuse >= 0 {
		slot = reuse
	} else {
		slot = n
		p.setSlotCount(n + 1)
	}
	p.setSlot(slot, off, size)
	for i := off; i < off+size; i++ {
		p.buf[i] = 0
	}
	return slot, nil
}

// allocPlan computes the slot-directory size, the reusable free slot (-1 if
// none — length 0, offset 0 marks free), and the space needed for an
// allocation of the given size.
func (p *Page) allocPlan(size int) (n, reuse, need int) {
	n = p.SlotCount()
	reuse = -1
	for i := 0; i < n; i++ {
		if off, l := p.slot(i); off == 0 && l == 0 {
			reuse = i
			break
		}
	}
	// The object area may grow up to slotPos(n), which already leaves room
	// for one more directory entry; reusing a slot frees that reserve.
	need = size
	if reuse >= 0 {
		need -= slotSize
	}
	return n, reuse, need
}

// compact slides live objects to the front of the object area, reclaiming
// the space of freed objects. Slot numbers are stable; only offsets change.
func (p *Page) compact() {
	type ent struct{ slot, off, len int }
	n := p.SlotCount()
	live := make([]ent, 0, n)
	for i := 0; i < n; i++ {
		off, l := p.slot(i)
		if off == 0 && l == 0 {
			continue
		}
		live = append(live, ent{i, off, l})
	}
	// Objects were allocated in increasing offset order and never move, so
	// sorting by offset lets us slide each one left in place.
	for i := 1; i < len(live); i++ {
		for j := i; j > 0 && live[j].off < live[j-1].off; j-- {
			live[j], live[j-1] = live[j-1], live[j]
		}
	}
	dst := HeaderSize
	for _, e := range live {
		if e.off != dst {
			copy(p.buf[dst:dst+e.len], p.buf[e.off:e.off+e.len])
			p.setSlot(e.slot, dst, e.len)
		}
		dst += e.len
	}
	p.setFreeOff(dst)
	// Trim trailing free slots from the directory so their space returns to
	// the object area.
	for n > 0 {
		if off, l := p.slot(n - 1); off == 0 && l == 0 {
			n--
		} else {
			break
		}
	}
	p.setSlotCount(n)
}

// Free releases the object in slot. The space is not compacted; the slot can
// be reused by a later Allocate of any size that still fits.
func (p *Page) Free(slot int) error {
	if slot < 0 || slot >= p.SlotCount() {
		return ErrBadSlot
	}
	if off, l := p.slot(slot); off == 0 && l == 0 {
		return ErrBadSlot
	}
	p.setSlot(slot, 0, 0)
	return nil
}

// ObjectRange returns the byte offset within the page and the size of the
// object in slot, decoding its directory entry once. The object occupies
// [off, off+size).
func (p *Page) ObjectRange(slot int) (off, size int, err error) {
	if slot < 0 || slot >= p.SlotCount() {
		return 0, 0, ErrBadSlot
	}
	off, size = p.slot(slot)
	if off == 0 && size == 0 {
		return 0, 0, ErrBadSlot
	}
	return off, size, nil
}

// Object returns the object's bytes in place. Mutations write through to the
// page.
func (p *Page) Object(slot int) ([]byte, error) {
	off, l, err := p.ObjectRange(slot)
	if err != nil {
		return nil, err
	}
	return p.buf[off : off+l : off+l], nil
}

// ReadAt copies len(dst) bytes from the object at the given offset.
func (p *Page) ReadAt(slot, off int, dst []byte) error {
	obj, err := p.Object(slot)
	if err != nil {
		return err
	}
	if off < 0 || off+len(dst) > len(obj) {
		return ErrBadBounds
	}
	copy(dst, obj[off:])
	return nil
}

// WriteAt copies src into the object at the given offset.
func (p *Page) WriteAt(slot, off int, src []byte) error {
	obj, err := p.Object(slot)
	if err != nil {
		return err
	}
	if off < 0 || off+len(src) > len(obj) {
		return ErrBadBounds
	}
	copy(obj[off:], src)
	return nil
}

// LiveObjects calls fn for every allocated slot with its in-place bytes.
// Iteration is in slot order.
func (p *Page) LiveObjects(fn func(slot int, data []byte)) {
	n := p.SlotCount()
	for i := 0; i < n; i++ {
		off, l := p.slot(i)
		if off == 0 && l == 0 {
			continue
		}
		fn(i, p.buf[off:off+l])
	}
}

// Clone returns a deep copy of the page.
func (p *Page) Clone() *Page {
	b := make([]byte, Size)
	copy(b, p.buf)
	return &Page{buf: b}
}

// CopyFrom overwrites the page's contents with those of src.
func (p *Page) CopyFrom(src *Page) { copy(p.buf, src.buf) }
