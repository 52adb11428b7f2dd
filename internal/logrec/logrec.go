// Package logrec defines the recovery log record format shared by the
// QuickStore client and the storage server.
//
// Log records carry both redo and undo information (before- and after-images
// of a byte range within a page), following ESM's format. Clients generate
// records without LSNs; the server assigns LSNs and per-transaction PrevLSN
// chains when records arrive, because the stable log lives at the server
// (paper §2, §3.1).
package logrec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"repro/internal/page"
)

// Type enumerates the kinds of log records.
type Type uint8

// Log record types.
const (
	// TypeUpdate is a byte-range update with before- and after-images.
	TypeUpdate Type = iota + 1
	// TypePageImage is a whole-page after-image. ESM uses these for newly
	// created pages; whole-page logging (WPL) uses them for every dirty page.
	TypePageImage
	// TypeCommit marks a transaction as committed once it is on stable storage.
	TypeCommit
	// TypeAbort marks the start of rollback for a transaction.
	TypeAbort
	// TypeEnd marks a transaction as fully finished (committed or rolled back).
	TypeEnd
	// TypeCLR is a compensation log record written during undo; it is
	// redo-only and carries UndoNext, the next record of the transaction to
	// undo.
	TypeCLR
	// TypeCheckpoint carries the server's checkpoint payload (transaction
	// table and dirty page table for ARIES restart; the WPL table for
	// whole-page logging restart).
	TypeCheckpoint
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypeUpdate:
		return "UPDATE"
	case TypePageImage:
		return "PAGEIMG"
	case TypeCommit:
		return "COMMIT"
	case TypeAbort:
		return "ABORT"
	case TypeEnd:
		return "END"
	case TypeCLR:
		return "CLR"
	case TypeCheckpoint:
		return "CKPT"
	case TypePrepare:
		return "PREPARE"
	case TypeDecide:
		return "DECIDE"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// TID identifies a transaction, unique across the life of a server.
type TID uint64

// NoLSN marks the absence of a log sequence number (LSN 0 is a valid first
// record), used to terminate PrevLSN undo chains.
const NoLSN = ^uint64(0)

// String implements fmt.Stringer.
func (t TID) String() string { return fmt.Sprintf("T%d", uint64(t)) }

// Record is a single log record. Before/After are interpreted per Type:
// updates use both; page images and CLRs use only After; commit, abort, end
// use neither; checkpoints put their payload in After.
type Record struct {
	LSN      uint64 // assigned by the server's log manager
	PrevLSN  uint64 // previous record of the same transaction (undo chain)
	TID      TID
	Type     Type
	Page     page.ID
	Off      uint16 // byte offset within the page (updates and CLRs)
	UndoNext uint64 // CLRs only: next LSN of this transaction to undo
	Before   []byte
	After    []byte
}

// HeaderSize is the encoded size of a record header. The paper reports ESM
// headers of approximately 50 bytes; ours is 52 (the 4-byte CRC is the
// surplus). internal/diff keeps the paper's combining constant of 50.
const HeaderSize = 52

// Encoded layout, little-endian:
//
//	[0,4)   total record length, including this field
//	[4,8)   CRC-32 (IEEE) of bytes [8, total)
//	[8,16)  LSN
//	[16,24) PrevLSN
//	[24,32) TID
//	[32,40) UndoNext
//	[40,44) Page
//	[44,45) Type
//	[45,46) reserved
//	[46,48) Off
//	[48,50) len(Before)
//	[50,52) reserved, written as 0
//	[52,..) Before bytes, then After bytes
//
// Only the before-image length is stored, as a u16 (Encode refuses a longer
// before-image). The after-image length is the total less the header and the
// before-image, so an after-image of any size the u32 total allows fits: a
// page image or a checkpoint payload of any length.

// EncodedSize returns the number of bytes Encode will produce for r.
func (r *Record) EncodedSize() int { return HeaderSize + len(r.Before) + len(r.After) }

// Encode appends the binary encoding of r to dst and returns the extended
// slice. It allocates only when dst lacks the capacity.
func (r *Record) Encode(dst []byte) []byte {
	if len(r.Before) > 0xffff {
		panic("logrec: before-image too large")
	}
	total := r.EncodedSize()
	start := len(dst)
	dst = slices.Grow(dst, total)[:start+total]
	b := dst[start:]
	binary.LittleEndian.PutUint32(b[0:], uint32(total))
	binary.LittleEndian.PutUint64(b[8:], r.LSN)
	binary.LittleEndian.PutUint64(b[16:], r.PrevLSN)
	binary.LittleEndian.PutUint64(b[24:], uint64(r.TID))
	binary.LittleEndian.PutUint64(b[32:], r.UndoNext)
	binary.LittleEndian.PutUint32(b[40:], uint32(r.Page))
	b[44] = byte(r.Type)
	b[45] = 0
	binary.LittleEndian.PutUint16(b[46:], r.Off)
	binary.LittleEndian.PutUint16(b[48:], uint16(len(r.Before)))
	binary.LittleEndian.PutUint16(b[50:], 0)
	copy(b[HeaderSize:], r.Before)
	copy(b[HeaderSize+len(r.Before):], r.After)
	binary.LittleEndian.PutUint32(b[4:], crc32.ChecksumIEEE(b[8:total]))
	return dst
}

// AppendUpdate appends the encoding of NewUpdate(tid, pg, off, before,
// after) to dst — the same bytes — straight from the caller's images: no
// record is allocated and the images are copied once, into dst. The client
// encodes every diffed region this way, from its recovery buffer and its
// pool, into the transaction's log page.
func AppendUpdate(dst []byte, tid TID, pg page.ID, off int, before, after []byte) []byte {
	if len(before) != len(after) {
		panic("logrec: image length mismatch")
	}
	r := Record{TID: tid, Type: TypeUpdate, Page: pg, Off: uint16(off), Before: before, After: after}
	return r.Encode(dst)
}

// Errors returned by Decode.
var (
	ErrShort    = errors.New("logrec: buffer too short")
	ErrCorrupt  = errors.New("logrec: CRC mismatch")
	ErrBadSizes = errors.New("logrec: inconsistent lengths")
)

// Decode parses one record from the front of b and returns it along with the
// number of bytes consumed. The returned record's images alias b.
func Decode(b []byte) (*Record, int, error) {
	r := new(Record)
	n, err := DecodeInto(r, b)
	if err != nil {
		return nil, 0, err
	}
	return r, n, nil
}

// DecodeInto is Decode into a record the caller owns: every field of dst is
// overwritten, its images alias b, and nothing is allocated — a log scan
// decodes its whole window into one Record. On error dst is left untouched.
func DecodeInto(dst *Record, b []byte) (int, error) {
	if len(b) < HeaderSize {
		return 0, ErrShort
	}
	total := int(binary.LittleEndian.Uint32(b))
	if total < HeaderSize {
		return 0, ErrBadSizes
	}
	if len(b) < total {
		return 0, ErrShort
	}
	if crc32.ChecksumIEEE(b[8:total]) != binary.LittleEndian.Uint32(b[4:]) {
		return 0, ErrCorrupt
	}
	beforeLen := int(binary.LittleEndian.Uint16(b[48:]))
	afterLen := total - HeaderSize - beforeLen
	if afterLen < 0 {
		return 0, ErrBadSizes
	}
	*dst = Record{
		LSN:      binary.LittleEndian.Uint64(b[8:]),
		PrevLSN:  binary.LittleEndian.Uint64(b[16:]),
		TID:      TID(binary.LittleEndian.Uint64(b[24:])),
		UndoNext: binary.LittleEndian.Uint64(b[32:]),
		Page:     page.ID(binary.LittleEndian.Uint32(b[40:])),
		Type:     Type(b[44]),
		Off:      binary.LittleEndian.Uint16(b[46:]),
	}
	if beforeLen > 0 {
		dst.Before = b[HeaderSize : HeaderSize+beforeLen : HeaderSize+beforeLen]
	}
	if afterLen > 0 {
		dst.After = b[HeaderSize+beforeLen : total : total]
	}
	return total, nil
}

// DecodeAll parses every record in b, which must contain a whole number of
// records.
func DecodeAll(b []byte) ([]*Record, error) {
	var out []*Record
	for len(b) > 0 {
		r, n, err := Decode(b)
		if err != nil {
			return out, err
		}
		out = append(out, r)
		b = b[n:]
	}
	return out, nil
}

// String implements fmt.Stringer for debugging.
func (r *Record) String() string {
	return fmt.Sprintf("%s lsn=%d prev=%d %s %s off=%d b=%d a=%d",
		r.Type, r.LSN, r.PrevLSN, r.TID, r.Page, r.Off, len(r.Before), len(r.After))
}

// Clone returns a deep copy of r; the copy's images do not alias r's.
func (r *Record) Clone() *Record {
	c := *r
	if r.Before != nil {
		c.Before = append([]byte(nil), r.Before...)
	}
	if r.After != nil {
		c.After = append([]byte(nil), r.After...)
	}
	return &c
}

// NewUpdate builds an update record for the byte range [off, off+len(before))
// of pg. The images are copied.
func NewUpdate(tid TID, pg page.ID, off int, before, after []byte) *Record {
	if len(before) != len(after) {
		panic("logrec: image length mismatch")
	}
	return &Record{
		TID:    tid,
		Type:   TypeUpdate,
		Page:   pg,
		Off:    uint16(off),
		Before: append([]byte(nil), before...),
		After:  append([]byte(nil), after...),
	}
}

// NewPageImage builds a whole-page after-image record. The image is copied.
func NewPageImage(tid TID, pg page.ID, image []byte) *Record {
	return &Record{
		TID:   tid,
		Type:  TypePageImage,
		Page:  pg,
		After: append([]byte(nil), image...),
	}
}

// NewCommit builds a commit record.
func NewCommit(tid TID) *Record { return &Record{TID: tid, Type: TypeCommit} }

// NewAbort builds an abort record.
func NewAbort(tid TID) *Record { return &Record{TID: tid, Type: TypeAbort} }

// NewEnd builds an end record.
func NewEnd(tid TID) *Record { return &Record{TID: tid, Type: TypeEnd} }
