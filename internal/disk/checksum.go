package disk

// Checksum envelope for data pages: a 16-byte trailer carved out of every
// page (page.TrailerSize) carrying a magic, a format epoch, the page id, and
// a CRC-32C of everything before the checksum itself. The Checksummed Store
// wrapper stamps the trailer on every WritePage and verifies it on every
// ReadPage, turning silent media corruption — bit rot, torn page writes,
// misdirected writes landing on the wrong page — into the typed
// ErrCorruptPage before a damaged byte reaches the buffer pool or redo.
//
// Trailer layout, at buf[page.Size-page.TrailerSize:]:
//
//	[0,2)   magic  (uint16, "QC")
//	[2,4)   epoch  (uint16, envelope format version)
//	[4,8)   page id (uint32) — catches misdirected writes
//	[8,12)  reserved (zero)
//	[12,16) CRC-32C (Castagnoli) over buf[0 : Size-4)
//
// A page of all zero bytes is valid by definition: it is the never-written
// state a fresh volume reads back, and stores below the wrapper may
// materialize it (a file store's hole, a torn tail). Every written page gets
// a non-zero trailer, so the all-zeros exemption never masks real damage to
// a stamped page.

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"repro/internal/page"
)

// ErrCorruptPage means a data page failed its checksum envelope: the store
// returned bytes that are provably not what was written (bit rot, torn
// write, misdirected write). It is the data-volume sibling of
// logrec.ErrCorrupt and archive.ErrCorruptSegment; match with errors.Is.
var ErrCorruptPage = errors.New("disk: corrupt page")

// EnvelopeEpoch is the current checksum envelope format version.
const EnvelopeEpoch = 1

const (
	envMagic   = 0x5143 // "QC"
	trailerOff = page.Size - page.TrailerSize
	crcOff     = page.Size - 4
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// StampTrailer writes the checksum envelope for page id into buf, which must
// be page.Size long. The CRC covers everything before the checksum field,
// including the rest of the trailer.
func StampTrailer(id page.ID, buf []byte) {
	tr := buf[trailerOff:]
	putU16(tr[0:], envMagic)
	putU16(tr[2:], EnvelopeEpoch)
	putU32(tr[4:], uint32(id))
	putU32(tr[8:], 0)
	putU32(buf[crcOff:], crc32.Checksum(buf[:crcOff], crcTable))
}

// VerifyPage checks buf's checksum envelope against page id. A page of all
// zero bytes verifies (the never-written state). Failures wrap
// ErrCorruptPage with the reason.
func VerifyPage(id page.ID, buf []byte) error {
	if len(buf) != page.Size {
		return fmt.Errorf("disk: verify buffer is %d bytes, want %d", len(buf), page.Size)
	}
	tr := buf[trailerOff:]
	if getU16(tr[0:]) != envMagic {
		if allZero(buf) {
			return nil // never-written page
		}
		return fmt.Errorf("%w: %v: missing checksum envelope", ErrCorruptPage, id)
	}
	if e := getU16(tr[2:]); e != EnvelopeEpoch {
		return fmt.Errorf("%w: %v: envelope epoch %d, want %d", ErrCorruptPage, id, e, EnvelopeEpoch)
	}
	if got := page.ID(getU32(tr[4:])); got != id {
		return fmt.Errorf("%w: %v: envelope names page %v (misdirected write)", ErrCorruptPage, id, got)
	}
	if got, want := crc32.Checksum(buf[:crcOff], crcTable), getU32(buf[crcOff:]); got != want {
		return fmt.Errorf("%w: %v: checksum %08x, stored %08x", ErrCorruptPage, id, got, want)
	}
	return nil
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

func putU16(b []byte, v uint16) { b[0] = byte(v); b[1] = byte(v >> 8) }
func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}
func getU16(b []byte) uint16 { return uint16(b[0]) | uint16(b[1])<<8 }
func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// Checksummed wraps a Store with the checksum envelope: WritePage stamps the
// trailer, ReadPage and ForEachPage verify it. It sits between the server
// and any fault-injecting or physical store, so corruption introduced below
// it — injected rot, torn file tails, real media errors — surfaces as
// ErrCorruptPage instead of silently entering recovery.
type Checksummed struct {
	inner Store
}

// NewChecksummed wraps inner.
func NewChecksummed(inner Store) *Checksummed { return &Checksummed{inner: inner} }

// ReadPage implements Store, verifying the envelope after the inner read.
func (c *Checksummed) ReadPage(id page.ID, buf []byte) error {
	if err := c.inner.ReadPage(id, buf); err != nil {
		return err
	}
	return VerifyPage(id, buf)
}

// stampBufs recycles WritePage's scratch pages. A pool, not one buffer per
// store: writers from different buffer-pool shards write concurrently.
var stampBufs = sync.Pool{New: func() any { return new([page.Size]byte) }}

// WritePage implements Store, stamping the envelope into a scratch copy so
// the caller's buffer is never mutated. The copy is recycled once the inner
// store returns, which keeps none of it (the Store contract).
func (c *Checksummed) WritePage(id page.ID, data []byte) error {
	if len(data) != page.Size {
		return fmt.Errorf("disk: write buffer is %d bytes, want %d", len(data), page.Size)
	}
	stamped := stampBufs.Get().(*[page.Size]byte)
	defer stampBufs.Put(stamped)
	copy(stamped[:], data)
	StampTrailer(id, stamped[:])
	return c.inner.WritePage(id, stamped[:])
}

// Pages implements Store.
func (c *Checksummed) Pages() int { return c.inner.Pages() }

// ForEachPage implements Store, verifying every page handed to fn. A corrupt
// page stops the scan with ErrCorruptPage — a bulk consumer (online backup)
// must never archive damaged bytes.
func (c *Checksummed) ForEachPage(fn func(id page.ID, data []byte) error) error {
	return c.inner.ForEachPage(func(id page.ID, data []byte) error {
		if err := VerifyPage(id, data); err != nil {
			return err
		}
		return fn(id, data)
	})
}

// Close implements Store.
func (c *Checksummed) Close() error { return c.inner.Close() }

var _ Store = (*Checksummed)(nil)
