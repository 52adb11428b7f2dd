// Package recbuf implements the client's recovery buffer (paper §3.2.1): a
// fixed-size memory area holding before-images that the diffing schemes
// compare against the buffer pool at log-generation time.
//
// Page differencing stores whole-page copies; sub-page differencing stores
// copies of the fixed-size blocks that have been updated, in one slab per
// page with a bitmap of the blocks it holds, so asking for a block is a bit
// test and copying one allocates nothing once the slab has grown. Space is
// managed with the paper's simple FIFO policy over pages: when the buffer
// cannot hold a new copy, the client generates log records for the page that
// entered the buffer first and drops its images.
package recbuf

import (
	"fmt"
	"math/bits"

	"repro/internal/page"
)

// Buffer is a recovery buffer with a byte-capacity budget. It is not safe
// for concurrent use; each client owns one.
type Buffer struct {
	capBytes int
	used     int
	entries  map[page.ID]*Entry
	fifo     []page.ID
	// free holds the page images of dropped entries for PutPage to reuse,
	// at most capBytes/page.Size of them: a transaction's copies cost a
	// copy each, not an allocation each.
	free [][]byte
	// spare holds dropped block entries for PutBlock to reuse, their slabs
	// together at most capBytes (spareBytes) in size.
	spare      []*Entry
	spareBytes int
}

// Entry holds the before-images captured for one page.
type Entry struct {
	// Image is the whole-page before-image (page differencing), nil when
	// block copies are used instead.
	Image []byte
	// Block copies (sub-page schemes): bit i of copied is set when block i
	// is held, and slab holds the held blocks' copies, bs bytes each, in
	// ascending block order. Blocks reads them.
	copied []uint64
	slab   []byte
	bs     int
	bytes  int
}

// Bytes returns the space the entry occupies.
func (e *Entry) Bytes() int { return e.bytes }

// has reports whether block idx is held.
func (e *Entry) has(idx int) bool {
	w := idx / 64
	return w < len(e.copied) && e.copied[w]&(1<<(idx%64)) != 0
}

// rank returns the number of held blocks below idx: the position of block
// idx's copy in the slab.
func (e *Entry) rank(idx int) int {
	n := 0
	for _, word := range e.copied[:idx/64] {
		n += bits.OnesCount64(word)
	}
	return n + bits.OnesCount64(e.copied[idx/64]&(1<<(idx%64)-1))
}

// Blocks calls fn with every held block's index and before-image, in
// ascending block order, and stops at the first error. The images belong to
// the entry.
func (e *Entry) Blocks(fn func(idx int, before []byte) error) error {
	off := 0
	for w, word := range e.copied {
		for word != 0 {
			idx := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			if err := fn(idx, e.slab[off:off+e.bs:off+e.bs]); err != nil {
				return err
			}
			off += e.bs
		}
	}
	return nil
}

// New creates a buffer holding at most capBytes of copies. Capacity must be
// at least one page, matching the paper's 1 <= M <= N constraint.
func New(capBytes int) *Buffer {
	if capBytes < page.Size {
		panic(fmt.Sprintf("recbuf: capacity %d below one page", capBytes))
	}
	return &Buffer{capBytes: capBytes, entries: make(map[page.ID]*Entry)}
}

// Cap returns the configured capacity in bytes.
func (b *Buffer) Cap() int { return b.capBytes }

// SetCap changes the capacity. Shrinking below the bytes in use is allowed;
// the buffer simply reports not fitting anything new until the caller spills
// or clears. Capacity never drops below one page. Recycled images beyond the
// new capacity are let go.
func (b *Buffer) SetCap(n int) {
	if n < page.Size {
		n = page.Size
	}
	b.capBytes = n
	if max := n / page.Size; len(b.free) > max {
		clear(b.free[max:])
		b.free = b.free[:max]
	}
	for b.spareBytes > n {
		last := len(b.spare) - 1
		b.spareBytes -= cap(b.spare[last].slab)
		b.spare[last] = nil
		b.spare = b.spare[:last]
	}
}

// Used returns the bytes currently occupied.
func (b *Buffer) Used() int { return b.used }

// Len returns the number of pages with copies in the buffer.
func (b *Buffer) Len() int { return len(b.entries) }

// Fits reports whether n more bytes can be stored.
func (b *Buffer) Fits(n int) bool { return b.used+n <= b.capBytes }

// Entry returns the entry for pid, or nil.
func (b *Buffer) Entry(pid page.ID) *Entry { return b.entries[pid] }

// PutPage stores a whole-page before-image for pid. The image is copied,
// into the image of a dropped entry when one is free. The caller must ensure
// Fits(page.Size) first, spilling the Oldest page as needed.
func (b *Buffer) PutPage(pid page.ID, img []byte) {
	if len(img) != page.Size {
		panic("recbuf: image must be one page")
	}
	if !b.Fits(page.Size) {
		panic("recbuf: PutPage without room (caller must spill first)")
	}
	if b.entries[pid] != nil {
		panic(fmt.Sprintf("recbuf: %v already present", pid))
	}
	var cp []byte
	if n := len(b.free); n > 0 {
		cp = b.free[n-1]
		b.free[n-1] = nil
		b.free = b.free[:n-1]
	} else {
		cp = make([]byte, page.Size)
	}
	copy(cp, img)
	b.entries[pid] = &Entry{Image: cp, bytes: page.Size}
	b.fifo = append(b.fifo, pid)
	b.used += page.Size
}

// PutBlock stores the before-image of block idx of pid: data, the block's
// bytes, at page offset idx*len(data). The data is copied. Every block of a
// page has the same size. The caller must ensure Fits(len(data)) first.
// Re-copying a block that is already present is an error; callers check
// HasBlock.
func (b *Buffer) PutBlock(pid page.ID, idx int, data []byte) {
	bs := len(data)
	if !b.Fits(bs) {
		panic("recbuf: PutBlock without room (caller must spill first)")
	}
	if bs == 0 || idx < 0 || (idx+1)*bs > page.Size {
		panic(fmt.Sprintf("recbuf: block %d of %d bytes outside a page", idx, bs))
	}
	e := b.entries[pid]
	if e == nil {
		e = b.blockEntry(bs)
		b.entries[pid] = e
		b.fifo = append(b.fifo, pid)
	}
	switch {
	case e.Image != nil:
		panic("recbuf: mixing page and block copies for one page")
	case bs != e.bs:
		panic(fmt.Sprintf("recbuf: %d-byte block on a page of %d-byte blocks", bs, e.bs))
	case e.has(idx):
		panic(fmt.Sprintf("recbuf: block %d of %v already copied", idx, pid))
	}
	// Open a gap at the block's rank and copy it in.
	at := e.rank(idx) * bs
	end := len(e.slab)
	e.slab = append(e.slab, data...)
	copy(e.slab[at+bs:], e.slab[at:end])
	copy(e.slab[at:], data)
	e.copied[idx/64] |= 1 << (idx % 64)
	e.bytes += bs
	b.used += bs
}

// blockEntry returns an empty entry for bs-byte blocks, a spare one when
// there is one.
func (b *Buffer) blockEntry(bs int) *Entry {
	var e *Entry
	if n := len(b.spare); n > 0 {
		e = b.spare[n-1]
		b.spare[n-1] = nil
		b.spare = b.spare[:n-1]
		b.spareBytes -= cap(e.slab)
	} else {
		e = &Entry{}
	}
	words := (page.Size/bs + 63) / 64
	if cap(e.copied) < words {
		e.copied = make([]uint64, words)
	}
	e.copied = e.copied[:words]
	clear(e.copied)
	e.slab = e.slab[:0]
	e.bs = bs
	e.bytes = 0
	return e
}

// HasBlock reports whether block idx of pid has been copied.
func (b *Buffer) HasBlock(pid page.ID, idx int) bool {
	e := b.entries[pid]
	return e != nil && e.has(idx)
}

// Oldest returns the page that has been in the buffer longest (the FIFO
// spill victim), or false if empty.
func (b *Buffer) Oldest() (page.ID, bool) {
	if len(b.fifo) == 0 {
		return 0, false
	}
	return b.fifo[0], true
}

// Drop removes pid's entry, freeing its space; its page image or block slab
// is kept for a later copy, so the entry must not be used after.
func (b *Buffer) Drop(pid page.ID) {
	e := b.entries[pid]
	if e == nil {
		return
	}
	b.recycle(e)
	b.used -= e.bytes
	delete(b.entries, pid)
	for i, p := range b.fifo {
		if p == pid {
			b.fifo = append(b.fifo[:i], b.fifo[i+1:]...)
			break
		}
	}
}

// Pages returns the buffered page ids in FIFO order.
func (b *Buffer) Pages() []page.ID {
	out := make([]page.ID, len(b.fifo))
	copy(out, b.fifo)
	return out
}

// Clear drops everything (end of transaction), keeping page images and
// block slabs for reuse as Drop does.
func (b *Buffer) Clear() {
	for _, e := range b.entries {
		b.recycle(e)
	}
	clear(b.entries)
	b.fifo = b.fifo[:0]
	b.used = 0
}

// recycle keeps e's page image, or e itself when it holds blocks, for reuse
// while the free lists have room.
func (b *Buffer) recycle(e *Entry) {
	switch {
	case e.Image != nil:
		if len(b.free) < b.capBytes/page.Size {
			b.free = append(b.free, e.Image)
		}
		e.Image = nil
	case b.spareBytes+cap(e.slab) <= b.capBytes:
		b.spare = append(b.spare, e)
		b.spareBytes += cap(e.slab)
	}
}
