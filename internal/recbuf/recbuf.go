// Package recbuf implements the client's recovery buffer (paper §3.2.1): a
// fixed-size memory area holding before-images that the diffing schemes
// compare against the buffer pool at log-generation time.
//
// Page differencing stores whole-page copies; sub-page differencing stores
// copies of the fixed-size blocks that have been updated. Space is managed
// with the paper's simple FIFO policy over pages: when the buffer cannot
// hold a new copy, the client generates log records for the page that
// entered the buffer first and drops its images.
package recbuf

import (
	"fmt"

	"repro/internal/page"
)

// Buffer is a recovery buffer with a byte-capacity budget. It is not safe
// for concurrent use; each client owns one.
type Buffer struct {
	capBytes int
	used     int
	entries  map[page.ID]*Entry
	fifo     []page.ID
	spills   int64 // pages dropped to make room
	// free holds the page images of dropped entries for PutPage to reuse,
	// at most capBytes/page.Size of them: a transaction's copies cost a
	// copy each, not an allocation each.
	free [][]byte
}

// Entry holds the before-images captured for one page.
type Entry struct {
	// Image is the whole-page before-image (page differencing), nil when
	// block copies are used instead.
	Image []byte
	// Blocks maps block index to block before-image (sub-page schemes).
	Blocks map[int][]byte
	bytes  int
}

// Bytes returns the space the entry occupies.
func (e *Entry) Bytes() int { return e.bytes }

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
}

// Used returns the bytes currently occupied.
func (b *Buffer) Used() int { return b.used }

// Len returns the number of pages with copies in the buffer.
func (b *Buffer) Len() int { return len(b.entries) }

// Spills returns how many pages have been force-dropped via Oldest/Drop to
// make room. The caller increments it by calling NoteSpill.
func (b *Buffer) Spills() int64 { return b.spills }

// NoteSpill records that a page was dropped due to space pressure rather
// than commit.
func (b *Buffer) NoteSpill() { b.spills++ }

// Fits reports whether n more bytes can be stored.
func (b *Buffer) Fits(n int) bool { return b.used+n <= b.capBytes }

// Entry returns the entry for pid, or nil.
func (b *Buffer) Entry(pid page.ID) *Entry { return b.entries[pid] }

// HasPage reports whether pid has any copy in the buffer.
func (b *Buffer) HasPage(pid page.ID) bool { return b.entries[pid] != nil }

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

// PutBlock stores the before-image of one block of pid. The data is copied.
// The caller must ensure Fits(len(data)) first. Re-copying a block that is
// already present is an error; callers check HasBlock.
func (b *Buffer) PutBlock(pid page.ID, idx int, data []byte) {
	if !b.Fits(len(data)) {
		panic("recbuf: PutBlock without room (caller must spill first)")
	}
	e := b.entries[pid]
	if e == nil {
		e = &Entry{Blocks: make(map[int][]byte)}
		b.entries[pid] = e
		b.fifo = append(b.fifo, pid)
	}
	if e.Blocks == nil {
		panic("recbuf: mixing page and block copies for one page")
	}
	if _, dup := e.Blocks[idx]; dup {
		panic(fmt.Sprintf("recbuf: block %d of %v already copied", idx, pid))
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	e.Blocks[idx] = cp
	e.bytes += len(data)
	b.used += len(data)
}

// HasBlock reports whether block idx of pid has been copied.
func (b *Buffer) HasBlock(pid page.ID, idx int) bool {
	e := b.entries[pid]
	if e == nil || e.Blocks == nil {
		return false
	}
	_, ok := e.Blocks[idx]
	return ok
}

// Oldest returns the page that has been in the buffer longest (the FIFO
// spill victim), or false if empty.
func (b *Buffer) Oldest() (page.ID, bool) {
	if len(b.fifo) == 0 {
		return 0, false
	}
	return b.fifo[0], true
}

// Drop removes pid's entry, freeing its space; its page image, if any, is
// kept for a later PutPage, so the entry must not be used after.
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

// Clear drops everything (end of transaction), keeping page images for
// reuse as Drop does.
func (b *Buffer) Clear() {
	for _, e := range b.entries {
		b.recycle(e)
	}
	clear(b.entries)
	b.fifo = b.fifo[:0]
	b.used = 0
}

// recycle puts e's page image on the free list while it has room.
func (b *Buffer) recycle(e *Entry) {
	if e.Image != nil && len(b.free) < b.capBytes/page.Size {
		b.free = append(b.free, e.Image)
	}
	e.Image = nil
}
