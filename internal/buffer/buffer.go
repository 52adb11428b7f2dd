// Package buffer implements the LRU buffer pool used by both the QuickStore
// client and the storage server. Frames are fixed 8 KB page slots; pages may
// be pinned to keep them resident, marked dirty, and evicted in
// least-recently-used order when a frame is needed.
//
// The pool does no I/O itself: callers look up victims, flush or generate
// log records for them as their recovery scheme requires, and then replace
// them. This keeps the replacement policy identical across the client and
// server roles, matching ESM where both manage their own pools (paper §3.1).
package buffer

import (
	"container/list"
	"errors"
	"fmt"
	"sort"

	"repro/internal/page"
)

// Errors returned by the pool.
var (
	ErrNoFrame = errors.New("buffer: no evictable frame")
	ErrPinned  = errors.New("buffer: page is pinned")
	ErrAbsent  = errors.New("buffer: page not resident")
)

// Frame is a resident page.
type Frame struct {
	pid   page.ID
	buf   []byte
	pins  int
	dirty bool
	elem  *list.Element // position in the LRU list (nil while pinned)
}

// PID returns the page occupying the frame.
func (f *Frame) PID() page.ID { return f.pid }

// Bytes returns the frame's storage; mutations write through.
func (f *Frame) Bytes() []byte { return f.buf }

// Dirty reports whether the frame is marked dirty.
func (f *Frame) Dirty() bool { return f.dirty }

// Pool is an LRU buffer pool. It is not safe for concurrent use; callers
// serialize access (the client is single-threaded per workstation and the
// server wraps it in its own lock).
type Pool struct {
	capacity int
	frames   map[page.ID]*Frame
	lru      *list.List // front = least recently used; unpinned frames only
	hits     int64
	misses   int64
}

// NewPool creates a pool with room for capacity pages.
func NewPool(capacity int) *Pool {
	if capacity < 1 {
		panic("buffer: capacity must be positive")
	}
	return &Pool{
		capacity: capacity,
		frames:   make(map[page.ID]*Frame, capacity),
		lru:      list.New(),
	}
}

// Capacity returns the configured number of frames.
func (p *Pool) Capacity() int { return p.capacity }

// SetCapacity changes the frame budget. When shrinking, the caller is
// responsible for evicting surplus pages (Full reports true until then).
// Capacity never drops below one frame.
func (p *Pool) SetCapacity(n int) {
	if n < 1 {
		n = 1
	}
	p.capacity = n
}

// Len returns the number of resident pages.
func (p *Pool) Len() int { return len(p.frames) }

// Hits and Misses report Get statistics.
func (p *Pool) Hits() int64   { return p.hits }
func (p *Pool) Misses() int64 { return p.misses }

// Get returns the resident frame for pid, updating recency, or nil.
func (p *Pool) Get(pid page.ID) *Frame {
	f, ok := p.frames[pid]
	if !ok {
		p.misses++
		return nil
	}
	p.hits++
	if f.elem != nil {
		p.lru.MoveToBack(f.elem)
	}
	return f
}

// Peek returns the resident frame without touching recency or stats.
func (p *Pool) Peek(pid page.ID) *Frame { return p.frames[pid] }

// Full reports whether inserting a new page requires an eviction.
func (p *Pool) Full() bool { return len(p.frames) >= p.capacity }

// Victim returns the least-recently-used unpinned frame, or nil if every
// frame is pinned. The frame remains resident until Remove is called, so the
// caller can flush it or generate log records first.
func (p *Pool) Victim() *Frame {
	e := p.lru.Front()
	if e == nil {
		return nil
	}
	return e.Value.(*Frame)
}

// Remove evicts pid from the pool. Pinned pages cannot be removed.
func (p *Pool) Remove(pid page.ID) error {
	f, ok := p.frames[pid]
	if !ok {
		return fmt.Errorf("%w: %v", ErrAbsent, pid)
	}
	if f.pins > 0 {
		return fmt.Errorf("%w: %v", ErrPinned, pid)
	}
	p.lru.Remove(f.elem)
	delete(p.frames, pid)
	return nil
}

// Insert adds pid with the given contents (copied into the frame) and
// returns its frame. The pool must not be full and pid must not be resident.
func (p *Pool) Insert(pid page.ID, data []byte) (*Frame, error) {
	if _, ok := p.frames[pid]; ok {
		return nil, fmt.Errorf("buffer: %v already resident", pid)
	}
	if p.Full() {
		return nil, fmt.Errorf("%w: pool full inserting %v", ErrNoFrame, pid)
	}
	f := &Frame{pid: pid, buf: make([]byte, page.Size)}
	if data != nil {
		copy(f.buf, data)
	}
	f.elem = p.lru.PushBack(f)
	p.frames[pid] = f
	return f, nil
}

// Pin prevents eviction of pid until a matching Unpin. Pins nest.
func (p *Pool) Pin(pid page.ID) error {
	f, ok := p.frames[pid]
	if !ok {
		return fmt.Errorf("%w: %v", ErrAbsent, pid)
	}
	if f.pins == 0 {
		p.lru.Remove(f.elem)
		f.elem = nil
	}
	f.pins++
	return nil
}

// Unpin releases one pin on pid.
func (p *Pool) Unpin(pid page.ID) error {
	f, ok := p.frames[pid]
	if !ok {
		return fmt.Errorf("%w: %v", ErrAbsent, pid)
	}
	if f.pins == 0 {
		return fmt.Errorf("buffer: %v not pinned", pid)
	}
	f.pins--
	if f.pins == 0 {
		f.elem = p.lru.PushBack(f)
	}
	return nil
}

// MarkDirty flags pid as modified.
func (p *Pool) MarkDirty(pid page.ID) error {
	f, ok := p.frames[pid]
	if !ok {
		return fmt.Errorf("%w: %v", ErrAbsent, pid)
	}
	f.dirty = true
	return nil
}

// MarkClean clears the dirty flag on pid.
func (p *Pool) MarkClean(pid page.ID) error {
	f, ok := p.frames[pid]
	if !ok {
		return fmt.Errorf("%w: %v", ErrAbsent, pid)
	}
	f.dirty = false
	return nil
}

// DirtyPages returns the resident dirty page ids in ascending order. The
// ordering matters for reproducibility: checkpoints and crash-flush paths
// iterate this set, and the crash-point sweep requires the sequence of
// stable-storage writes to be identical run to run.
func (p *Pool) DirtyPages() []page.ID {
	var out []page.ID
	for pid, f := range p.frames {
		if f.dirty {
			out = append(out, pid)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DirtyCount returns the number of resident dirty pages (no allocation; the
// cleaner and stats paths poll it).
func (p *Pool) DirtyCount() int {
	n := 0
	for _, f := range p.frames {
		if f.dirty {
			n++
		}
	}
	return n
}

// Each calls fn for every resident frame.
func (p *Pool) Each(fn func(*Frame)) {
	for _, f := range p.frames {
		fn(f)
	}
}

// Clear drops every frame regardless of pins or dirtiness; this models
// volatile memory loss at a crash.
func (p *Pool) Clear() {
	p.frames = make(map[page.ID]*Frame, p.capacity)
	p.lru.Init()
}
