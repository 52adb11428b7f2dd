package buffer

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"repro/internal/page"
)

func TestInsertGetRoundTrip(t *testing.T) {
	p := NewPool(4)
	data := bytes.Repeat([]byte{9}, page.Size)
	f, err := p.Insert(1, data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Bytes(), data) {
		t.Fatal("frame contents differ")
	}
	if g := p.Get(1); g != f {
		t.Fatal("Get returned a different frame")
	}
	if p.Get(2) != nil {
		t.Fatal("Get of absent page returned a frame")
	}
	if p.Hits() != 1 || p.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d", p.Hits(), p.Misses())
	}
}

func TestInsertCopies(t *testing.T) {
	p := NewPool(2)
	data := make([]byte, page.Size)
	f, _ := p.Insert(1, data)
	data[0] = 42
	if f.Bytes()[0] != 0 {
		t.Fatal("frame aliases caller buffer")
	}
}

func TestDuplicateInsertFails(t *testing.T) {
	p := NewPool(2)
	p.Insert(1, nil)
	if _, err := p.Insert(1, nil); err == nil {
		t.Fatal("duplicate insert succeeded")
	}
}

func TestLRUVictimOrder(t *testing.T) {
	p := NewPool(3)
	p.Insert(1, nil)
	p.Insert(2, nil)
	p.Insert(3, nil)
	// Touch 1 so 2 becomes LRU.
	p.Get(1)
	v := p.Victim()
	if v == nil || v.PID() != 2 {
		t.Fatalf("victim = %v, want P2", v)
	}
	if err := p.Remove(v.PID()); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Insert(4, nil); err != nil {
		t.Fatal(err)
	}
	if p.Len() != 3 {
		t.Fatalf("Len = %d", p.Len())
	}
}

// TestTouchIsGetWithoutTheLookup: the same access sequence through Get and
// through Touch on held frames leaves the same victim order and hit count.
func TestTouchIsGetWithoutTheLookup(t *testing.T) {
	byGet, byTouch := NewPool(4), NewPool(4)
	var held []*Frame
	for pid := page.ID(1); pid <= 4; pid++ {
		byGet.Insert(pid, nil)
		f, _ := byTouch.Insert(pid, nil)
		held = append(held, f)
	}
	for _, pid := range []page.ID{3, 1, 4, 3, 2} {
		byGet.Get(pid)
		byTouch.Touch(held[pid-1])
	}
	if byGet.Hits() != 5 || byTouch.Hits() != 5 || byTouch.Misses() != 0 {
		t.Fatalf("hits %d by Get, %d by Touch (misses %d)", byGet.Hits(), byTouch.Hits(), byTouch.Misses())
	}
	for i := 0; i < 4; i++ {
		g, h := byGet.Victim(), byTouch.Victim()
		if g.PID() != h.PID() {
			t.Fatalf("victim %d: %v by Get, %v by Touch", i, g.PID(), h.PID())
		}
		byGet.Remove(g.PID())
		byTouch.Remove(h.PID())
	}
	if byGet.Victim() != nil || byTouch.Victim() != nil {
		t.Fatal("an empty pool found a victim")
	}
}

func TestFullPoolRejectsInsert(t *testing.T) {
	p := NewPool(1)
	p.Insert(1, nil)
	if _, err := p.Insert(2, nil); !errors.Is(err, ErrNoFrame) {
		t.Fatalf("err = %v", err)
	}
}

func TestDirtyTracking(t *testing.T) {
	p := NewPool(3)
	p.Insert(1, nil)
	p.Insert(2, nil)
	p.MarkDirty(1)
	d := p.DirtyPages()
	if len(d) != 1 || d[0] != 1 {
		t.Fatalf("DirtyPages = %v", d)
	}
	if !p.Peek(1).Dirty() {
		t.Fatal("frame not dirty")
	}
	p.MarkClean(1)
	if len(p.DirtyPages()) != 0 {
		t.Fatal("MarkClean did not clear")
	}
	if err := p.MarkDirty(99); !errors.Is(err, ErrAbsent) {
		t.Fatalf("err = %v", err)
	}
}

func TestClearDropsEverything(t *testing.T) {
	p := NewPool(3)
	p.Insert(1, nil)
	p.Insert(2, nil)
	p.Clear()
	if p.Len() != 0 {
		t.Fatalf("Len = %d after Clear", p.Len())
	}
	if _, err := p.Insert(1, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScanResistanceNotRequired_CyclicEviction(t *testing.T) {
	// Under a cyclic access pattern larger than the pool, plain LRU evicts
	// everything (this is the paper's big-database thrashing behaviour).
	p := NewPool(4)
	for i := 1; i <= 8; i++ {
		if p.Full() {
			v := p.Victim()
			p.Remove(v.PID())
		}
		p.Insert(page.ID(i), nil)
	}
	for i := 1; i <= 4; i++ {
		if p.Peek(page.ID(i)) != nil {
			t.Fatalf("old page P%d survived cyclic fill", i)
		}
	}
	for i := 5; i <= 8; i++ {
		if p.Peek(page.ID(i)) == nil {
			t.Fatalf("recent page P%d evicted", i)
		}
	}
}

func TestRemovedFrameLosesItsBytes(t *testing.T) {
	p := NewPool(1)
	old, _ := p.Insert(1, bytes.Repeat([]byte{7}, page.Size))
	buf := old.Bytes()
	if err := p.Remove(1); err != nil {
		t.Fatal(err)
	}
	if old.Bytes() != nil {
		t.Fatal("a removed frame still has bytes")
	}
	f, _ := p.Insert(2, bytes.Repeat([]byte{8}, page.Size))
	if &f.Bytes()[0] != &buf[0] {
		t.Fatal("Insert did not reuse the removed frame's buffer")
	}
	if old.Bytes() != nil {
		t.Fatal("a stale frame reads the page that took its buffer")
	}
}

func TestInsertNilZeroesARecycledBuffer(t *testing.T) {
	p := NewPool(1)
	p.Insert(1, bytes.Repeat([]byte{0xff}, page.Size))
	p.MarkDirty(1)
	p.MarkClean(1)
	p.Remove(1)
	f, _ := p.Insert(2, nil)
	if !bytes.Equal(f.Bytes(), make([]byte, page.Size)) {
		t.Fatal("Insert(pid, nil) over a recycled buffer is not all zeros")
	}
	if f.Dirty() {
		t.Fatal("a recycled frame came back dirty")
	}
}

func TestFreeListNeverExceedsCapacity(t *testing.T) {
	p := NewPool(4)
	check := func(when string) {
		t.Helper()
		if len(p.free) > max(p.Capacity()-p.Len(), 0) {
			t.Fatalf("%s: %d resident + %d free buffers in a pool of %d", when, p.Len(), len(p.free), p.Capacity())
		}
	}
	for i := 1; i <= 4; i++ {
		p.Insert(page.ID(i), nil)
	}
	for i := 1; i <= 4; i++ {
		p.Remove(page.ID(i))
		check("after removes")
	}
	if len(p.free) != 4 {
		t.Fatalf("%d free buffers after emptying a pool of 4", len(p.free))
	}
	p.SetCapacity(2)
	check("after SetCapacity(2)")
	for i := 1; i <= 2; i++ {
		p.Insert(page.ID(i), nil)
	}
	p.SetCapacity(1)
	check("after shrinking below the resident pages")
	p.Remove(1)
	p.Remove(2)
	check("after draining the shrunk pool")
	p.Insert(1, nil)
	p.Clear()
	check("after Clear")
}

// TestClearRecyclesEveryBuffer: a crash's Clear puts every frame's buffer
// on the free list, so no frame keeps its bytes and re-inserting as many
// pages as were resident allocates no page buffer, only each frame's own
// bookkeeping.
func TestClearRecyclesEveryBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const n = 64
	p := NewPool(n)
	var held []*Frame
	for i := 1; i <= n; i++ {
		f, _ := p.Insert(page.ID(i), nil)
		held = append(held, f)
	}
	p.Clear()
	for _, f := range held {
		if f.Bytes() != nil {
			t.Fatalf("%v kept its bytes across Clear", f.PID())
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= n; i++ {
		if _, err := p.Insert(page.ID(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= page.Size/8 {
		t.Fatalf("re-inserting %d pages after Clear allocated %d bytes per page", n, per)
	}
}
