package vmem

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/buffer"
	"repro/internal/page"
)

// framePool backs every test mapping; frame hands out a fresh frame of it.
var (
	framePool = buffer.NewPool(1 << 14)
	framePID  page.ID
)

func frame() *buffer.Frame {
	framePID++
	f, err := framePool.Insert(framePID, nil)
	if err != nil {
		panic(err)
	}
	return f
}

func TestMapLookup(t *testing.T) {
	s := NewSpace()
	f1, f2 := frame(), frame()
	d1 := s.Map(1, f1)
	d2 := s.Map(2, f2)
	if d1 == d2 || d1.Page != 1 || d2.Page != 2 || d1.Frame != f1 || d2.Frame != f2 {
		t.Fatalf("descriptors wrong: %+v %+v", d1, d2)
	}
	if d1.Prot != ReadOnly || d2.Prot != ReadOnly {
		t.Fatalf("fresh mappings are %v %v, want ReadOnly", d1.Prot, d2.Prot)
	}
	if s.ByPage(1) != d1 || s.ByPage(2) != d2 || s.ByPage(99) != nil {
		t.Fatal("ByPage wrong")
	}
}

func TestReadableByDefaultWriteFaults(t *testing.T) {
	s := NewSpace()
	f := frame()
	f.Bytes()[10] = 77
	d := s.Map(1, f)
	var got [1]byte
	if err := s.Read(d, 10, got[:]); err != nil {
		t.Fatal(err)
	}
	if got[0] != 77 {
		t.Fatalf("read %d", got[0])
	}
	// Write without a handler fails with a protection error.
	if err := s.Write(d, 0, []byte{1}); err == nil {
		t.Fatal("write to ReadOnly frame without handler succeeded")
	}
}

func TestFaultHandlerEnablesWrite(t *testing.T) {
	s := NewSpace()
	d := s.Map(1, frame())
	faults := 0
	s.SetFaultHandler(func(fd *Desc, write bool) error {
		if fd != d {
			t.Error("handler got wrong descriptor")
		}
		if !write {
			t.Error("a write faulted as a read")
		}
		faults++
		s.Protect(fd, ReadWrite)
		fd.RecoveryEnabled = true
		return nil
	})
	if err := s.Write(d, 8, []byte{42}); err != nil {
		t.Fatal(err)
	}
	if d.Frame.Bytes()[8] != 42 {
		t.Fatal("write not applied")
	}
	if faults != 1 {
		t.Fatalf("faults = %d", faults)
	}
	// Second write: no fault (memory speed).
	if err := s.Write(d, 9, []byte{43}); err != nil {
		t.Fatal(err)
	}
	if faults != 1 {
		t.Fatal("second write faulted")
	}
}

func TestNoneProtFaultsOnRead(t *testing.T) {
	s := NewSpace()
	d := s.Map(1, frame())
	s.Protect(d, None)
	faults := 0
	s.SetFaultHandler(func(fd *Desc, write bool) error {
		faults++
		s.Protect(fd, ReadOnly)
		return nil
	})
	var b [1]byte
	if err := s.Read(d, 0, b[:]); err != nil {
		t.Fatal(err)
	}
	if faults != 1 {
		t.Fatalf("faults = %d", faults)
	}
}

func TestHeldDescriptorFaultsThroughTable(t *testing.T) {
	s := NewSpace()
	s.Map(1, frame())
	d := s.Map(2, frame())
	s.Map(3, frame())
	var calls int
	s.SetFaultHandler(func(fd *Desc, write bool) error {
		calls++
		if want := s.ByPage(2); fd != want || fd != d {
			t.Errorf("handler got %p, the table holds %p, held %p", fd, want, d)
		}
		if write {
			s.Protect(fd, ReadWrite)
		} else {
			s.Protect(fd, ReadOnly)
		}
		return nil
	})
	for i := 0; i < 3; i++ {
		if err := s.Write(d, 40+i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 1 {
		t.Fatalf("three writes to a ReadOnly frame: handler ran %d times, want 1", calls)
	}
	if err := s.Read(d, 40, make([]byte, 3)); err != nil || calls != 1 {
		t.Fatalf("read of a ReadWrite frame: err %v, handler ran %d times", err, calls)
	}

	// No caller sets None today, but a read of a None frame must still fault.
	s.Protect(d, None)
	got := make([]byte, 3)
	if err := s.Read(d, 40, got); err != nil {
		t.Fatal(err)
	}
	if calls != 2 || !bytes.Equal(got, []byte{0, 1, 2}) {
		t.Fatalf("read of a None frame: handler ran %d times in all, read %v", calls, got)
	}
}

func TestCrossBoundaryAccessRejected(t *testing.T) {
	s := NewSpace()
	d := s.Map(1, frame())
	s.Map(2, frame())
	err := s.Write(d, page.Size-2, []byte{1, 2, 3, 4})
	if !errors.Is(err, ErrBounds) {
		t.Fatalf("cross-boundary write: %v, want ErrBounds", err)
	}
}

func TestUnmappedAccess(t *testing.T) {
	// An access through a descriptor whose frame was unmapped faults, and
	// the fault finds it is not its page's mapping, even once the page is
	// mapped again under a new descriptor.
	s := NewSpace()
	var handled *Desc
	s.SetFaultHandler(func(fd *Desc, write bool) error {
		handled = fd
		s.Protect(fd, ReadWrite)
		return nil
	})
	d1 := s.Map(1, frame())
	s.Unmap(d1)
	stale := func(when string) {
		t.Helper()
		if err := s.Read(d1, 0, make([]byte, 4)); !errors.Is(err, ErrUnmapped) {
			t.Fatalf("%s: read of unmapped frame: %v, want ErrUnmapped", when, err)
		}
		if err := s.Write(d1, 0, make([]byte, 4)); !errors.Is(err, ErrUnmapped) {
			t.Fatalf("%s: write of unmapped frame: %v, want ErrUnmapped", when, err)
		}
		if handled != nil {
			t.Fatalf("%s: handler ran for an unmapped descriptor", when)
		}
	}
	stale("unmapped")

	d1b := s.Map(1, frame())
	stale("page mapped again")
	if err := s.Write(d1b, 0, []byte{9}); err != nil || handled != d1b {
		t.Fatalf("write through the new descriptor: %v, handler got %p, want %p", err, handled, d1b)
	}
	got := make([]byte, 1)
	if err := s.Read(d1b, 0, got); err != nil || got[0] != 9 {
		t.Fatalf("read through the new descriptor: %v, %v", err, got)
	}
}

func TestUnmap(t *testing.T) {
	s := NewSpace()
	d := s.Map(1, frame())
	s.Unmap(d)
	if s.ByPage(1) != nil || d.Prot != None {
		t.Fatalf("descriptor survives unmap: ByPage %p, prot %v", s.ByPage(1), d.Prot)
	}
	// Page can be remapped under a fresh descriptor.
	d2 := s.Map(1, frame())
	if d2 == d || s.ByPage(1) != d2 {
		t.Fatal("descriptor reused")
	}
}

// TestMapUnmapAllocatesDescriptorOnly: mapping a page the table has held
// before allocates the descriptor and nothing else, and unmapping it
// allocates nothing.
func TestMapUnmapAllocatesDescriptorOnly(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	s := NewSpace()
	f := frame()
	s.Unmap(s.Map(1, f))
	if n := testing.AllocsPerRun(100, func() { s.Unmap(s.Map(1, f)) }); n != 1 {
		t.Fatalf("Map+Unmap of a warm page: %v allocs, want 1 (the descriptor)", n)
	}
}

// TestByPageCacheNeverStale: ByPage's one-entry cache answers only for a
// mapped descriptor. Unmapping the cached page empties it, a page mapped
// again comes back as its new descriptor, and unmapping another page leaves
// the cached one alone.
func TestByPageCacheNeverStale(t *testing.T) {
	s := NewSpace()
	d1 := s.Map(1, frame())
	d2 := s.Map(2, frame())
	if s.ByPage(1) != d1 {
		t.Fatal("ByPage(1) missed a mapped page")
	}
	s.Unmap(d1)
	if got := s.ByPage(1); got != nil {
		t.Fatalf("ByPage(1) after Unmap = %p, want nil", got)
	}
	d1b := s.Map(1, frame())
	if got := s.ByPage(1); got != d1b {
		t.Fatalf("ByPage(1) after a second Map = %p, want the new %p (old %p)", got, d1b, d1)
	}
	if s.ByPage(2) != d2 {
		t.Fatal("ByPage(2) wrong after the cache held page 1")
	}
	s.Unmap(d1b)
	if s.ByPage(2) != d2 || s.ByPage(1) != nil {
		t.Fatal("unmapping page 1 disturbed the cached page 2")
	}
	s.Unmap(d2)
	if s.ByPage(2) != nil || s.ByPage(99) != nil {
		t.Fatal("ByPage answers for an unmapped page")
	}
}

func TestWriteThroughSharedFrame(t *testing.T) {
	// The mapped frame IS the buffer-pool frame: writes must be visible to
	// holders of the slice.
	s := NewSpace()
	f := frame()
	d := s.Map(1, f)
	s.Protect(d, ReadWrite)
	s.Write(d, 100, []byte("hello"))
	if !bytes.Equal(f.Bytes()[100:105], []byte("hello")) {
		t.Fatal("write not visible through frame slice")
	}
}

func TestManyMappings(t *testing.T) {
	s := NewSpace()
	const n = 2000
	descs := make([]*Desc, 0, n)
	for i := 0; i < n; i++ {
		descs = append(descs, s.Map(page.ID(i+1), frame()))
	}
	for i, d := range descs {
		if s.ByPage(page.ID(i+1)) != d {
			t.Fatalf("ByPage(%d) wrong", i+1)
		}
	}
	// Remove a random half and re-verify.
	rng := rand.New(rand.NewSource(3))
	removed := map[int]bool{}
	for _, i := range rng.Perm(n)[:n/2] {
		s.Unmap(descs[i])
		removed[i] = true
	}
	if len(s.byPage) != n/2 {
		t.Fatalf("mapped after removal = %d", len(s.byPage))
	}
	for i, d := range descs {
		got := s.ByPage(page.ID(i + 1))
		if removed[i] && got != nil {
			t.Fatalf("removed mapping %d still found", i)
		}
		if !removed[i] && got != d {
			t.Fatalf("surviving mapping %d lost", i)
		}
	}
}
