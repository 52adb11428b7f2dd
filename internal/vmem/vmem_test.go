package vmem

import (
	"bytes"
	"errors"
	"math/rand"
	"sort"
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
	d1 := s.Map(1, frame())
	d2 := s.Map(2, frame())
	if d2.VAddr != d1.VAddr+page.Size {
		t.Fatalf("addresses not contiguous: %#x %#x", d1.VAddr, d2.VAddr)
	}
	if got := s.Lookup(d1.VAddr); got != d1 {
		t.Fatal("lookup at base failed")
	}
	if got := s.Lookup(d1.VAddr + 100); got != d1 {
		t.Fatal("lookup inside frame failed")
	}
	if got := s.Lookup(d2.VAddr + page.Size); got != nil {
		t.Fatal("lookup past end returned a frame")
	}
	if got := s.Lookup(d1.VAddr - 1); got != nil {
		t.Fatal("lookup below base returned a frame")
	}
	if s.ByPage(2) != d2 || s.ByPage(99) != nil {
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
	var faultedAddr Addr
	var faultedWrite bool
	s.SetFaultHandler(func(fd *Desc, addr Addr, write bool) error {
		if fd != d {
			t.Error("handler got wrong descriptor")
		}
		faultedAddr, faultedWrite = addr, write
		s.Protect(fd, ReadWrite)
		fd.RecoveryEnabled = true
		return nil
	})
	if err := s.Write(d, 8, []byte{42}); err != nil {
		t.Fatal(err)
	}
	if faultedAddr != d.VAddr+8 || !faultedWrite {
		t.Fatalf("fault at %#x write=%v", faultedAddr, faultedWrite)
	}
	if d.Frame.Bytes()[8] != 42 {
		t.Fatal("write not applied")
	}
	if s.Faults() != 1 {
		t.Fatalf("faults = %d", s.Faults())
	}
	// Second write: no fault (memory speed).
	if err := s.Write(d, 9, []byte{43}); err != nil {
		t.Fatal(err)
	}
	if s.Faults() != 1 {
		t.Fatal("second write faulted")
	}
}

func TestNoneProtFaultsOnRead(t *testing.T) {
	s := NewSpace()
	d := s.Map(1, frame())
	s.Protect(d, None)
	faults := 0
	s.SetFaultHandler(func(fd *Desc, addr Addr, write bool) error {
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
	s.SetFaultHandler(func(fd *Desc, addr Addr, write bool) error {
		calls++
		if want := s.Lookup(addr); fd != want || fd != d {
			t.Errorf("handler got %p for %#x, Lookup gives %p, held %p", fd, addr, want, d)
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
	if calls != 1 || s.Faults() != 1 {
		t.Fatalf("three writes to a ReadOnly frame: handler ran %d times, %d faults; want 1", calls, s.Faults())
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
	// the fault finds no mapping at its address.
	s := NewSpace()
	s.SetFaultHandler(func(*Desc, Addr, bool) error {
		t.Fatal("handler called for an unmapped address")
		return nil
	})
	d := s.Map(1, frame())
	s.Unmap(d)
	if err := s.Read(d, 0, make([]byte, 4)); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("read of unmapped frame: %v, want ErrUnmapped", err)
	}
	if err := s.Write(d, 0, make([]byte, 4)); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("write of unmapped frame: %v, want ErrUnmapped", err)
	}
}

func TestUnmap(t *testing.T) {
	s := NewSpace()
	d := s.Map(1, frame())
	s.Unmap(d)
	if s.Lookup(d.VAddr) != nil || s.ByPage(1) != nil {
		t.Fatal("descriptor survives unmap")
	}
	// Page can be remapped at a fresh address.
	d2 := s.Map(1, frame())
	if d2.VAddr == d.VAddr {
		t.Fatal("address reused")
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

func TestAVLManyMappings(t *testing.T) {
	s := NewSpace()
	const n = 2000
	descs := make([]*Desc, 0, n)
	for i := 0; i < n; i++ {
		descs = append(descs, s.Map(page.ID(i+1), frame()))
	}
	if s.Mapped() != n {
		t.Fatalf("Mapped = %d", s.Mapped())
	}
	// Every interior address resolves to the right descriptor.
	for _, d := range descs {
		for _, off := range []uint64{0, 1, page.Size / 2, page.Size - 1} {
			if got := s.Lookup(d.VAddr + off); got != d {
				t.Fatalf("lookup %#x+%d wrong", d.VAddr, off)
			}
		}
	}
	// Remove a random half and re-verify.
	rng := rand.New(rand.NewSource(3))
	perm := rng.Perm(n)
	removed := map[int]bool{}
	for _, i := range perm[:n/2] {
		s.Unmap(descs[i])
		removed[i] = true
	}
	if s.Mapped() != n/2 {
		t.Fatalf("Mapped after removal = %d", s.Mapped())
	}
	for i, d := range descs {
		got := s.Lookup(d.VAddr)
		if removed[i] && got != nil {
			t.Fatalf("removed mapping %d still found", i)
		}
		if !removed[i] && got != d {
			t.Fatalf("surviving mapping %d lost", i)
		}
	}
}

func TestAVLBalanced(t *testing.T) {
	// Sequential inserts into an unbalanced BST would give height n; the AVL
	// tree must stay logarithmic.
	s := NewSpace()
	const n = 4096
	for i := 0; i < n; i++ {
		s.Map(page.ID(i+1), frame())
	}
	h := height(s.root)
	// AVL height bound: 1.44*log2(n+2). For 4096, ~18.
	if h > 18 {
		t.Fatalf("height %d for %d sequential inserts", h, n)
	}
}

func TestAVLFloorMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var root *avlNode
	keys := map[uint64]bool{}
	var sorted []uint64
	for i := 0; i < 500; i++ {
		k := uint64(rng.Intn(100000)) * page.Size
		if keys[k] {
			continue
		}
		keys[k] = true
		root = insert(root, k, &Desc{VAddr: k})
		sorted = append(sorted, k)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for trial := 0; trial < 5000; trial++ {
		q := uint64(rng.Intn(100000 * page.Size))
		// Reference floor via binary search.
		idx := sort.Search(len(sorted), func(i int) bool { return sorted[i] > q })
		n := floor(root, q)
		if idx == 0 {
			if n != nil {
				t.Fatalf("floor(%d) = %d, want none", q, n.key)
			}
			continue
		}
		if n == nil || n.key != sorted[idx-1] {
			t.Fatalf("floor(%d) wrong", q)
		}
	}
}
