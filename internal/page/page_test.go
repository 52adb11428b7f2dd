package page

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestInitEmpty(t *testing.T) {
	p := New(7)
	if p.ID() != 7 {
		t.Fatalf("ID = %v, want 7", p.ID())
	}
	if p.LSN() != 0 {
		t.Fatalf("LSN = %d, want 0", p.LSN())
	}
	if p.SlotCount() != 0 {
		t.Fatalf("SlotCount = %d, want 0", p.SlotCount())
	}
	want := Size - HeaderSize - TrailerSize - slotSize
	if p.FreeSpace() != want {
		t.Fatalf("FreeSpace = %d, want %d", p.FreeSpace(), want)
	}
}

func TestSetLSN(t *testing.T) {
	p := New(1)
	p.SetLSN(0xdeadbeefcafe)
	if p.LSN() != 0xdeadbeefcafe {
		t.Fatalf("LSN = %x", p.LSN())
	}
}

func TestAllocateAndAccess(t *testing.T) {
	p := New(1)
	s1, err := p.Allocate(100)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p.Allocate(200)
	if err != nil {
		t.Fatal(err)
	}
	if s1 == s2 {
		t.Fatalf("duplicate slot %d", s1)
	}
	data := bytes.Repeat([]byte{0xab}, 100)
	if err := p.WriteAt(s1, 0, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 100)
	if err := p.ReadAt(s1, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read back mismatch")
	}
	// s2 must still be zero.
	got2 := make([]byte, 200)
	if err := p.ReadAt(s2, 0, got2); err != nil {
		t.Fatal(err)
	}
	for _, b := range got2 {
		if b != 0 {
			t.Fatal("fresh object not zeroed")
		}
	}
	// ObjectRange names the bytes Object returns.
	off, size, err := p.ObjectRange(s2)
	obj, _ := p.Object(s2)
	if err != nil || size != 200 || size != len(obj) || &p.Bytes()[off] != &obj[0] {
		t.Fatalf("ObjectRange(%d) = %d, %d, %v", s2, off, size, err)
	}
	p.Free(s1)
	for _, slot := range []int{s1, -1, 2} {
		if _, _, err := p.ObjectRange(slot); err != ErrBadSlot {
			t.Fatalf("ObjectRange(%d) of a freed or absent slot: %v", slot, err)
		}
	}
}

func TestAllocateZeroesReusedSpace(t *testing.T) {
	p := New(1)
	s, _ := p.Allocate(64)
	if err := p.WriteAt(s, 0, bytes.Repeat([]byte{0xff}, 64)); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(s); err != nil {
		t.Fatal(err)
	}
	s2, err := p.Allocate(16)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := p.Object(s2)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range obj {
		if b != 0 {
			t.Fatal("reused slot object not zeroed")
		}
	}
}

func TestAllocateUntilFull(t *testing.T) {
	p := New(1)
	n := 0
	for {
		_, err := p.Allocate(64)
		if err == ErrPageFull {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	// 64-byte objects cost 68 bytes each; at least 100 should fit in 8K.
	if n < 100 {
		t.Fatalf("only %d objects fit", n)
	}
	if p.FreeSpace() >= 64+slotSize {
		t.Fatalf("FreeSpace = %d after full", p.FreeSpace())
	}
}

func TestObjectTooLarge(t *testing.T) {
	p := New(1)
	if _, err := p.Allocate(MaxObjectSize + 1); err != ErrObjectLarge {
		t.Fatalf("err = %v, want ErrObjectLarge", err)
	}
	if _, err := p.Allocate(-1); err != ErrObjectLarge {
		t.Fatalf("err = %v, want ErrObjectLarge", err)
	}
	// The max-size object must fit in an empty page.
	if _, err := p.Allocate(MaxObjectSize); err != nil {
		t.Fatalf("max object: %v", err)
	}
}

func TestFreeAndReuse(t *testing.T) {
	p := New(1)
	s1, _ := p.Allocate(100)
	s2, _ := p.Allocate(100)
	if err := p.Free(s1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Object(s1); err != ErrBadSlot {
		t.Fatalf("freed slot readable: %v", err)
	}
	if err := p.Free(s1); err != ErrBadSlot {
		t.Fatalf("double free: %v", err)
	}
	s3, err := p.Allocate(50)
	if err != nil {
		t.Fatal(err)
	}
	if s3 != s1 {
		t.Fatalf("slot not reused: got %d want %d", s3, s1)
	}
	if _, err := p.Object(s2); err != nil {
		t.Fatal("free damaged neighbour slot")
	}
}

func TestBoundsChecks(t *testing.T) {
	p := New(1)
	s, _ := p.Allocate(10)
	if err := p.ReadAt(s, 5, make([]byte, 6)); err != ErrBadBounds {
		t.Fatalf("read past end: %v", err)
	}
	if err := p.WriteAt(s, -1, []byte{1}); err != ErrBadBounds {
		t.Fatalf("negative offset: %v", err)
	}
	if err := p.ReadAt(99, 0, nil); err != ErrBadSlot {
		t.Fatalf("bad slot: %v", err)
	}
}

func TestLiveObjects(t *testing.T) {
	p := New(1)
	sizes := []int{10, 20, 30, 40}
	for _, sz := range sizes {
		if _, err := p.Allocate(sz); err != nil {
			t.Fatal(err)
		}
	}
	p.Free(2)
	var visited []int
	p.LiveObjects(func(slot int, data []byte) {
		visited = append(visited, slot)
		if len(data) != sizes[slot] {
			t.Fatalf("slot %d size %d want %d", slot, len(data), sizes[slot])
		}
	})
	want := []int{0, 1, 3}
	if len(visited) != len(want) {
		t.Fatalf("visited %v", visited)
	}
	for i := range want {
		if visited[i] != want[i] {
			t.Fatalf("visited %v, want %v", visited, want)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := New(1)
	s, _ := p.Allocate(8)
	p.WriteAt(s, 0, []byte("original"))
	c := p.Clone()
	p.WriteAt(s, 0, []byte("mutated!"))
	got, _ := c.Object(s)
	if string(got) != "original" {
		t.Fatalf("clone shares storage: %q", got)
	}
}

func TestWrapSharesStorage(t *testing.T) {
	buf := make([]byte, Size)
	p := Wrap(buf)
	p.Init(42)
	if buf[8] != 42 {
		t.Fatal("Wrap does not share storage")
	}
}

func TestWrapPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for short buffer")
		}
	}()
	Wrap(make([]byte, 100))
}

func TestOIDEncoding(t *testing.T) {
	o := OID{Page: 123456, Slot: 789}
	var b [OIDSize]byte
	EncodeOID(b[:], o)
	if got := DecodeOID(b[:]); got != o {
		t.Fatalf("round trip: %v != %v", got, o)
	}
	if !NilOID.IsNil() {
		t.Fatal("NilOID not nil")
	}
	if o.IsNil() {
		t.Fatal("real OID reported nil")
	}
}

func TestOIDEncodingQuick(t *testing.T) {
	f := func(pg uint32, slot uint16) bool {
		o := OID{Page: ID(pg), Slot: slot}
		var b [OIDSize]byte
		EncodeOID(b[:], o)
		return DecodeOID(b[:]) == o
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRandomizedAllocFree stresses the allocator with random alloc/free/write
// patterns and checks object isolation.
func TestRandomizedAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := New(9)
	type obj struct {
		slot int
		data []byte
	}
	var live []obj
	for step := 0; step < 2000; step++ {
		switch {
		case len(live) == 0 || rng.Intn(3) != 0:
			size := 1 + rng.Intn(300)
			slot, err := p.Allocate(size)
			if err == ErrPageFull {
				if len(live) == 0 {
					t.Fatal("empty page reports full")
				}
				// Free a random object to make progress.
				i := rng.Intn(len(live))
				if err := p.Free(live[i].slot); err != nil {
					t.Fatal(err)
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			data := make([]byte, size)
			rng.Read(data)
			if err := p.WriteAt(slot, 0, data); err != nil {
				t.Fatal(err)
			}
			live = append(live, obj{slot, data})
		default:
			i := rng.Intn(len(live))
			if err := p.Free(live[i].slot); err != nil {
				t.Fatal(err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		// Verify all live objects.
		for _, o := range live {
			got, err := p.Object(o.slot)
			if err != nil {
				t.Fatalf("step %d: slot %d: %v", step, o.slot, err)
			}
			if !bytes.Equal(got, o.data) {
				t.Fatalf("step %d: slot %d corrupted", step, o.slot)
			}
		}
	}
}

// Property: FreeSpace never goes negative and an Allocate of exactly
// FreeSpace bytes succeeds on a fresh page.
func TestFreeSpaceExact(t *testing.T) {
	p := New(1)
	p.Allocate(1000)
	fs := p.FreeSpace()
	if _, err := p.Allocate(fs); err != nil {
		t.Fatalf("Allocate(FreeSpace=%d): %v", fs, err)
	}
	if p.FreeSpace() != 0 {
		t.Fatalf("FreeSpace after exact fill = %d", p.FreeSpace())
	}
}
