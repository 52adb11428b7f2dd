package recbuf

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/page"
)

func img(b byte) []byte { return bytes.Repeat([]byte{b}, page.Size) }

// block returns e's copy of block idx, or nil.
func block(e *Entry, idx int) []byte {
	if !e.has(idx) {
		return nil
	}
	at := e.rank(idx) * e.bs
	return e.slab[at : at+e.bs]
}

func TestPutPageAndRetrieve(t *testing.T) {
	b := New(4 * page.Size)
	b.PutPage(1, img(0xaa))
	e := b.Entry(1)
	if e == nil {
		t.Fatal("page not present")
	}
	if !bytes.Equal(e.Image, img(0xaa)) {
		t.Fatal("image mismatch")
	}
	if b.Used() != page.Size || b.Len() != 1 {
		t.Fatalf("used=%d len=%d", b.Used(), b.Len())
	}
}

func TestPutPageCopies(t *testing.T) {
	b := New(2 * page.Size)
	src := img(1)
	b.PutPage(1, src)
	src[0] = 99
	if b.Entry(1).Image[0] != 1 {
		t.Fatal("entry aliases source")
	}
}

func TestFIFOOrder(t *testing.T) {
	b := New(4 * page.Size)
	for i := 1; i <= 3; i++ {
		b.PutPage(page.ID(i), img(byte(i)))
	}
	if oldest, ok := b.Oldest(); !ok || oldest != 1 {
		t.Fatalf("oldest = %v", oldest)
	}
	b.Drop(1)
	if oldest, _ := b.Oldest(); oldest != 2 {
		t.Fatalf("oldest after drop = %v", oldest)
	}
	got := b.Pages()
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("Pages = %v", got)
	}
}

func TestSpillProtocol(t *testing.T) {
	b := New(2 * page.Size)
	b.PutPage(1, img(1))
	b.PutPage(2, img(2))
	if b.Fits(page.Size) {
		t.Fatal("full buffer claims to fit another page")
	}
	// Caller spills oldest, then fits.
	victim, _ := b.Oldest()
	b.Drop(victim)
	if !b.Fits(page.Size) {
		t.Fatal("room not reclaimed")
	}
	b.PutPage(3, img(3))
}

func TestPutWithoutRoomPanics(t *testing.T) {
	b := New(page.Size)
	b.PutPage(1, img(1))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	b.PutPage(2, img(2))
}

func TestBlocks(t *testing.T) {
	b := New(page.Size)
	blk := []byte{1, 2, 3, 4}
	b.PutBlock(7, 0, blk)
	b.PutBlock(7, 5, []byte{9, 9, 9, 9})
	if !b.HasBlock(7, 0) || !b.HasBlock(7, 5) || b.HasBlock(7, 1) {
		t.Fatal("block presence wrong")
	}
	if b.Used() != 8 {
		t.Fatalf("used = %d", b.Used())
	}
	e := b.Entry(7)
	if !bytes.Equal(block(e, 0), blk) {
		t.Fatal("block image mismatch")
	}
	// Block copies must not alias.
	blk[0] = 42
	if block(e, 0)[0] != 1 {
		t.Fatal("block aliases source")
	}
	b.Drop(7)
	if b.Used() != 0 || b.HasBlock(7, 0) {
		t.Fatal("drop did not free blocks")
	}
}

// TestBlocksInIndexOrder: blocks copied in any order come back from Blocks
// in ascending index order, each with its own bytes, and a page of them
// copied again after Clear allocates nothing.
func TestBlocksInIndexOrder(t *testing.T) {
	const bs = 64
	b := New(4 * page.Size)
	order := rand.New(rand.NewSource(3)).Perm(page.Size / bs)[:40]
	frame := make([]byte, page.Size)
	rand.New(rand.NewSource(4)).Read(frame)
	fill := func() {
		for _, idx := range order {
			b.PutBlock(9, idx, frame[idx*bs:(idx+1)*bs])
		}
	}
	fill()
	prev := -1
	n := 0
	b.Entry(9).Blocks(func(idx int, before []byte) error {
		if idx <= prev {
			t.Fatalf("block %d after block %d", idx, prev)
		}
		if !bytes.Equal(before, frame[idx*bs:(idx+1)*bs]) {
			t.Fatalf("block %d holds the wrong bytes", idx)
		}
		prev = idx
		n++
		return nil
	})
	if n != len(order) || b.Used() != len(order)*bs {
		t.Fatalf("%d blocks visited, %d bytes used; want %d, %d", n, b.Used(), len(order), len(order)*bs)
	}
	if raceEnabled {
		return
	}
	if allocs := testing.AllocsPerRun(20, func() {
		b.Clear()
		fill()
	}); allocs != 0 {
		t.Fatalf("re-copying %d blocks after Clear allocates %.0f objects", len(order), allocs)
	}
}

func TestBlockSizeMismatchPanics(t *testing.T) {
	b := New(page.Size)
	b.PutBlock(1, 0, make([]byte, 64))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	b.PutBlock(1, 1, make([]byte, 32))
}

func TestDuplicateBlockPanics(t *testing.T) {
	b := New(page.Size)
	b.PutBlock(1, 3, []byte{1})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	b.PutBlock(1, 3, []byte{2})
}

func TestMixedGranularityPanics(t *testing.T) {
	b := New(2 * page.Size)
	b.PutPage(1, img(1))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	b.PutBlock(1, 0, []byte{1})
}

func TestClear(t *testing.T) {
	b := New(2 * page.Size)
	b.PutPage(1, img(1))
	b.PutBlock(2, 0, []byte{1, 2})
	b.Clear()
	if b.Used() != 0 || b.Len() != 0 {
		t.Fatal("clear incomplete")
	}
	if _, ok := b.Oldest(); ok {
		t.Fatal("oldest after clear")
	}
	b.PutPage(1, img(2)) // reusable after clear
}

func TestTinyCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(100)
}

// TestRecycledImagesNeverAlias runs random PutPage/PutBlock/Drop/Clear/SetCap
// sequences against a model holding a private copy of every image. After
// each step every live entry holds exactly its model's bytes, no live image
// shares memory with another live image or with one on the free list, and
// the free list holds at most capBytes/page.Size images.
func TestRecycledImagesNeverAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type modelEntry struct {
		image  []byte
		blocks map[int][]byte
	}
	const bs = 64
	for trial := 0; trial < 50; trial++ {
		b := New((1 + rng.Intn(6)) * page.Size)
		model := map[page.ID]*modelEntry{}
		src := make([]byte, page.Size)
		for step := 0; step < 400; step++ {
			pid := page.ID(1 + rng.Intn(8))
			rng.Read(src)
			switch op := rng.Intn(10); {
			case op < 4:
				if model[pid] != nil || !b.Fits(page.Size) {
					continue
				}
				b.PutPage(pid, src)
				model[pid] = &modelEntry{image: append([]byte(nil), src...)}
			case op < 6:
				idx := rng.Intn(page.Size / bs)
				m := model[pid]
				if (m != nil && (m.image != nil || m.blocks[idx] != nil)) || !b.Fits(bs) {
					continue
				}
				b.PutBlock(pid, idx, src[:bs])
				if m == nil {
					m = &modelEntry{blocks: map[int][]byte{}}
					model[pid] = m
				}
				m.blocks[idx] = append([]byte(nil), src[:bs]...)
			case op < 8:
				b.Drop(pid)
				delete(model, pid)
			case op < 9:
				b.Clear()
				clear(model)
			default:
				b.SetCap((1 + rng.Intn(6)) * page.Size)
			}
			if max := b.Cap() / page.Size; len(b.free) > max {
				t.Fatalf("trial %d step %d: %d free images, cap allows %d", trial, step, len(b.free), max)
			}
			owner := map[*byte]string{}
			claim := func(img []byte, who string) {
				if prev, ok := owner[&img[0]]; ok {
					t.Fatalf("trial %d step %d: %s shares its image with %s", trial, step, who, prev)
				}
				owner[&img[0]] = who
			}
			for i, img := range b.free {
				claim(img, fmt.Sprintf("free image %d", i))
			}
			spare := 0
			for i, e := range b.spare {
				spare += cap(e.slab)
				claim(e.slab[:1], fmt.Sprintf("spare slab %d", i))
			}
			if spare != b.spareBytes || spare > b.Cap() {
				t.Fatalf("trial %d step %d: spare slabs hold %d bytes (counted %d), cap %d", trial, step, spare, b.spareBytes, b.Cap())
			}
			if b.Len() != len(model) {
				t.Fatalf("trial %d step %d: %d entries, model has %d", trial, step, b.Len(), len(model))
			}
			for pid, m := range model {
				e := b.Entry(pid)
				if m.image != nil {
					if !bytes.Equal(e.Image, m.image) {
						t.Fatalf("trial %d step %d: %v's image changed", trial, step, pid)
					}
					claim(e.Image, pid.String())
					continue
				}
				for idx, blk := range m.blocks {
					if !bytes.Equal(block(e, idx), blk) {
						t.Fatalf("trial %d step %d: block %d of %v changed", trial, step, idx, pid)
					}
					claim(block(e, idx), fmt.Sprintf("block %d of %v", idx, pid))
				}
			}
		}
	}
}
