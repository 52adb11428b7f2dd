package disk

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/page"
)

// TestEnvelopeRoundTrip stamps pseudo-random payloads for a spread of page
// ids and checks the envelope properties: a stamped page verifies, any
// single flipped bit fails, the envelope names its page (misdirected
// writes), and the all-zeros never-written page verifies clean.
func TestEnvelopeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ids := []page.ID{0, 1, 7, 255, 1 << 16, 1<<32 - 1}
	for _, id := range ids {
		buf := make([]byte, page.Size)
		rng.Read(buf)
		StampTrailer(id, buf)
		if err := VerifyPage(id, buf); err != nil {
			t.Fatalf("page %v: stamped page fails verification: %v", id, err)
		}
		// Any single-bit flip — payload, trailer fields, or the CRC itself —
		// must be caught.
		for trial := 0; trial < 64; trial++ {
			bit := rng.Intn(page.Size * 8)
			buf[bit/8] ^= 1 << (bit % 8)
			if err := VerifyPage(id, buf); !errors.Is(err, ErrCorruptPage) {
				t.Fatalf("page %v: flipped bit %d went undetected: %v", id, bit, err)
			}
			buf[bit/8] ^= 1 << (bit % 8)
		}
		if err := VerifyPage(id, buf); err != nil {
			t.Fatalf("page %v: restored page fails verification: %v", id, err)
		}
		// The envelope names its page: reading it back as a different id is a
		// misdirected write.
		if err := VerifyPage(id+1, buf); !errors.Is(err, ErrCorruptPage) {
			t.Fatalf("page %v read back as %v went undetected: %v", id, id+1, err)
		}
	}
	// The never-written state: all zeros verifies for any id.
	zero := make([]byte, page.Size)
	if err := VerifyPage(3, zero); err != nil {
		t.Fatalf("all-zeros page fails verification: %v", err)
	}
	// But a single nonzero byte without an envelope is damage, not absence.
	zero[17] = 1
	if err := VerifyPage(3, zero); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("near-zero page without envelope went undetected: %v", err)
	}
}

// TestChecksummedStore checks the wrapper end to end: transparent round
// trips, detection of damage written below it, and that the
// caller's write buffer is never mutated by stamping.
func TestChecksummedStore(t *testing.T) {
	mem := NewMemStore()
	cs := NewChecksummed(mem)
	data := bytes.Repeat([]byte{0x77}, page.Size)
	orig := append([]byte(nil), data...)
	if err := cs.WritePage(9, data); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, orig) {
		t.Fatal("WritePage mutated the caller's buffer")
	}
	buf := make([]byte, page.Size)
	if err := cs.ReadPage(9, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:page.Size-page.TrailerSize], data[:page.Size-page.TrailerSize]) {
		t.Fatal("payload did not round-trip")
	}
	// Rot the stored copy below the wrapper.
	if err := mem.ReadPage(9, buf); err != nil {
		t.Fatal(err)
	}
	buf[100] ^= 0x01
	if err := mem.WritePage(9, buf); err != nil {
		t.Fatal(err)
	}
	if err := cs.ReadPage(9, make([]byte, page.Size)); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("rot below the wrapper went undetected: %v", err)
	}
	if err := cs.ForEachPage(func(page.ID, []byte) error { return nil }); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("ForEachPage scanned past a corrupt page: %v", err)
	}
	// Missing pages are absence, not corruption.
	if err := cs.ReadPage(1000, make([]byte, page.Size)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing page: %v", err)
	}
}

// TestChecksummedWriteAllocatesNothing: stamping a page write goes through a
// recycled scratch page, not a fresh 8 KB one per write (a stack array
// escapes through the inner store's interface call).
func TestChecksummedWriteAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account and drops pooled buffers")
	}
	cs := NewChecksummed(NewMemStore())
	data := bytes.Repeat([]byte{0x42}, page.Size)
	if err := cs.WritePage(3, data); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := cs.WritePage(3, data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("rewriting a page through Checksummed allocates %v times, want 0", allocs)
	}
}

// TestFileStoreTornFinalPage crashes a file store mid-write by truncating
// the file inside its last page: reopening must succeed and reading the
// torn page must fail typed, not return short garbage.
func TestFileStoreTornFinalPage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol")
	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xab}, page.Size)
	for pid := page.ID(0); pid < 3; pid++ {
		if err := fs.WritePage(pid, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	// The torn write: only 100 bytes of page 2 reached the platter.
	if err := os.Truncate(path, 2*page.Size+100); err != nil {
		t.Fatal(err)
	}
	fs, err = OpenFileStore(path)
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	defer fs.Close()
	buf := make([]byte, page.Size)
	if err := fs.ReadPage(1, buf); err != nil || !bytes.Equal(buf, data) {
		t.Fatalf("intact page unreadable after torn tail: %v", err)
	}
	if err := fs.ReadPage(2, buf); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("torn final page: err = %v, want ErrCorruptPage", err)
	}
}
