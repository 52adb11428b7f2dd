package disk

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/page"
)

func testStore(t *testing.T, s Store) {
	t.Helper()
	buf := make([]byte, page.Size)
	if err := s.ReadPage(1, buf); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read of missing page: %v", err)
	}
	data := bytes.Repeat([]byte{0x5a}, page.Size)
	if err := s.WritePage(1, data); err != nil {
		t.Fatal(err)
	}
	if err := s.ReadPage(1, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("read back mismatch")
	}
	// Overwrite.
	data2 := bytes.Repeat([]byte{0xa5}, page.Size)
	if err := s.WritePage(1, data2); err != nil {
		t.Fatal(err)
	}
	s.ReadPage(1, buf)
	if !bytes.Equal(buf, data2) {
		t.Fatal("overwrite not visible")
	}
	// Size validation.
	if err := s.WritePage(2, make([]byte, 10)); err == nil {
		t.Fatal("short write accepted")
	}
	if err := s.ReadPage(1, make([]byte, 10)); err == nil {
		t.Fatal("short read buffer accepted")
	}
	if s.Pages() < 1 {
		t.Fatalf("Pages = %d", s.Pages())
	}
}

func TestMemStore(t *testing.T) {
	testStore(t, NewMemStore())
}

func TestFileStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	testStore(t, s)
}

func TestFileStorePersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{7}, page.Size)
	if err := s.WritePage(5, data); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	buf := make([]byte, page.Size)
	if err := s2.ReadPage(5, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("data lost across reopen")
	}
	if s2.Pages() != 6 {
		t.Fatalf("Pages = %d, want 6 (ids 0..5)", s2.Pages())
	}
}

func TestMemStoreWriteCopies(t *testing.T) {
	s := NewMemStore()
	data := make([]byte, page.Size)
	s.WritePage(1, data)
	data[0] = 99 // mutate caller's buffer after write
	buf := make([]byte, page.Size)
	s.ReadPage(1, buf)
	if buf[0] != 0 {
		t.Fatal("store aliases caller's buffer")
	}
}

// TestForEachPageFrom: a scan from an id visits, in order, exactly the
// stored pages at or above it, on every store; ForEachPage is the scan from 0.
func TestForEachPageFrom(t *testing.T) {
	fs, err := OpenFileStore(filepath.Join(t.TempDir(), "vol"))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	stores := map[string]Store{"mem": NewMemStore(), "file": fs, "checksummed": NewChecksummed(NewMemStore())}
	for name, s := range stores {
		data := make([]byte, page.Size)
		for _, id := range []page.ID{0, 2, 3, 5} {
			if err := s.WritePage(id, data); err != nil {
				t.Fatal(err)
			}
		}
		scan := func(from page.ID) []page.ID {
			var ids []page.ID
			if err := s.ForEachPageFrom(from, func(id page.ID, _ []byte) error {
				ids = append(ids, id)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			return ids
		}
		// The file store reads a hole (id 1, 4) as a zero page.
		want, wantAll := "[P3 P4 P5]", "[P0 P1 P2 P3 P4 P5]"
		if name != "file" {
			want, wantAll = "[P3 P5]", "[P0 P2 P3 P5]"
		}
		if got := fmt.Sprint(scan(3)); got != want {
			t.Errorf("%s: ForEachPageFrom(3) visits %s, want %s", name, got, want)
		}
		var all []page.ID
		s.ForEachPage(func(id page.ID, _ []byte) error { all = append(all, id); return nil })
		if got := fmt.Sprint(all); got != wantAll || fmt.Sprint(scan(0)) != wantAll {
			t.Errorf("%s: ForEachPage visits %s, want %s", name, got, wantAll)
		}
	}
}
