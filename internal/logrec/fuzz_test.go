package logrec

import (
	"bytes"
	"testing"

	"repro/internal/page"
)

func pageID(v uint32) page.ID { return page.ID(v) }

// FuzzDecode hardens the log-record decoder against corrupt input: whatever
// the bytes, Decode must never panic, and anything it accepts must re-encode
// to the same bytes (the log is read back after crashes, so the decoder sees
// torn and garbage data).
func FuzzDecode(f *testing.F) {
	f.Add(NewCommit(1).Encode(nil))
	f.Add(NewUpdate(3, 9, 100, []byte("abc"), []byte("xyz")).Encode(nil))
	f.Add(NewPageImage(2, 4, make([]byte, 64)).Encode(nil))
	f.Add(NewPrepare(5, 1, []int{0, 1, 3}).Encode(nil))
	f.Add(NewDecide(6, 0, []int{0, 2}).Encode(nil))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 100))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, n, err := Decode(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		// Round trip: re-encoding the accepted record reproduces the bytes.
		re := r.Encode(nil)
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode mismatch:\n%x\n%x", re, data[:n])
		}
		// 2PC payloads must either decode cleanly or be rejected — never panic
		// and never round-trip to different membership.
		if r.Type == TypePrepare || r.Type == TypeDecide {
			coord, parts, err := DecodePrepareInfo(r.After)
			if err == nil && !bytes.Equal(EncodePrepareInfo(coord, parts), r.After) {
				t.Fatal("2PC payload re-encode mismatch")
			}
		}
	})
}

// FuzzEncodeDecode drives the encoder with arbitrary field values and checks
// the round trip, and that AppendUpdate writes NewUpdate's encoding.
func FuzzEncodeDecode(f *testing.F) {
	f.Add(uint64(1), uint32(2), uint16(3), []byte("before"), []byte("after!"))
	// AppendUpdate's edge: empty images at the last offset of a page.
	f.Add(uint64(7), uint32(9), uint16(page.Size-1), []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, tid uint64, pg uint32, off uint16, before, after []byte) {
		if len(before) != len(after) || len(before) > 0xffff {
			return
		}
		r := NewUpdate(TID(tid), 0, int(off), before, after)
		r.Page = pageID(pg)
		prefix := []byte("log page so far")
		if got, want := AppendUpdate(prefix, r.TID, r.Page, int(off), before, after), r.Encode(prefix); !bytes.Equal(got, want) {
			t.Fatalf("AppendUpdate = %x, want %x", got, want)
		}
		r.LSN = tid ^ 0xabcdef
		r.PrevLSN = tid + 1
		got, n, err := Decode(r.Encode(nil))
		if err != nil {
			t.Fatal(err)
		}
		if n != r.EncodedSize() {
			t.Fatalf("size %d != %d", n, r.EncodedSize())
		}
		if got.TID != r.TID || got.Off != off || !bytes.Equal(got.Before, before) ||
			!bytes.Equal(got.After, after) || got.LSN != r.LSN {
			t.Fatal("round trip mismatch")
		}
	})
}
