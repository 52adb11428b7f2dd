package logrec

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/page"
)

func TestUpdateRoundTrip(t *testing.T) {
	r := NewUpdate(7, 42, 128, []byte("before!!"), []byte("after!!!"))
	r.LSN = 1000
	r.PrevLSN = 900
	buf := r.Encode(nil)
	if len(buf) != r.EncodedSize() {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", len(buf), r.EncodedSize())
	}
	got, n, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d", n, len(buf))
	}
	if got.LSN != 1000 || got.PrevLSN != 900 || got.TID != 7 || got.Page != 42 ||
		got.Off != 128 || got.Type != TypeUpdate {
		t.Fatalf("header mismatch: %v", got)
	}
	if !bytes.Equal(got.Before, []byte("before!!")) || !bytes.Equal(got.After, []byte("after!!!")) {
		t.Fatal("image mismatch")
	}
}

func TestControlRecords(t *testing.T) {
	for _, r := range []*Record{NewCommit(3), NewAbort(4), NewEnd(5)} {
		buf := r.Encode(nil)
		if len(buf) != HeaderSize {
			t.Fatalf("%v encodes to %d bytes, want %d", r.Type, len(buf), HeaderSize)
		}
		got, _, err := Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != r.Type || got.TID != r.TID {
			t.Fatalf("round trip: %v != %v", got, r)
		}
		if got.Before != nil || got.After != nil {
			t.Fatal("control record grew images")
		}
	}
}

func TestPageImageRoundTrip(t *testing.T) {
	img := make([]byte, page.Size)
	for i := range img {
		img[i] = byte(i)
	}
	r := NewPageImage(9, 11, img)
	got, _, err := Decode(r.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != TypePageImage || !bytes.Equal(got.After, img) || got.Before != nil {
		t.Fatal("page image mismatch")
	}
}

func TestCLRRoundTrip(t *testing.T) {
	r := &Record{TID: 1, Type: TypeCLR, Page: 5, Off: 10, UndoNext: 777, After: []byte{1, 2, 3}}
	got, _, err := Decode(r.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.UndoNext != 777 || got.Type != TypeCLR || !bytes.Equal(got.After, []byte{1, 2, 3}) {
		t.Fatalf("CLR mismatch: %v", got)
	}
}

func TestDecodeShort(t *testing.T) {
	if _, _, err := Decode(make([]byte, 10)); err != ErrShort {
		t.Fatalf("err = %v", err)
	}
	r := NewCommit(1)
	buf := r.Encode(nil)
	if _, _, err := Decode(buf[:len(buf)-1]); err != ErrShort {
		t.Fatalf("truncated record: err = %v", err)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	buf := NewUpdate(1, 2, 3, []byte{4}, []byte{5}).Encode(nil)
	buf[len(buf)-1] ^= 0xff
	if _, _, err := Decode(buf); err != ErrCorrupt {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestDecodeAll(t *testing.T) {
	var buf []byte
	want := []*Record{
		NewUpdate(1, 2, 0, []byte("ab"), []byte("cd")),
		NewCommit(1),
		NewPageImage(2, 3, make([]byte, 64)),
	}
	for i, r := range want {
		r.LSN = uint64(i + 1)
		buf = r.Encode(buf)
	}
	got, err := DecodeAll(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || got[i].LSN != want[i].LSN {
			t.Fatalf("record %d: %v != %v", i, got[i], want[i])
		}
	}
}

// TestDecodeIntoAgreesWithDecode: decoding into one reused record gives, for
// every record of a mixed stream, exactly what Decode allocates — nothing of
// the previous record shows through (a control record after an update has no
// images), an error leaves the destination alone, and nothing is allocated.
func TestDecodeIntoAgreesWithDecode(t *testing.T) {
	stream := []*Record{
		NewUpdate(7, 42, 128, []byte("before!!"), []byte("after!!!")),
		NewCommit(7),
		NewPageImage(9, 11, bytes.Repeat([]byte{0xAB}, page.Size)),
		{TID: 1, Type: TypeCLR, Page: 5, Off: 10, UndoNext: 777, After: []byte{1, 2, 3}},
		NewEnd(1),
	}
	var dst Record
	var encoded [][]byte
	for i, r := range stream {
		r.LSN, r.PrevLSN = uint64(1000+i), uint64(900+i)
		buf := r.Encode(nil)
		encoded = append(encoded, buf)
		want, wantN, err := Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		n, err := DecodeInto(&dst, buf)
		if err != nil || n != wantN {
			t.Fatalf("record %d: DecodeInto consumed %d, %v; Decode consumed %d", i, n, err, wantN)
		}
		if !reflect.DeepEqual(&dst, want) {
			t.Fatalf("record %d: DecodeInto gave %v, Decode %v", i, &dst, want)
		}
	}
	last := dst
	bad := append([]byte(nil), encoded[0]...)
	bad[len(bad)-1] ^= 0xff
	if _, err := DecodeInto(&dst, bad); err != ErrCorrupt {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if !reflect.DeepEqual(dst, last) {
		t.Fatal("a failed DecodeInto changed its destination")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for _, buf := range encoded {
			if _, err := DecodeInto(&dst, buf); err != nil {
				t.Fatal(err)
			}
		}
	}); allocs != 0 {
		t.Fatalf("DecodeInto allocates %.0f times per %d records", allocs, len(encoded))
	}
}

func TestCloneIsDeep(t *testing.T) {
	r := NewUpdate(1, 2, 0, []byte{1}, []byte{2})
	c := r.Clone()
	r.Before[0] = 99
	r.After[0] = 99
	if c.Before[0] != 1 || c.After[0] != 2 {
		t.Fatal("clone shares image storage")
	}
}

func TestMismatchedImagesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewUpdate(1, 2, 0, []byte{1, 2}, []byte{3})
}

func TestEncodeDecodeQuick(t *testing.T) {
	f := func(tid uint64, pg uint32, off uint16, img []byte) bool {
		if len(img) > 0xffff {
			img = img[:0xffff]
		}
		after := make([]byte, len(img))
		for i := range img {
			after[i] = img[i] ^ 0x33
		}
		r := NewUpdate(TID(tid), page.ID(pg), int(off), img, after)
		r.LSN = tid ^ 0x1234
		got, n, err := Decode(r.Encode(nil))
		if err != nil || n != r.EncodedSize() {
			return false
		}
		return got.TID == r.TID && got.Page == r.Page && got.Off == off &&
			bytes.Equal(got.Before, img) && bytes.Equal(got.After, after)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendUpdateMatchesNewUpdate: AppendUpdate writes, byte for byte, what
// NewUpdate(...).Encode writes — for image lengths 0..300, offsets up to
// 8191 and a non-empty dst — and allocates nothing when dst has room.
func TestAppendUpdateMatchesNewUpdate(t *testing.T) {
	f := func(tid uint64, pg uint32, off uint16, n uint16, seed int64, prefix []byte) bool {
		n %= 301
		off %= page.Size
		rng := rand.New(rand.NewSource(seed))
		before, after := make([]byte, n), make([]byte, n)
		rng.Read(before)
		rng.Read(after)
		want := NewUpdate(TID(tid), page.ID(pg), int(off), before, after).Encode(append([]byte(nil), prefix...))
		got := AppendUpdate(append([]byte(nil), prefix...), TID(tid), page.ID(pg), int(off), before, after)
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	before, after := make([]byte, 64), make([]byte, 64)
	buf := make([]byte, 0, page.Size)
	if allocs := testing.AllocsPerRun(100, func() {
		buf = AppendUpdate(buf[:0], 1, 2, 100, before, after)
	}); allocs != 0 {
		t.Fatalf("AppendUpdate into a roomy dst: %v allocs, want 0", allocs)
	}
}
