package archive

import (
	"errors"
	"testing"

	"repro/internal/logrec"
	"repro/internal/page"
	"repro/internal/wal"
)

// FuzzDecodeSegment: segment blobs are read from a directory, so any bytes
// can reach the decoder. It returns ErrCorruptSegment, or a payload of exactly
// End−Start that decodes as whole records, and never panics.
func FuzzDecodeSegment(f *testing.F) {
	var payload []byte
	for i := 0; i < 3; i++ {
		r := logrec.NewUpdate(logrec.TID(i+1), page.ID(i+1), 8*i, []byte{1, 2}, []byte{3, 4})
		r.LSN = wal.FirstLSN + uint64(len(payload))
		payload = r.Encode(payload)
	}
	f.Add(encodeSegment(wal.FirstLSN, wal.FirstLSN+uint64(len(payload)), 3, payload))
	f.Add(encodeSegment(wal.FirstLSN, wal.FirstLSN, 0, nil))
	f.Add([]byte(segMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		start, end, payload, err := decodeSegment("fuzz", data)
		if err != nil {
			if !errors.Is(err, ErrCorruptSegment) {
				t.Fatalf("error %v is not ErrCorruptSegment", err)
			}
			return
		}
		if uint64(len(payload)) != end-start {
			t.Fatalf("%d payload bytes for [%d, %d)", len(payload), start, end)
		}
		if _, err := logrec.DecodeAll(payload); err != nil {
			t.Fatalf("accepted payload does not decode: %v", err)
		}
	})
}
