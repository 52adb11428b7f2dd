// Package diff implements QuickStore's differencing algorithm for generating
// recovery log records (paper §3.2.2).
//
// Given the before- and after-images of an object, the algorithm identifies
// the consecutive modified regions and decides, for each pair of adjacent
// regions, whether to log them separately or to combine them into one
// region. With ESM's before/after-image log-record format, a separate record
// costs one extra header of H bytes while a combined record logs the
// unmodified gap twice (once in each image); regions separated by a gap D
// are therefore logged separately exactly when 2*size(D) > H. Because the
// decision depends only on the gap, the greedy left-to-right scan generates
// the minimum possible amount of log traffic (shown in the paper, verified
// here by property test against exhaustive search).
//
// The scan is on the client's commit path — every page of a page-differencing
// transaction is diffed whole — so it compares eight bytes at a time, and
// AppendRegionsH writes the regions into a slice the caller owns and reuses.
// Its output is exactly the byte-at-a-time scan's (a property test keeps a
// byte-at-a-time reference to compare against).
package diff

import (
	"encoding/binary"
	"math/bits"
)

// HeaderSize is H, the size in bytes of an ESM log-record header. The paper
// reports approximately 50 bytes; internal/logrec matches this.
const HeaderSize = 50

// Region is a modified byte range [Off, Off+Len) within an object.
type Region struct {
	Off int
	Len int
}

// End returns the offset just past the region.
func (r Region) End() int { return r.Off + r.Len }

// Regions compares the before- and after-images of an object and returns the
// regions that must be logged, already combined according to the
// 2*gap > HeaderSize rule. The two slices must be the same length. The
// result is in increasing offset order; it is nil when the images are equal.
func Regions(before, after []byte) []Region { return AppendRegionsH(nil, before, after, HeaderSize) }

// RegionsH is Regions with an explicit log-record header size h, used by
// tests and ablation benchmarks.
func RegionsH(before, after []byte, h int) []Region { return AppendRegionsH(nil, before, after, h) }

// RawRegions returns the maximal runs of differing bytes without any
// combining (h = 0: two runs are always at least one byte apart). Used by
// tests and by the no-combining ablation.
func RawRegions(before, after []byte) []Region { return AppendRegionsH(nil, before, after, 0) }

// AppendRegionsH appends to dst the regions RegionsH(before, after, h) would
// return and returns the extended slice; a caller that diffs many objects
// reuses one dst and allocates nothing once it has grown. Regions already in
// dst are never combined with the new ones.
//
// The scan compares eight bytes at a time: an XOR of two little-endian words
// is zero when they agree, and otherwise its lowest set bit names the first
// byte that differs; inside a modified run the first byte that agrees again
// is the lowest zero byte of the XOR, found with the same word arithmetic.
// Over unmodified bytes it tests four words per step.
func AppendRegionsH(dst []Region, before, after []byte, h int) []Region {
	if len(before) != len(after) {
		panic("diff: image length mismatch")
	}
	base := len(dst)
	n := len(before)
	for i := nextDiff(before, after, 0); i < n; i = nextDiff(before, after, i) {
		start := i
		i = nextSame(before, after, i+1)
		r := Region{Off: start, Len: i - start}
		if m := len(dst); m > base {
			gap := r.Off - dst[m-1].End()
			if 2*gap <= h {
				// Combining logs the gap twice but saves a header: cheaper
				// (or equal), and the combined region may be combined again
				// with the next one.
				dst[m-1].Len = r.End() - dst[m-1].Off
				continue
			}
		}
		dst = append(dst, r)
	}
	return dst
}

const (
	lows  = 0x0101010101010101
	highs = 0x8080808080808080
)

// nextDiff returns the first index at or after i where the images differ, or
// len(a) when they agree from i on. Most of an object or page is unmodified,
// so it skips four agreeing words per step before it looks for the byte.
func nextDiff(a, b []byte, i int) int {
	n := len(a)
	b = b[:n]
	for ; i+32 <= n; i += 32 {
		x, y := a[i:i+32:i+32], b[i:i+32:i+32]
		if (binary.LittleEndian.Uint64(x)^binary.LittleEndian.Uint64(y))|
			(binary.LittleEndian.Uint64(x[8:])^binary.LittleEndian.Uint64(y[8:]))|
			(binary.LittleEndian.Uint64(x[16:])^binary.LittleEndian.Uint64(y[16:]))|
			(binary.LittleEndian.Uint64(x[24:])^binary.LittleEndian.Uint64(y[24:])) != 0 {
			break
		}
	}
	for ; i+8 <= n; i += 8 {
		x, y := a[i:i+8:i+8], b[i:i+8:i+8]
		if d := binary.LittleEndian.Uint64(x) ^ binary.LittleEndian.Uint64(y); d != 0 {
			return i + bits.TrailingZeros64(d)/8
		}
	}
	for ; i < n && a[i] == b[i]; i++ {
	}
	return i
}

// nextSame returns the first index at or after i where the images agree, or
// len(a) when they differ from i on. A byte that agrees is a zero byte of the
// XOR d; (d-lows) &^ d & highs flags it, and although a borrow can also flag
// bytes above a zero byte, the lowest flag is always exact.
func nextSame(a, b []byte, i int) int {
	n := len(a)
	b = b[:n]
	for ; i+8 <= n; i += 8 {
		x, y := a[i:i+8:i+8], b[i:i+8:i+8]
		d := binary.LittleEndian.Uint64(x) ^ binary.LittleEndian.Uint64(y)
		if z := (d - lows) &^ d & highs; z != 0 {
			return i + bits.TrailingZeros64(z)/8
		}
	}
	for ; i < n && a[i] != b[i]; i++ {
	}
	return i
}

// LogBytes returns the total log traffic, in bytes, that logging the given
// regions with header size h would generate: one header plus a before- and
// an after-image per region.
func LogBytes(regions []Region, h int) int {
	total := 0
	for _, r := range regions {
		total += h + 2*r.Len
	}
	return total
}

// Changed reports whether the two images differ anywhere. It is cheaper than
// Regions when only the boolean answer is needed.
func Changed(before, after []byte) bool {
	if len(before) != len(after) {
		panic("diff: image length mismatch")
	}
	return nextDiff(before, after, 0) < len(before)
}
