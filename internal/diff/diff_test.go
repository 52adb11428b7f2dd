package diff

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mutate(b []byte, regions ...Region) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	for _, r := range regions {
		for i := r.Off; i < r.End(); i++ {
			out[i] ^= 0xff
		}
	}
	return out
}

func TestNoChange(t *testing.T) {
	b := make([]byte, 100)
	if got := Regions(b, b); got != nil {
		t.Fatalf("Regions of equal images = %v", got)
	}
	if Changed(b, b) {
		t.Fatal("Changed of equal images")
	}
}

func TestSingleRegion(t *testing.T) {
	before := make([]byte, 100)
	after := mutate(before, Region{10, 5})
	got := Regions(before, after)
	if len(got) != 1 || got[0] != (Region{10, 5}) {
		t.Fatalf("got %v", got)
	}
	if !Changed(before, after) {
		t.Fatal("Changed missed the update")
	}
}

// The paper's worked example: words 1 and 3 of an object updated (1 word =
// 4 bytes). One combined record costs 50+2*12 = 74 bytes; two separate
// records cost 2*(50+2*4) = 116. The gap is 4, 2*4 <= 50, so they combine.
func TestPaperExampleCombines(t *testing.T) {
	before := make([]byte, 16)
	after := mutate(before, Region{0, 4}, Region{8, 4})
	got := Regions(before, after)
	if len(got) != 1 || got[0] != (Region{0, 12}) {
		t.Fatalf("got %v, want one combined region [0,12)", got)
	}
	if lb := LogBytes(got, HeaderSize); lb != 74 {
		t.Fatalf("combined log bytes = %d, want 74", lb)
	}
	raw := RawRegions(before, after)
	if lb := LogBytes(raw, HeaderSize); lb != 116 {
		t.Fatalf("raw log bytes = %d, want 116", lb)
	}
}

func TestLargeGapStaysSeparate(t *testing.T) {
	before := make([]byte, 200)
	// Gap of 100: 2*100 > 50, so separate records win.
	after := mutate(before, Region{0, 4}, Region{104, 4})
	got := Regions(before, after)
	if len(got) != 2 {
		t.Fatalf("got %v, want 2 regions", got)
	}
	if got[0] != (Region{0, 4}) || got[1] != (Region{104, 4}) {
		t.Fatalf("got %v", got)
	}
}

func TestBoundaryGap(t *testing.T) {
	// 2*gap == H exactly: the paper logs separately only when 2*D > H, so
	// an exact tie combines.
	h := 10
	before := make([]byte, 40)
	after := mutate(before, Region{0, 2}, Region{7, 2}) // gap 5, 2*5 == 10
	got := RegionsH(before, after, h)
	if len(got) != 1 {
		t.Fatalf("tie gap should combine: %v", got)
	}
	after = mutate(before, Region{0, 2}, Region{8, 2}) // gap 6, 2*6 > 10
	got = RegionsH(before, after, h)
	if len(got) != 2 {
		t.Fatalf("gap over threshold should split: %v", got)
	}
}

func TestThreeRegionChain(t *testing.T) {
	// R1 and R2 close (combine), R3 far (separate) — the paper's Figure 2.
	before := make([]byte, 300)
	after := mutate(before, Region{0, 8}, Region{16, 8}, Region{200, 8})
	got := Regions(before, after)
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
	if got[0] != (Region{0, 24}) || got[1] != (Region{200, 8}) {
		t.Fatalf("got %v", got)
	}
}

func TestEdgesOfObject(t *testing.T) {
	before := make([]byte, 10)
	after := mutate(before, Region{0, 1}, Region{9, 1})
	got := Regions(before, after)
	// Gap 8, 2*8 <= 50 → combined into the whole object.
	if len(got) != 1 || got[0] != (Region{0, 10}) {
		t.Fatalf("got %v", got)
	}
}

func TestMismatchedLengthsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Regions(make([]byte, 3), make([]byte, 4))
}

// applyRegions checks that copying the after-image bytes of each region onto
// the before-image reconstructs the after-image (redo correctness), and vice
// versa (undo correctness).
func TestRegionsCoverAllChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(512)
		before := make([]byte, n)
		rng.Read(before)
		after := make([]byte, n)
		copy(after, before)
		for k := rng.Intn(8); k > 0; k-- {
			off := rng.Intn(n)
			l := 1 + rng.Intn(n-off)
			for i := off; i < off+l; i++ {
				after[i] = byte(rng.Intn(256))
			}
		}
		regions := Regions(before, after)
		redo := make([]byte, n)
		copy(redo, before)
		undo := make([]byte, n)
		copy(undo, after)
		for _, r := range regions {
			copy(redo[r.Off:r.End()], after[r.Off:r.End()])
			copy(undo[r.Off:r.End()], before[r.Off:r.End()])
		}
		for i := 0; i < n; i++ {
			if redo[i] != after[i] {
				t.Fatalf("trial %d: redo misses byte %d", trial, i)
			}
			if undo[i] != before[i] {
				t.Fatalf("trial %d: undo misses byte %d", trial, i)
			}
		}
	}
}

// minLogBytes exhaustively partitions the raw regions into consecutive
// groups and returns the minimum log traffic achievable.
func minLogBytes(raw []Region, h int) int {
	if len(raw) == 0 {
		return 0
	}
	// dp[i] = min bytes to log raw[0:i].
	dp := make([]int, len(raw)+1)
	for i := 1; i <= len(raw); i++ {
		best := -1
		for j := 0; j < i; j++ {
			// One record covering raw[j:i].
			span := raw[i-1].End() - raw[j].Off
			cost := dp[j] + h + 2*span
			if best < 0 || cost < best {
				best = cost
			}
		}
		dp[i] = best
	}
	return dp[len(raw)]
}

// Property (paper §3.2.2): the greedy combining rule generates the minimum
// amount of log traffic over all ways of grouping consecutive regions.
func TestGreedyIsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(256)
		before := make([]byte, n)
		rng.Read(before)
		after := make([]byte, n)
		copy(after, before)
		for k := rng.Intn(6); k > 0; k-- {
			off := rng.Intn(n)
			l := 1 + rng.Intn(min(16, n-off))
			for i := off; i < off+l; i++ {
				after[i] ^= 0x5a
			}
		}
		h := 1 + rng.Intn(100)
		greedy := LogBytes(RegionsH(before, after, h), h)
		opt := minLogBytes(RawRegions(before, after), h)
		if greedy != opt {
			t.Fatalf("trial %d (h=%d): greedy=%d optimal=%d", trial, h, greedy, opt)
		}
	}
}

func TestRegionsQuickRoundTrip(t *testing.T) {
	f := func(before []byte, seed int64) bool {
		after := make([]byte, len(before))
		copy(after, before)
		rng := rand.New(rand.NewSource(seed))
		for i := range after {
			if rng.Intn(4) == 0 {
				after[i] ^= byte(1 + rng.Intn(255))
			}
		}
		redo := make([]byte, len(before))
		copy(redo, before)
		for _, r := range Regions(before, after) {
			copy(redo[r.Off:r.End()], after[r.Off:r.End()])
		}
		for i := range redo {
			if redo[i] != after[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// refRegionsH is the byte-at-a-time scan AppendRegionsH replaced, kept as
// the reference the word-at-a-time scan must agree with exactly.
func refRegionsH(before, after []byte, h int) []Region {
	var out []Region
	n := len(before)
	i := 0
	for i < n {
		for i < n && before[i] == after[i] {
			i++
		}
		if i == n {
			break
		}
		start := i
		for i < n && before[i] != after[i] {
			i++
		}
		r := Region{Off: start, Len: i - start}
		if m := len(out); m > 0 && 2*(r.Off-out[m-1].End()) <= h {
			out[m-1].Len = r.End() - out[m-1].Off
			continue
		}
		out = append(out, r)
	}
	return out
}

func sameRegions(a, b []Region) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWordScanMatchesByteScan: for every image length 0..17 and every set of
// modified bytes (exhaustive up to 12 bytes, random beyond), and h in
// {0, 50, 200}, the word-at-a-time scan returns the byte-at-a-time
// reference's regions. Lengths past 8 and 16 put runs across the word
// boundaries and leave unaligned tails; every byte value of the XOR is
// covered because the modified bytes take random non-zero masks, 0x01 and
// 0x80 (the word trick's borrow edge cases) included.
func TestWordScanMatchesByteScan(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	masks := []byte{0x01, 0x80, 0xff}
	check := func(before, after []byte) {
		t.Helper()
		for _, h := range []int{0, 50, 200} {
			want := refRegionsH(before, after, h)
			if got := RegionsH(before, after, h); !sameRegions(got, want) {
				t.Fatalf("len %d h %d before %x after %x: got %v, want %v", len(before), h, before, after, got, want)
			}
			dst := []Region{{Off: 1000, Len: 1}}
			if got := AppendRegionsH(dst, before, after, h); !sameRegions(got[1:], want) || got[0] != dst[0] {
				t.Fatalf("len %d h %d: AppendRegionsH onto a non-empty dst = %v, want prefix then %v", len(before), h, got, want)
			}
		}
		if Changed(before, after) != (refRegionsH(before, after, 0) != nil) {
			t.Fatalf("Changed(%x, %x) disagrees with the reference", before, after)
		}
	}
	for n := 0; n <= 17; n++ {
		before := make([]byte, n)
		rng.Read(before)
		after := make([]byte, n)
		sets := 1 << n
		if n > 12 {
			sets = 4096
		}
		for k := 0; k < sets; k++ {
			set := k
			if n > 12 {
				set = rng.Intn(1 << n)
			}
			for i := range after {
				after[i] = before[i]
				if set&(1<<i) != 0 {
					m := masks[rng.Intn(len(masks))]
					if rng.Intn(2) == 0 {
						m = byte(1 + rng.Intn(255))
					}
					after[i] ^= m
				}
			}
			check(before, after)
		}
	}
	// Page-sized images with sparse and dense runs at every alignment.
	for trial := 0; trial < 200; trial++ {
		n := 8192 - rng.Intn(16)
		before := make([]byte, n)
		rng.Read(before)
		after := append([]byte(nil), before...)
		for k := rng.Intn(40); k > 0; k-- {
			off := rng.Intn(n)
			for i := off; i < min(n, off+1+rng.Intn(20)); i++ {
				after[i] ^= byte(1 + rng.Intn(255))
			}
		}
		check(before, after)
	}
}
