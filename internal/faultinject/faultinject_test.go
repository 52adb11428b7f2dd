package faultinject

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/page"
)

// opTrace runs a fixed write/read sequence against a freshly armed store and
// returns one byte per op recording whether it faulted.
func opTrace(t *testing.T, plan Plan) []byte {
	t.Helper()
	st := NewStore(disk.NewMemStore())
	st.Arm(plan)
	var trace []byte
	data := make([]byte, page.Size)
	for i := 0; i < 200; i++ {
		data[0] = byte(i)
		werr := st.WritePage(page.ID(1+i%7), data)
		rerr := st.ReadPage(page.ID(1+i%7), data)
		b := byte(0)
		if werr != nil {
			if !errors.Is(werr, ErrInjected) {
				t.Fatalf("op %d: non-injected write error: %v", i, werr)
			}
			b |= 1
		}
		if rerr != nil {
			if !errors.Is(rerr, ErrInjected) {
				t.Fatalf("op %d: non-injected read error: %v", i, rerr)
			}
			b |= 2
		}
		trace = append(trace, b)
	}
	return trace
}

// TestStoreScheduleDeterministic is the reproducibility contract: the same
// (plan, seed) pair must produce the identical fault schedule, and a
// different seed a different one.
func TestStoreScheduleDeterministic(t *testing.T) {
	for _, name := range []string{"eio", "torn", "chaos"} {
		plan := Plans()[name]
		plan.Seed = 42
		a := opTrace(t, plan)
		b := opTrace(t, plan)
		if !bytes.Equal(a, b) {
			t.Errorf("plan %q seed 42: two runs produced different fault schedules", name)
		}
		plan.Seed = 43
		c := opTrace(t, plan)
		if bytes.Equal(a, c) {
			t.Errorf("plan %q: seeds 42 and 43 produced the identical schedule", name)
		}
	}
}

// TestTornWriteKeepsSectorPrefix checks the injected torn write: the store
// must end up holding a sector-aligned prefix of the new data over the old.
func TestTornWriteKeepsSectorPrefix(t *testing.T) {
	inner := disk.NewMemStore()
	st := NewStore(inner)
	old := bytes.Repeat([]byte{0xAA}, page.Size)
	if err := st.WritePage(3, old); err != nil {
		t.Fatal(err)
	}
	st.Arm(Plan{Name: "always-torn", Seed: 7, TornWriteRate: 1})
	neu := bytes.Repeat([]byte{0xBB}, page.Size)
	if err := st.WritePage(3, neu); err == nil {
		t.Fatal("torn write must report the injected error")
	} else if !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write error not classified as injected: %v", err)
	}
	got := make([]byte, page.Size)
	if err := inner.ReadPage(3, got); err != nil {
		t.Fatal(err)
	}
	cut := 0
	for cut < page.Size && got[cut] == 0xBB {
		cut++
	}
	if cut%SectorSize != 0 {
		t.Errorf("torn boundary at byte %d is not sector-aligned", cut)
	}
	for i := cut; i < page.Size; i++ {
		if got[i] != 0xAA {
			t.Fatalf("byte %d is %#x, want the old contents past the torn boundary", i, got[i])
		}
	}
}

// TestReorderWindow checks that buffered writes are invisible to the inner
// store, visible through the wrapper (the OS cache), applied when the window
// fills, and lost on CrashDropPending.
func TestReorderWindow(t *testing.T) {
	inner := disk.NewMemStore()
	st := NewStore(inner)
	st.Arm(Plan{Name: "reorder", Seed: 1, ReorderWindow: 4})
	data := make([]byte, page.Size)
	buf := make([]byte, page.Size)
	for i := 1; i <= 3; i++ {
		data[0] = byte(i)
		if err := st.WritePage(page.ID(i), data); err != nil {
			t.Fatal(err)
		}
		if err := inner.ReadPage(page.ID(i), buf); err == nil {
			t.Fatalf("page %d reached the inner store before the window filled", i)
		}
		if err := st.ReadPage(page.ID(i), buf); err != nil || buf[0] != byte(i) {
			t.Fatalf("page %d not readable through the wrapper: %v %d", i, err, buf[0])
		}
	}
	data[0] = 4
	if err := st.WritePage(4, data); err != nil {
		t.Fatal(err) // fourth write fills the window: all four flush
	}
	for i := 1; i <= 4; i++ {
		if err := inner.ReadPage(page.ID(i), buf); err != nil {
			t.Fatalf("page %d missing from the inner store after flush: %v", i, err)
		}
	}

	data[0] = 5
	if err := st.WritePage(5, data); err != nil {
		t.Fatal(err)
	}
	st.CrashDropPending()
	if err := inner.ReadPage(5, buf); err == nil {
		t.Fatal("page 5 survived CrashDropPending")
	}
}

// TestFuseSwallowsPastLimit checks the sweep's crash-instant semantics:
// events up to the limit take effect, everything after silently does not.
func TestFuseSwallowsPastLimit(t *testing.T) {
	inner := disk.NewMemStore()
	fuse := NewFuse(2)
	st := NewSweepStore(inner, fuse)
	data := make([]byte, page.Size)
	buf := make([]byte, page.Size)
	for i := 1; i <= 3; i++ {
		data[0] = byte(i)
		if err := st.WritePage(page.ID(i), data); err != nil {
			t.Fatalf("write %d: %v (swallowed writes must report success)", i, err)
		}
	}
	for i := 1; i <= 2; i++ {
		if err := inner.ReadPage(page.ID(i), buf); err != nil {
			t.Fatalf("write %d within the limit did not reach the store: %v", i, err)
		}
	}
	if err := inner.ReadPage(3, buf); err == nil {
		t.Fatal("write 3 took effect past the fuse limit")
	}
	if !fuse.Blown() || fuse.Count() != 3 {
		t.Fatalf("fuse state blown=%v count=%d, want blown with 3 events", fuse.Blown(), fuse.Count())
	}
	fuse.Disarm()
	if err := st.WritePage(3, data); err != nil {
		t.Fatal(err)
	}
	if err := inner.ReadPage(3, buf); err != nil {
		t.Fatal("disarmed fuse must let writes through again")
	}
}

// messageTrace draws a fixed run of message faults from a fresh flaky-net
// schedule — every fourth message a commit — and renders each.
func messageTrace(seed int64) []string {
	plan := Plans()["flaky-net"]
	plan.Seed = seed
	plan.ResetOnCommit = 0.2
	msgs := NewMessages(plan)
	var trace []string
	for i := 0; i < 150; i++ {
		trace = append(trace, fmt.Sprintf("%+v", msgs.Next(i%4 == 3)))
	}
	return trace
}

// TestTransportDeterministic: the message schedule is a pure function of the
// plan and seed — same seed, same drops, delays, duplicates and resets.
func TestTransportDeterministic(t *testing.T) {
	a, b := messageTrace(9), messageTrace(9)
	if !slices.Equal(a, b) {
		t.Fatal("message fault schedule not reproducible from the seed")
	}
	drops := 0
	for _, m := range a {
		if strings.Contains(m, "not delivered") {
			drops++
		}
	}
	if drops == 0 {
		t.Fatal("flaky-net plan injected no drops in 150 messages")
	}
	if slices.Equal(a, messageTrace(10)) {
		t.Error("seeds 9 and 10 produced the identical message schedule")
	}
	for _, name := range []string{"eio", "torn", "reorder", "bitrot", "pagerot"} {
		if NewMessages(Plans()[name]) != nil {
			t.Errorf("disk-only plan %q has a message schedule", name)
		}
	}
}

// TestScanFromSeesPendingWrites: a scan from an id sees the writes buffered
// in the reorder window at or above it, and none below.
func TestScanFromSeesPendingWrites(t *testing.T) {
	inner := disk.NewMemStore()
	st := NewStore(inner)
	st.Arm(Plan{Name: "reorder", Seed: 1, ReorderWindow: 4})
	data := make([]byte, page.Size)
	for i := 1; i <= 3; i++ {
		if err := st.WritePage(page.ID(i), data); err != nil {
			t.Fatal(err)
		}
	}
	var ids []page.ID
	if err := st.ForEachPageFrom(2, func(id page.ID, _ []byte) error {
		ids = append(ids, id)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(ids); got != "[P2 P3]" {
		t.Fatalf("ForEachPageFrom(2) over pending writes visits %s, want [P2 P3]", got)
	}
}
