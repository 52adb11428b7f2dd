package wal

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/logrec"
)

// gatedDev is a memory ring whose every Sync reports its range on held and
// then waits on release for how far it gets: to, or from for a sync the
// device swallows.
type gatedDev struct {
	Ring
	held    chan [2]uint64
	release chan uint64
}

func (d *gatedDev) Sync(from, to uint64) uint64 {
	d.held <- [2]uint64{from, to}
	return <-d.release
}

func newGatedLog(capacity int) (*Log, *gatedDev) {
	d := &gatedDev{Ring: make(Ring, capacity), held: make(chan [2]uint64), release: make(chan uint64)}
	return Open(d, capacity, FirstLSN, FirstLSN), d
}

// within waits for a value on ch, failing the test rather than hanging when
// none comes.
func within[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: nothing after 5 s", what)
		panic("unreachable")
	}
}

// idle fails the test if ch delivers within a short wait: what must still be
// parked.
func idle[T any](t *testing.T, ch <-chan T, what string) {
	t.Helper()
	select {
	case <-ch:
		t.Fatalf("%s returned while the sync was held", what)
	case <-time.After(20 * time.Millisecond):
	}
}

// waitParked waits until n committers are parked for a sync, so that what a
// test does next happens while they wait.
func waitParked(t *testing.T, l *Log, n int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		l.mu.Lock()
		parked := l.gcWaiters + l.gcBatch
		l.mu.Unlock()
		if parked == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d committers parked after 5 s, want %d", parked, n)
		}
	}
}

// appendCommit appends a commit record and returns the LSN just past it.
// Goroutines call it, so a failure is an Error.
func appendCommit(t *testing.T, l *Log, tid logrec.TID) uint64 {
	t.Helper()
	r := logrec.NewCommit(tid)
	lsn, err := l.Append(r)
	if err != nil {
		t.Error(err)
	}
	return lsn + uint64(r.EncodedSize())
}

// TestAppendRunsDuringSync: the log syncs without its mutex, so an append
// returns while a sync is held, and nothing is acknowledged before the sync
// returns.
func TestAppendRunsDuringSync(t *testing.T) {
	l, d := newGatedLog(1 << 20)
	end := appendCommit(t, l, 1)
	forced := make(chan int, 1)
	go func() { forced <- l.Force() }()
	if rng := within(t, d.held, "the force's sync"); rng != [2]uint64{FirstLSN, end} {
		t.Fatalf("sync of %v, want [%d %d)", rng, FirstLSN, end)
	}
	appended := make(chan uint64, 1)
	go func() { appended <- appendCommit(t, l, 2) }()
	next := within(t, appended, "an append during the sync")
	committed := make(chan int, 1)
	go func() { committed <- l.CommitWait(end) }()
	waitParked(t, l, 1)
	idle(t, committed, "a commit the sync in flight covers")
	if got := l.StableEnd(); got != FirstLSN {
		t.Fatalf("stable end %d before the sync returned", got)
	}
	d.release <- end
	if n := within(t, forced, "the force"); n != 1 {
		t.Fatalf("the force wrote %d pages, want 1", n)
	}
	if n := within(t, committed, "the commit riding the sync"); n != 0 {
		t.Fatalf("a commit the force's sync covered was charged %d pages", n)
	}
	if got := l.StableEnd(); got != end {
		t.Fatalf("stable end %d, want %d: the append after it stays volatile", got, end)
	}
	if l.End() != next {
		t.Fatalf("end %d, want %d", l.End(), next)
	}
}

// slowDev is a memory ring whose Sync takes a while, and which notes if two
// Syncs ever overlap.
type slowDev struct {
	Ring
	delay   time.Duration
	active  atomic.Int32
	overlap atomic.Bool
	syncs   atomic.Int64
}

func (d *slowDev) Sync(from, to uint64) uint64 {
	if d.active.Add(1) > 1 {
		d.overlap.Store(true)
	}
	d.syncs.Add(1)
	time.Sleep(d.delay)
	d.active.Add(-1)
	return to
}

// TestSlowSyncFormsGroups: a 1 ms sync and eight committers. Commits that
// arrive while a sync is in flight park and share the next one, so the log
// syncs fewer times than it commits; no two syncs overlap; every commit is
// counted once, in a batch or as a flush avoided.
func TestSlowSyncFormsGroups(t *testing.T) {
	const workers, txns = 8, 10
	d := &slowDev{Ring: make(Ring, 1<<20), delay: time.Millisecond}
	l := Open(d, 1<<20, FirstLSN, FirstLSN)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range txns {
				l.CommitWait(appendCommit(t, l, logrec.TID(100*w+i+1)))
			}
		}()
	}
	wg.Wait()
	if d.overlap.Load() {
		t.Error("two Syncs ran at once")
	}
	if l.StableEnd() != l.End() {
		t.Errorf("stable end %d, end %d: a commit returned unstable", l.StableEnd(), l.End())
	}
	g := l.GroupStats()
	if l.Forces() >= workers*txns || d.syncs.Load() != l.Forces() {
		t.Errorf("%d forces (%d syncs) for %d commits: no group formed", l.Forces(), d.syncs.Load(), workers*txns)
	}
	var grouped, batches int64
	for size, n := range g.BatchSizes {
		batches += n
		if size > 1 {
			grouped += n
		}
	}
	if grouped == 0 {
		t.Errorf("batch sizes %v: no sync served more than one commit", g.BatchSizes)
	}
	if g.Commits != workers*txns || batches != g.Batches || g.Commits-g.FlushesAvoided != g.Batches {
		t.Errorf("group stats %+v: every commit must be one batch's leader or a flush avoided", g)
	}
}

// TestSwallowedSyncReleasesItsWaiters: a sync the device stops short of
// still releases every commit it covered, moves nothing, and a later force
// syncs again.
func TestSwallowedSyncReleasesItsWaiters(t *testing.T) {
	l, d := newGatedLog(1 << 20)
	first := appendCommit(t, l, 1)
	second := appendCommit(t, l, 2)
	done := make(chan int, 2)
	go func() { done <- l.CommitWait(first) }()
	if rng := within(t, d.held, "the commit's sync"); rng != [2]uint64{FirstLSN, second} {
		t.Fatalf("sync of %v, want everything appended [%d %d)", rng, FirstLSN, second)
	}
	go func() { done <- l.CommitWait(second) }()
	waitParked(t, l, 2)
	idle(t, done, "a commit")
	d.release <- FirstLSN // swallowed
	within(t, done, "the leader of a swallowed sync")
	within(t, done, "a commit riding a swallowed sync")
	if got := l.StableEnd(); got != FirstLSN {
		t.Fatalf("stable end %d after a swallowed sync", got)
	}
	forced := make(chan int, 1)
	go func() { forced <- l.Force() }()
	within(t, d.held, "a force after a swallowed sync")
	d.release <- second
	if n := within(t, forced, "the force"); n != 1 || l.StableEnd() != second {
		t.Fatalf("force wrote %d pages to stable end %d, want 1 to %d", n, l.StableEnd(), second)
	}
}

// TestCrashDiscardsSyncInFlight: a crash while a sync is held releases the
// committer parked behind it at once, and the sync's result, once it
// returns, does not move the stable end past the crash's trim.
func TestCrashDiscardsSyncInFlight(t *testing.T) {
	l, d := newGatedLog(1 << 20)
	trim := appendCommit(t, l, 1)
	forced := make(chan int, 1)
	go func() { forced <- l.Force() }()
	within(t, d.held, "the first force's sync")
	d.release <- trim
	within(t, forced, "the first force")

	lead := appendCommit(t, l, 2)
	led := make(chan int, 1)
	go func() { led <- l.CommitWait(lead) }()
	within(t, d.held, "the commit's sync")
	third := appendCommit(t, l, 3)
	parked := make(chan int, 1)
	go func() { parked <- l.CommitWait(third) }()
	waitParked(t, l, 2)
	idle(t, parked, "a commit appended after the sync began")
	l.Crash()
	within(t, parked, "the parked committer after a crash")
	if got := l.StableEnd(); got != trim || l.End() != trim {
		t.Fatalf("after the crash: stable end %d, end %d, want both %d", got, l.End(), trim)
	}
	d.release <- lead
	if n := within(t, led, "the leader of a discarded sync"); n != 0 {
		t.Fatalf("a discarded sync charged %d pages", n)
	}
	if got := l.StableEnd(); got != trim {
		t.Fatalf("a sync in flight across the crash moved the stable end to %d, trim %d", got, trim)
	}
}
