package lock

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/logrec"
	"repro/internal/page"
)

func TestSharedCompatible(t *testing.T) {
	m := NewManager(time.Second)
	if err := m.Lock(1, 10, Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, 10, Shared); err != nil {
		t.Fatal(err)
	}
	for _, id := range []logrec.TID{1, 2} {
		if mode, ok := m.Holds(id, 10); !ok || mode != Shared {
			t.Fatalf("%v holds %v (%v), want S", id, mode, ok)
		}
	}
}

func TestExclusiveBlocksAndHandsOver(t *testing.T) {
	m := NewManager(5 * time.Second)
	if err := m.Lock(1, 10, Exclusive); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan error, 1)
	go func() {
		acquired <- m.Lock(2, 10, Exclusive)
	}()
	select {
	case <-acquired:
		t.Fatal("second X granted while first held")
	case <-time.After(50 * time.Millisecond):
	}
	m.ReleaseAll(1)
	select {
	case err := <-acquired:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter not woken")
	}
	if mode, ok := m.Holds(2, 10); !ok || mode != Exclusive {
		t.Fatal("lock not transferred")
	}
}

func TestReentrantAndUpgrade(t *testing.T) {
	m := NewManager(time.Second)
	if err := m.Lock(1, 10, Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(1, 10, Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(1, 10, Exclusive); err != nil {
		t.Fatal(err)
	}
	if mode, _ := m.Holds(1, 10); mode != Exclusive {
		t.Fatalf("mode = %v after upgrade", mode)
	}
	// X then S keeps X.
	if err := m.Lock(1, 10, Shared); err != nil {
		t.Fatal(err)
	}
	if mode, _ := m.Holds(1, 10); mode != Exclusive {
		t.Fatal("S request downgraded an X lock")
	}
}

func TestUpgradeBlockedByReader(t *testing.T) {
	m := NewManager(100 * time.Millisecond)
	m.Lock(1, 10, Shared)
	m.Lock(2, 10, Shared)
	// 1's upgrade cannot proceed while 2 reads; with a short timeout this
	// reports deadlock.
	err := m.Lock(1, 10, Exclusive)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestDeadlockTimeout(t *testing.T) {
	m := NewManager(80 * time.Millisecond)
	m.Lock(1, 10, Exclusive)
	m.Lock(2, 20, Exclusive)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); errs[0] = m.Lock(1, 20, Exclusive) }()
	go func() { defer wg.Done(); errs[1] = m.Lock(2, 10, Exclusive) }()
	wg.Wait()
	if errs[0] == nil && errs[1] == nil {
		t.Fatal("deadlock not detected")
	}
}

// TestSharedUnderExclusive: another transaction's S request under an X lock
// waits out the timeout, the holder's own S is granted at once and keeps X,
// and after release the reader gets in.
func TestSharedUnderExclusive(t *testing.T) {
	m := NewManager(50 * time.Millisecond)
	if err := m.Lock(1, 10, Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, 10, Shared); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("S under X: err = %v, want ErrDeadlock", err)
	}
	if _, ok := m.Holds(2, 10); ok {
		t.Fatal("refused S request left a grant")
	}
	if err := m.Lock(1, 10, Shared); err != nil {
		t.Fatalf("reentrant S: %v", err)
	}
	if mode, _ := m.Holds(1, 10); mode != Exclusive {
		t.Fatalf("mode = %v after reentrant S, want X", mode)
	}
	m.ReleaseAll(1)
	if err := m.Lock(2, 10, Shared); err != nil {
		t.Fatalf("S after release: %v", err)
	}
	if mode, ok := m.Holds(2, 10); !ok || mode != Shared {
		t.Fatalf("after release 2 holds %v (%v), want S", mode, ok)
	}
}

func TestReleaseAllDropsEverything(t *testing.T) {
	m := NewManager(time.Second)
	for pid := 1; pid <= 5; pid++ {
		m.Lock(1, pageID(pid), Exclusive)
	}
	for pid := 1; pid <= 5; pid++ {
		if _, ok := m.Holds(1, pageID(pid)); !ok {
			t.Fatalf("P%d not held", pid)
		}
	}
	m.ReleaseAll(1)
	for pid := 1; pid <= 5; pid++ {
		if _, ok := m.Holds(1, pageID(pid)); ok {
			t.Fatalf("lock on P%d survives ReleaseAll", pid)
		}
	}
	for pid := 1; pid <= 5; pid++ {
		if err := m.Lock(2, pageID(pid), Exclusive); err != nil {
			t.Fatal(err)
		}
	}
}

func TestManyConcurrentDisjointLockers(t *testing.T) {
	m := NewManager(5 * time.Second)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			tid := tid(c + 1)
			for i := 0; i < 200; i++ {
				pid := pageID(c*1000 + i)
				if err := m.Lock(tid, pid, Exclusive); err != nil {
					t.Error(err)
					return
				}
			}
			m.ReleaseAll(tid)
		}()
	}
	wg.Wait()
}

func TestContendedPageSerializes(t *testing.T) {
	m := NewManager(10 * time.Second)
	counter := 0
	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := tid(c + 1)
			for i := 0; i < 50; i++ {
				if err := m.Lock(id, 99, Exclusive); err != nil {
					t.Error(err)
					return
				}
				counter++ // protected by the X lock
				m.ReleaseAll(id)
			}
		}()
	}
	wg.Wait()
	if counter != 300 {
		t.Fatalf("counter = %d, want 300 (lost updates under X lock)", counter)
	}
}

func pageID(n int) page.ID { return page.ID(n) }
func tid(n int) logrec.TID { return logrec.TID(n) }
