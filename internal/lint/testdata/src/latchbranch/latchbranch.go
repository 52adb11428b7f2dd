// fixture-path: repro/qslintfixtures/latchbranch
//
// A latch taken on one branch is held after it: an if without else, a
// switch case and a select clause each take attMu on one path only, and the
// shard latch that follows inverts the §S9 order on that path. A latch a
// successful TryLock takes and its own branch releases is not held after.
package latchbranch

import (
	"sync"

	"repro/internal/buffer"
	"repro/internal/page"
)

type node struct {
	attMu sync.Mutex
	pool  *buffer.Sharded
	ready chan struct{}
}

func (n *node) ifArm(c bool, pid page.ID) {
	if c {
		n.attMu.Lock()
	}
	sh := n.pool.Lock(pid) // want "inverts"
	sh.Unlock()
	if c {
		n.attMu.Unlock()
	}
}

func (n *node) switchCase(k int, pid page.ID) {
	switch k {
	case 1:
		n.attMu.Lock()
	case 2:
	}
	sh := n.pool.Lock(pid) // want "inverts"
	sh.Unlock()
	if k == 1 {
		n.attMu.Unlock()
	}
}

func (n *node) selectClause(pid page.ID) {
	locked := false
	select {
	case <-n.ready:
		n.attMu.Lock()
		locked = true
	default:
	}
	sh := n.pool.Lock(pid) // want "inverts"
	sh.Unlock()
	if locked {
		n.attMu.Unlock()
	}
}

// tryThenShard holds attMu only inside the successful branch. Clean.
func (n *node) tryThenShard(pid page.ID) {
	if n.attMu.TryLock() {
		n.attMu.Unlock()
	}
	sh := n.pool.Lock(pid)
	sh.Unlock()
}
