// fixture-path: repro/qslintfixtures/latchcallee
//
// Interprocedural latch-order violations: the offending acquisitions happen
// inside callees, so only the transitive footprint pass can see them.
package latchcallee

import (
	"sync"

	"repro/internal/buffer"
	"repro/internal/page"
)

type core struct {
	attMu sync.Mutex
	pool  *buffer.Sharded
}

// lockShard pins a page's shard briefly: clean in isolation.
func (c *core) lockShard(pid page.ID) {
	sh := c.pool.Lock(pid)
	sh.Unlock()
}

// doubleShard holds a shard latch while calling a function that latches a
// shard itself: two shard latches, reached through the call graph.
func (c *core) doubleShard(pid page.ID) {
	sh := c.pool.Lock(pid)
	c.lockShard(pid) // want "acquires a shard latch"
	sh.Unlock()
}

// leafThenShard holds a leaf mutex while calling a function that latches a
// shard: a §S9 inversion via the callee's footprint.
func (c *core) leafThenShard(pid page.ID) {
	c.attMu.Lock()
	c.lockShard(pid) // want "inverts"
	c.attMu.Unlock()
}
