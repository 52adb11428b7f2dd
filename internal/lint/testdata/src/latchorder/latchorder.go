// fixture-path: repro/qslintfixtures/latchorder
//
// Every latch-order message at its line — both §S9 inversion directions, the
// outer checkpoint mutex, re-acquired leaf and gate, nested and
// loop-carried shard latches, and the three footprint checks — followed by
// the idioms that must stay silent: both TryLock forms, the enter() gate
// pair in its deferred and bound shapes, a goroutine spawned under a held
// latch, and a doc-level allow.
package latchorder

import (
	"sync"

	"repro/internal/buffer"
	"repro/internal/page"
)

type node struct {
	ckptMu sync.Mutex
	gate   sync.RWMutex
	attMu  sync.Mutex
	dptMu  sync.Mutex
	pool   *buffer.Sharded
}

func (n *node) enter() func() {
	n.gate.RLock()
	return n.gate.RUnlock
}

// --- every message ----------------------------------------------------------

func (n *node) leafThenShard(pid page.ID) {
	n.attMu.Lock()
	sh := n.pool.Lock(pid) // want "inverts"
	sh.Unlock()
	n.attMu.Unlock()
}

func (n *node) shardThenGate(pid page.ID) {
	sh := n.pool.Lock(pid)
	n.gate.RLock() // want "inverts"
	n.gate.RUnlock()
	sh.Unlock()
}

func (n *node) gateThenCheckpointMu() {
	defer n.enter()()
	n.ckptMu.Lock() // want "inverts"
	n.ckptMu.Unlock()
}

func (n *node) leafTwice() {
	n.attMu.Lock()
	n.attMu.Lock() // want "n.attMu already held"
	n.attMu.Unlock()
}

func (n *node) gateTwice() {
	n.gate.RLock()
	n.gate.RLock() // want "n.gate already held"
	n.gate.RUnlock()
	n.gate.RUnlock()
}

func (n *node) gateTwiceViaEnter() {
	n.gate.RLock()
	exit := n.enter() // want "session gate acquired while already holding it"
	exit()
	n.gate.RUnlock()
}

func (n *node) twoShards(a, b page.ID) {
	sh := n.pool.Lock(a)
	sh2 := n.pool.Lock(b) // want "second shard latch"
	sh2.Unlock()
	sh.Unlock()
}

// loopCarried never releases: the next pass latches a second shard.
func (n *node) loopCarried(pids []page.ID) {
	for _, pid := range pids {
		sh := n.pool.Lock(pid) // want "shard latch"
		_ = sh
	}
}

// lockShard and gated are clean on their own; their footprints are what the
// callers below are judged by.
func (n *node) lockShard(pid page.ID) {
	sh := n.pool.Lock(pid)
	sh.Unlock()
}

func (n *node) gated() {
	defer n.enter()()
}

func (n *node) callShardUnderShard(pid page.ID) {
	sh := n.pool.Lock(pid)
	n.lockShard(pid) // want "call to lockShard, which acquires a shard latch"
	sh.Unlock()
}

func (n *node) callGateUnderGate() {
	defer n.enter()()
	n.gated() // want "call to gated, which acquires the session gate"
}

func (n *node) callGateUnderLeaf() {
	n.dptMu.Lock()
	n.gated() // want "call to gated, which acquires a session gate, .*inverts"
	n.dptMu.Unlock()
}

// --- silent -----------------------------------------------------------------

// tryOrWait is buffer.Sharded.Lock's contention idiom: the failure branch
// runs unlatched, and both arms fall through latched.
func (n *node) tryOrWait(i int) {
	sh := n.pool.Shard(i)
	if !sh.TryLock() {
		sh.Lock()
	}
	sh.Unlock()
}

// tryOrSkip is checkpointFuzzy's: a checkpoint already in flight makes this
// one redundant, and the success path goes on to enter the gate.
func (n *node) tryOrSkip() {
	if !n.ckptMu.TryLock() {
		return
	}
	defer n.ckptMu.Unlock()
	defer n.enter()()
}

// tryThenWork holds attMu only while the TryLock branch runs.
func (n *node) tryThenWork(pid page.ID) {
	if n.attMu.TryLock() {
		n.attMu.Unlock()
	}
	sh := n.pool.Lock(pid)
	sh.Unlock()
}

// fullOrder walks the whole legal chain under a deferred gate.
func (n *node) fullOrder(pid page.ID) {
	defer n.enter()()
	sh := n.pool.Lock(pid)
	n.attMu.Lock()
	n.attMu.Unlock()
	sh.Unlock()
}

// exitReleases proves the bound releaser drops the gate: gated would
// otherwise re-acquire it.
func (n *node) exitReleases(pid page.ID) {
	exit := n.enter()
	sh := n.pool.Lock(pid)
	sh.Unlock()
	exit()
	n.gated()
}

// spawnUnderLatch starts a goroutine while holding attMu: the spawned body
// runs under its own, empty, latch state.
func (n *node) spawnUnderLatch(pid page.ID) {
	n.attMu.Lock()
	go func() {
		sh := n.pool.Lock(pid)
		sh.Unlock()
	}()
	n.attMu.Unlock()
}

// lockBoth latches two shards for a quiesced caller, the fixture twin of
// buffer.lockAll.
//
//qslint:allow latch-order: fixture twin of buffer.lockAll — two shards in index order, only for quiesced callers
func (n *node) lockBoth(a, b page.ID) {
	sh := n.pool.Lock(a)
	sh2 := n.pool.Lock(b)
	sh2.Unlock()
	sh.Unlock()
}

// callVouched calls the allowed function under a shard latch: its
// footprint is vouched for.
func (n *node) callVouched(a, b page.ID) {
	sh := n.pool.Lock(a)
	n.lockBoth(a, b)
	sh.Unlock()
}
