// Sharded buffer pool: the server-side concurrent variant of Pool.
//
// The plain Pool is single-threaded by design (the client owns one). The
// server used to wrap a Pool in its one global mutex; Sharded instead splits
// the frame budget across independently locked shards keyed by page ID, so
// sessions touching different pages latch different shards and proceed in
// parallel. Isolation between transactions is still the lock manager's job —
// a shard latch only protects pool metadata and frame contents during a
// single read/modify step, like a page latch in ARIES.
package buffer

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/page"
)

// DefaultShards is the server pool's shard count.
const DefaultShards = 16

// PoolShard is one latch-protected slice of a Sharded pool. Server code
// locks the shard (via Sharded.Lock) and then uses the embedded Pool
// directly; every Pool method call requires the shard latch to be held.
type PoolShard struct {
	sync.Mutex
	*Pool
	scratch []byte
}

// Scratch returns the shard's page-sized I/O buffer: a page read from disk
// lands here before it is inserted. Only the latch holder may use it, and
// only until it releases the latch.
func (sh *PoolShard) Scratch() []byte { return sh.scratch }

// Sharded is a concurrency-safe buffer pool made of independently locked
// shards. A page lives in exactly one shard (pid mod shard count), so LRU
// and the full/eviction decision are per shard: a hot shard evicts while a
// cold one has room. That is the standard trade for removing the global
// latch, and with page IDs allocated sequentially the spread is even.
type Sharded struct {
	shards     []*PoolShard
	contention atomic.Int64 // Lock calls that found the shard latch held
}

// NewSharded creates a sharded pool with room for capacity pages in total,
// split as evenly as possible across nshards shards (clamped so every shard
// gets at least one frame).
func NewSharded(capacity, nshards int) *Sharded {
	if capacity < 1 || nshards < 1 {
		panic("buffer: capacity and shard count must be positive")
	}
	if nshards > capacity {
		nshards = capacity
	}
	s := &Sharded{shards: make([]*PoolShard, nshards)}
	base, extra := capacity/nshards, capacity%nshards
	for i := range s.shards {
		c := base
		if i < extra {
			c++
		}
		s.shards[i] = &PoolShard{Pool: NewPool(c), scratch: make([]byte, page.Size)}
	}
	return s
}

func (s *Sharded) shardFor(pid page.ID) *PoolShard {
	return s.shards[uint64(pid)%uint64(len(s.shards))]
}

// Lock latches the shard owning pid and returns it; the caller must Unlock
// it. Contention (the latch already held) is counted for observability.
func (s *Sharded) Lock(pid page.ID) *PoolShard {
	sh := s.shardFor(pid)
	if !sh.TryLock() {
		s.contention.Add(1)
		sh.Lock()
	}
	return sh
}

// Contention returns how many Lock calls found their shard latch held.
func (s *Sharded) Contention() int64 { return s.contention.Load() }

// Shard returns shard i without locking it; the caller latches it. Only the
// qslint latch-order fixtures call it.
func (s *Sharded) Shard(i int) *PoolShard { return s.shards[i] }

// lockAll latches every shard in index order (the canonical multi-shard
// order, preventing latch-latch deadlock) and returns an unlock func.
//
//qslint:allow latch-order: the one sanctioned multi-shard path — every shard latched in ascending index order, only reachable from quiesced callers (DESIGN.md §S9)
func (s *Sharded) lockAll() func() {
	for _, sh := range s.shards {
		sh.Lock()
	}
	return func() {
		for _, sh := range s.shards {
			sh.Unlock()
		}
	}
}

// Hits and Misses aggregate Get statistics across shards.
func (s *Sharded) Hits() int64 {
	defer s.lockAll()()
	var n int64
	for _, sh := range s.shards {
		n += sh.Pool.Hits()
	}
	return n
}

func (s *Sharded) Misses() int64 {
	defer s.lockAll()()
	var n int64
	for _, sh := range s.shards {
		n += sh.Pool.Misses()
	}
	return n
}

// DirtyPages returns every resident dirty page id across shards in ascending
// order — the same deterministic ordering contract as Pool.DirtyPages, which
// checkpoint and crash-flush paths (and so the crash-point sweep) rely on.
func (s *Sharded) DirtyPages() []page.ID {
	defer s.lockAll()()
	var out []page.ID
	for _, sh := range s.shards {
		out = append(out, sh.Pool.DirtyPages()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Clear drops every frame in every shard (volatile memory loss at a crash).
func (s *Sharded) Clear() {
	defer s.lockAll()()
	for _, sh := range s.shards {
		sh.Pool.Clear()
	}
}
