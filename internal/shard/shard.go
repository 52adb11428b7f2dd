// Package shard scales QuickStore out: N independent quickstored shards —
// each with its own volume, WAL, buffer pool, and any of the five recovery
// schemes — behind a deterministic page-partitioning router. Cross-shard
// transactions are made atomic by presumed-abort two-phase commit
// (DESIGN.md §16): every participant forces a PREPARE record before voting,
// the coordinator's forced DECIDE record is the commit point, and branches
// that crash between the two restart in doubt, holding their locks until the
// router's recovery-resolution driver (Recover) asks the coordinator for the
// outcome.
//
// Partitioning is by residue class: shard i of N allocates page ids and
// transaction ids ≡ i+1 (mod N) (server.Config.ShardID/ShardCount), so
// ownership of any page or transaction is computable from the id alone —
// the shard map is a pure function, never a lookup table that could itself
// need recovering.
package shard

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/lock"
	"repro/internal/logrec"
	"repro/internal/page"
	"repro/internal/wire"
)

// Backend is one shard's transport: the ordinary client↔server surface plus
// the two-phase-commit surface. Every wire.Client satisfies it — in process,
// over TCP, or wrapped in retry.
type Backend interface {
	wire.Service
	wire.TwoPC
}

// Map is the deterministic shard map over N shards.
type Map struct {
	N int
}

// ShardOf returns the shard owning pid. Page ids start at 1 (page 0 is the
// superblock, owned by no shard); shard i allocates ids ≡ i+1 (mod N).
func (m Map) ShardOf(pid page.ID) int {
	if m.N <= 1 {
		return 0
	}
	return (int(pid) - 1 + m.N) % m.N
}

// CoordinatorOf returns the shard that issued (and therefore coordinates)
// tid. Transaction ids follow the same residue classes as page ids.
func (m Map) CoordinatorOf(tid logrec.TID) int {
	if m.N <= 1 {
		return 0
	}
	return (int(tid) - 1 + m.N) % m.N
}

// gtxn is the router's bookkeeping for one distributed transaction.
type gtxn struct {
	// joined marks the shards holding a branch of this transaction.
	joined map[int]bool
	// wrote marks the joined shards that received mutations (page allocation,
	// shipped log records or pages). Branches outside this set are read-only
	// or empty, and Commit needs no durable decision for them.
	wrote map[int]bool
	// uncertain is set when a coordinator Decide failed in transit: the
	// commit point may or may not be on record, so a later Abort must resolve
	// through the coordinator instead of aborting unilaterally.
	uncertain bool
}

// Router implements wire.Service over N shards, so client.New drives a
// sharded store through the unchanged single-server interface. Not safe for
// concurrent use by multiple transactions of one client (the client is
// single-threaded, like the paper's workstations), but internal state is
// mutex-guarded so a management goroutine may call Recover concurrently.
type Router struct {
	// mu is a leaf mutex: never held across a Backend call.
	mu         sync.Mutex
	m          Map
	svcs       []Backend
	rr         int
	allocShard int
	txns       map[logrec.TID]*gtxn
}

// NewRouter builds a router over the given shard backends (shard i at index
// i). At least one backend is required.
func NewRouter(svcs []Backend) *Router {
	if len(svcs) == 0 {
		panic("shard: NewRouter with no backends")
	}
	return &Router{
		m:          Map{N: len(svcs)},
		svcs:       svcs,
		allocShard: -1,
		txns:       make(map[logrec.TID]*gtxn),
	}
}

// Map returns the router's shard map.
func (r *Router) Map() Map { return r.m }

// SetAllocShard pins AllocPage to one shard (workload placement control for
// the harness and benchmarks); -1 restores the default, the transaction's
// coordinator shard.
func (r *Router) SetAllocShard(s int) {
	r.mu.Lock()
	r.allocShard = s
	r.mu.Unlock()
}

// lookup returns tid's bookkeeping, creating it if the router has never seen
// the id (a router restarted mid-transaction learns memberships lazily).
func (r *Router) lookup(tid logrec.TID) *gtxn {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.txns[tid]
	if g == nil {
		g = &gtxn{joined: map[int]bool{r.m.CoordinatorOf(tid): true}}
		r.txns[tid] = g
	}
	return g
}

// ensureJoined lazily adopts tid onto shard s the first time an operation
// routes there. Adopt is idempotent server-side, so a lost ack costs one
// duplicate message, nothing more.
func (r *Router) ensureJoined(tid logrec.TID, s int) error {
	g := r.lookup(tid)
	r.mu.Lock()
	joined := g.joined[s]
	r.mu.Unlock()
	if joined {
		return nil
	}
	if err := r.svcs[s].Adopt(tid); err != nil {
		return err
	}
	r.mu.Lock()
	g.joined[s] = true
	r.mu.Unlock()
	return nil
}

// participants returns tid's joined shards, sorted for deterministic message
// order (the crash sweep's replay depends on it).
func (r *Router) participants(tid logrec.TID) []int {
	g := r.lookup(tid)
	r.mu.Lock()
	out := make([]int, 0, len(g.joined))
	for s := range g.joined {
		out = append(out, s)
	}
	r.mu.Unlock()
	sort.Ints(out)
	return out
}

// markWrote records that shard s received mutations for tid.
func (r *Router) markWrote(tid logrec.TID, s int) {
	g := r.lookup(tid)
	r.mu.Lock()
	if g.wrote == nil {
		g.wrote = make(map[int]bool)
	}
	g.wrote[s] = true
	r.mu.Unlock()
}

// writers returns tid's mutated shards, sorted.
func (r *Router) writers(tid logrec.TID) []int {
	g := r.lookup(tid)
	r.mu.Lock()
	out := make([]int, 0, len(g.wrote))
	for s := range g.wrote {
		out = append(out, s)
	}
	r.mu.Unlock()
	sort.Ints(out)
	return out
}

// drop retires tid's bookkeeping once its outcome is settled.
func (r *Router) drop(tid logrec.TID) {
	r.mu.Lock()
	delete(r.txns, tid)
	r.mu.Unlock()
}

// Begin implements wire.Service: the transaction starts on the next shard in
// round-robin order, which becomes its coordinator. The returned tid's
// residue class encodes that choice, so coordination survives router loss.
func (r *Router) Begin() (logrec.TID, error) {
	r.mu.Lock()
	s := r.rr
	r.rr = (r.rr + 1) % r.m.N
	r.mu.Unlock()
	tid, err := r.svcs[s].Begin()
	if err != nil {
		return 0, err
	}
	r.mu.Lock()
	r.txns[tid] = &gtxn{joined: map[int]bool{s: true}}
	r.mu.Unlock()
	return tid, nil
}

// Lock implements wire.Service, routing by page ownership.
func (r *Router) Lock(tid logrec.TID, pid page.ID, mode lock.Mode) error {
	s := r.m.ShardOf(pid)
	if err := r.ensureJoined(tid, s); err != nil {
		return err
	}
	return r.svcs[s].Lock(tid, pid, mode)
}

// AllocPage implements wire.Service: new pages are placed on the pinned
// allocation shard, defaulting to the transaction's coordinator.
func (r *Router) AllocPage(tid logrec.TID) (page.ID, error) {
	r.mu.Lock()
	s := r.allocShard
	r.mu.Unlock()
	if s < 0 {
		s = r.m.CoordinatorOf(tid)
	}
	return r.AllocPageOn(tid, s)
}

// AllocPageOn reserves a fresh page on a specific shard — explicit placement
// for loaders that control clustering across the partition boundary.
func (r *Router) AllocPageOn(tid logrec.TID, s int) (page.ID, error) {
	if s < 0 || s >= r.m.N {
		return 0, fmt.Errorf("shard: AllocPageOn shard %d of %d", s, r.m.N)
	}
	if err := r.ensureJoined(tid, s); err != nil {
		return 0, err
	}
	r.markWrote(tid, s)
	return r.svcs[s].AllocPage(tid)
}

// ReadPage implements wire.Service, routing by page ownership.
func (r *Router) ReadPage(tid logrec.TID, pid page.ID, mode lock.Mode) ([]byte, error) {
	s := r.m.ShardOf(pid)
	if err := r.ensureJoined(tid, s); err != nil {
		return nil, err
	}
	return r.svcs[s].ReadPage(tid, pid, mode)
}

// ShipLog implements wire.Service: the batch is split by each record's page
// owner and re-encoded per shard, preserving record order within a shard.
// Shards are shipped in index order for deterministic replay.
func (r *Router) ShipLog(tid logrec.TID, data []byte) error {
	if r.m.N == 1 {
		return r.svcs[0].ShipLog(tid, data)
	}
	recs, err := logrec.DecodeAll(data)
	if err != nil {
		return fmt.Errorf("shard: splitting log batch: %w", err)
	}
	batches := make([][]byte, r.m.N)
	for _, rec := range recs {
		s := r.m.ShardOf(rec.Page)
		batches[s] = rec.Encode(batches[s])
	}
	for s, b := range batches {
		if len(b) == 0 {
			continue
		}
		if err := r.ensureJoined(tid, s); err != nil {
			return err
		}
		r.markWrote(tid, s)
		if err := r.svcs[s].ShipLog(tid, b); err != nil {
			return err
		}
	}
	return nil
}

// ShipPage implements wire.Service, routing by page ownership.
func (r *Router) ShipPage(tid logrec.TID, pid page.ID, data []byte) error {
	s := r.m.ShardOf(pid)
	if err := r.ensureJoined(tid, s); err != nil {
		return err
	}
	r.markWrote(tid, s)
	return r.svcs[s].ShipPage(tid, pid, data)
}

// Commit implements wire.Service. A transaction with writes on at most one
// shard commits in one phase — the mutated branch (or the coordinator's, if
// nothing wrote) commits exactly as on an unsharded store, and the remaining
// read-only or empty branches just release their locks; atomicity is trivial
// with a single durable participant, so the protocol overhead would buy
// nothing. A transaction with writes on two or more shards runs
// presumed-abort 2PC:
//
//	phase 1: Prepare on every participant, coordinator included, in shard
//	         order — each forces a PREPARE before voting yes.
//	phase 2: Decide(commit) on the coordinator first; its forced DECIDE is
//	         the commit point. Then Decide(commit) on the rest, then Forget.
//
// A prepare failure aborts everywhere (no decision was logged, so presumed
// abort already covers any shard the messages missed). A coordinator Decide
// that fails in transit leaves the outcome genuinely unknown —
// wire.ErrCommitOutcomeUnknown — and marks the transaction so a later Abort
// resolves through the coordinator instead of aborting unilaterally. A
// participant Decide that fails after the commit point is NOT an error: the
// transaction is committed, and the unreached branch sits in doubt (locks
// held) until Recover delivers the outcome.
func (r *Router) Commit(tid logrec.TID) error {
	coord := r.m.CoordinatorOf(tid)
	parts := r.participants(tid)
	writers := r.writers(tid)
	if len(writers) <= 1 {
		w := coord
		if len(writers) == 1 {
			w = writers[0]
		}
		err := r.svcs[w].Commit(tid)
		for _, s := range parts {
			if s != w {
				r.svcs[s].Decide(tid, false) // read-only/empty branch: release locks
			}
		}
		if err == nil {
			r.drop(tid)
		}
		return err
	}
	for _, s := range parts {
		if err := r.svcs[s].Prepare(tid, coord, parts); err != nil {
			for _, a := range parts {
				r.svcs[a].Decide(tid, false) // best effort; crash recovery presumes abort
			}
			r.drop(tid)
			return fmt.Errorf("shard: prepare on shard %d: %w", s, err)
		}
	}
	if err := r.svcs[coord].Decide(tid, true); err != nil {
		g := r.lookup(tid)
		r.mu.Lock()
		g.uncertain = true
		r.mu.Unlock()
		return fmt.Errorf("%w: coordinator shard %d decide: %v", wire.ErrCommitOutcomeUnknown, coord, err)
	}
	undelivered := false
	for _, s := range parts {
		if s == coord {
			continue
		}
		if err := r.svcs[s].Decide(tid, true); err != nil {
			undelivered = true // the branch stays in doubt; Recover finishes it
		}
	}
	if !undelivered {
		r.svcs[coord].Forget(tid) // best effort; a lost Forget is re-retired later
	}
	r.drop(tid)
	return nil
}

// Abort implements wire.Service: the abort decision is delivered to every
// joined shard (nothing is logged for it — presumed abort). A transaction
// whose commit point is uncertain is resolved through its coordinator first,
// so the router never contradicts a decision that did reach the log.
func (r *Router) Abort(tid logrec.TID) error {
	g := r.lookup(tid)
	r.mu.Lock()
	uncertain := g.uncertain
	r.mu.Unlock()
	if uncertain {
		_, err := r.resolve(tid, r.m.CoordinatorOf(tid), -1)
		if err == nil {
			r.drop(tid)
		}
		return err
	}
	parts := r.participants(tid)
	var first error
	for _, s := range parts {
		if err := r.svcs[s].Decide(tid, false); err != nil && first == nil {
			first = fmt.Errorf("shard: abort on shard %d: %w", s, err)
		}
	}
	if first == nil {
		r.drop(tid)
	}
	return first
}

// Resolved describes one in-doubt branch settled by Recover.
type Resolved struct {
	TID    logrec.TID
	Shard  int
	Commit bool
}

// Recover is the recovery-resolution driver, run after shard restarts: every
// shard's in-doubt branches are resolved against their coordinators —
// commit if the DECIDE is on record, presumed abort otherwise — and the
// outcome is delivered so locks release. Every step is idempotent, so
// Recover may be re-run after its own partial failures.
func (r *Router) Recover() ([]Resolved, error) {
	var out []Resolved
	for s := range r.svcs {
		list, err := r.svcs[s].InDoubt()
		if err != nil {
			return out, fmt.Errorf("shard: listing in-doubt on shard %d: %w", s, err)
		}
		for _, idt := range list {
			if idt.Coordinator < 0 || idt.Coordinator >= r.m.N {
				return out, fmt.Errorf("shard: in-doubt %v names coordinator %d of %d", idt.TID, idt.Coordinator, r.m.N)
			}
			commit, err := r.resolve(idt.TID, idt.Coordinator, s)
			if err != nil {
				return out, err
			}
			out = append(out, Resolved{TID: idt.TID, Shard: s, Commit: commit})
		}
	}
	return out, nil
}

// resolve settles one transaction through its coordinator and delivers the
// outcome. On commit, the decision goes to the recorded participant set
// (coordinator first) and the decided entry is then retired; on presumed
// abort, every joined shard — plus indoubtShard, the shard whose in-doubt
// listing surfaced the transaction, which a freshly restarted router does
// not yet know as joined — rolls its branch back. indoubtShard -1 means
// none.
func (r *Router) resolve(tid logrec.TID, coord, indoubtShard int) (bool, error) {
	commit, parts, err := r.svcs[coord].Resolve(tid)
	if err != nil {
		return false, fmt.Errorf("shard: resolving %v on coordinator %d: %w", tid, coord, err)
	}
	if commit {
		if err := r.svcs[coord].Decide(tid, true); err != nil {
			return true, fmt.Errorf("shard: delivering commit of %v to coordinator %d: %w", tid, coord, err)
		}
		for _, p := range parts {
			if p == coord {
				continue
			}
			if p < 0 || p >= r.m.N {
				return true, fmt.Errorf("shard: decision for %v names participant %d of %d", tid, p, r.m.N)
			}
			if err := r.svcs[p].Decide(tid, true); err != nil {
				return true, fmt.Errorf("shard: delivering commit of %v to shard %d: %w", tid, p, err)
			}
		}
		if err := r.svcs[coord].Forget(tid); err != nil {
			return true, fmt.Errorf("shard: forgetting %v on coordinator %d: %w", tid, coord, err)
		}
		return true, nil
	}
	targets := r.participants(tid)
	if indoubtShard >= 0 {
		found := false
		for _, s := range targets {
			found = found || s == indoubtShard
		}
		if !found {
			targets = append(targets, indoubtShard)
			sort.Ints(targets)
		}
	}
	for _, s := range targets {
		if err := r.svcs[s].Decide(tid, false); err != nil {
			return false, fmt.Errorf("shard: delivering abort of %v to shard %d: %w", tid, s, err)
		}
	}
	return false, nil
}

var _ wire.Service = (*Router)(nil)
