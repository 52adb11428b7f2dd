// Package faultinject provides a deterministic, seed-driven fault-injection
// substrate for crash-consistency testing. A Plan names faults for the two
// places where state leaves a process. Its disk half — transient I/O errors,
// torn page writes, write reordering, silent bit rot — is applied by the Store
// and Blobs wrappers. Its message half — dropped, duplicated and delayed
// requests, stalled commits, connection resets mid-commit — is the Messages
// schedule, which this package only draws: the wire package's fault carrier
// (a client's wire.WithFaults, a daemon's serve loop) and repl.WrapFetch
// apply it to frames.
//
// Every decision is drawn from a seeded PRNG keyed only by the operation
// sequence, so a given (plan, seed) pair produces the identical fault
// schedule on every run: a failure reproduces from the printed seed alone.
//
// The package also provides the Fuse, the counting injector behind the
// crash-point sweep (internal/harness): every stable-storage event (WAL
// flush, data-page install) increments a shared counter, and once the
// configured limit is reached all further events are swallowed, freezing
// stable storage exactly as a crash at that instant would.
package faultinject

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// ErrInjected is the base class of every injected fault; errors.Is(err,
// ErrInjected) identifies a failure as synthetic. Injected faults are
// transient by construction: retrying the operation (with a different
// sequence number) may succeed.
var ErrInjected = errors.New("faultinject: injected fault")

// ErrNotDelivered marks an injected transport fault where the request is
// guaranteed never to have reached the server (a pre-delivery drop). Retry
// layers may re-send even non-idempotent operations on this error; any other
// transport failure leaves delivery ambiguous.
var ErrNotDelivered = fmt.Errorf("%w: request not delivered", ErrInjected)

// ErrReplyLost marks an injected transport fault where the request was
// delivered and served but its reply never arrived (a connection reset
// mid-commit): the caller cannot know the outcome.
var ErrReplyLost = fmt.Errorf("%w: reply lost", ErrInjected)

// injected builds a classified injected error.
func injected(kind string, seq uint64) error {
	return fmt.Errorf("%w: %s (op %d)", ErrInjected, kind, seq)
}

// RNG is a splitmix64 generator: tiny, fast, and stable across Go versions
// (math/rand's stream is not guaranteed between releases, and reproducibility
// from a printed seed is the whole point of this package). It is the one
// seeded generator of the tree's fault and backoff schedules.
type RNG struct{ state uint64 }

// NewRNG returns a generator whose stream is a pure function of seed.
func NewRNG(seed int64) *RNG { return &RNG{state: uint64(seed)*0x9e3779b97f4a7c15 + 1} }

func (r *RNG) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float returns a uniform float64 in [0, 1).
func (r *RNG) Float() float64 { return float64(r.next()>>11) / (1 << 53) }

// Intn returns a uniform int in [0, n).
func (r *RNG) Intn(n int) int { return int(r.next() % uint64(n)) }

// Plan describes a fault schedule. The zero value injects nothing. Rates are
// probabilities in [0, 1] evaluated per operation against the seeded PRNG.
type Plan struct {
	Name string
	Seed int64

	// Disk faults (Store wrapper).
	ReadErrorRate  float64 // ReadPage fails with a transient error
	WriteErrorRate float64 // WritePage fails with a transient error
	TornWriteRate  float64 // WritePage persists only a sector-aligned prefix, then fails
	ReorderWindow  int     // buffer up to N writes and apply them in shuffled order
	// BitFlipRate injects silent single-bit rot: a stored blob (Blobs
	// wrapper) or data page (Store wrapper) gets one bit flipped while the
	// write reports success — the caller cannot tell anything went wrong
	// until a later read checks an integrity envelope.
	BitFlipRate float64

	// Message faults (the Messages schedule).
	DropRate      float64       // request is never delivered; caller sees a transport error
	DupRate       float64       // request is delivered twice, if re-doing it is harmless
	DelayRate     float64       // request is delayed by up to MaxDelay
	MaxDelay      time.Duration // bound for injected delays (default 5 ms)
	ResetOnCommit float64       // Commit is delivered, but the response is lost (connection reset)
	StallCommit   time.Duration // every Commit stalls this long before delivery (stalled-peer tests)
}

// Message is the fault drawn for one message.
type Message struct {
	Drop  error         // non-nil: the request is never delivered (wraps ErrNotDelivered)
	Delay time.Duration // hold the request this long before delivering it
	Dup   bool          // deliver the request twice, if re-doing it is harmless
	Reset error         // non-nil: deliver the request, then lose its reply (wraps ErrReplyLost)
}

// Messages is the message half of a Plan: a deterministic stream of
// per-message faults, safe for concurrent use.
type Messages struct {
	mu   sync.Mutex
	plan Plan
	rng  *RNG
	seq  uint64
}

// NewMessages starts plan's message schedule, or returns nil when the plan
// has no message faults.
func NewMessages(plan Plan) *Messages {
	if plan.DropRate == 0 && plan.DupRate == 0 && plan.DelayRate == 0 && plan.ResetOnCommit == 0 && plan.StallCommit == 0 {
		return nil
	}
	if plan.MaxDelay == 0 {
		plan.MaxDelay = 5 * time.Millisecond
	}
	return &Messages{plan: plan, rng: NewRNG(plan.Seed)}
}

// Next draws the next message's fault. Only a commit stalls or loses its
// reply.
func (m *Messages) Next(commit bool) Message {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++
	p := &m.plan
	var msg Message
	if p.DropRate > 0 && m.rng.Float() < p.DropRate {
		msg.Drop = fmt.Errorf("%w (op %d)", ErrNotDelivered, m.seq)
		return msg
	}
	if p.DelayRate > 0 && m.rng.Float() < p.DelayRate {
		msg.Delay = time.Duration(m.rng.Float() * float64(p.MaxDelay))
	}
	msg.Dup = p.DupRate > 0 && m.rng.Float() < p.DupRate
	if commit {
		msg.Delay += p.StallCommit
		if p.ResetOnCommit > 0 && m.rng.Float() < p.ResetOnCommit {
			msg.Reset = fmt.Errorf("%w: connection reset during commit (op %d)", ErrReplyLost, m.seq)
		}
	}
	return msg
}

// Plans returns the built-in named plans usable from qsctl ("qsctl faults
// arm <name>") and tests. Names are stable.
func Plans() map[string]Plan {
	return map[string]Plan{
		"eio":       {Name: "eio", ReadErrorRate: 0.05, WriteErrorRate: 0.05},
		"torn":      {Name: "torn", TornWriteRate: 0.10},
		"reorder":   {Name: "reorder", ReorderWindow: 8},
		"bitrot":    {Name: "bitrot", BitFlipRate: 0.25},
		"pagerot":   {Name: "pagerot", BitFlipRate: 0.10},
		"flaky-net": {Name: "flaky-net", DropRate: 0.05, DupRate: 0.02, DelayRate: 0.10, MaxDelay: 2 * time.Millisecond},
		"chaos": {Name: "chaos", ReadErrorRate: 0.02, WriteErrorRate: 0.02, TornWriteRate: 0.02,
			DropRate: 0.02, DupRate: 0.01, DelayRate: 0.05, ResetOnCommit: 0.05},
	}
}

// PlanNames returns the built-in plan names, sorted.
func PlanNames() []string {
	var names []string
	for n := range Plans() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// --- crash-point fuse -------------------------------------------------------

// Fuse counts stable-storage events and, once armed with a limit, swallows
// every event past it. Events are numbered from 1; with limit L, events 1..L
// take effect and L+1 onward are dropped, so stable storage afterwards holds
// exactly the state a crash immediately after event L would have left.
//
// A limit below zero means count-only (nothing is ever swallowed) — the
// enumeration pass of the crash-point sweep.
type Fuse struct {
	mu    sync.Mutex
	count int64
	limit int64
	blown bool
}

// NewFuse returns a fuse with the given limit (<0 = count only).
func NewFuse(limit int64) *Fuse { return &Fuse{limit: limit} }

// Event records one stable-storage event and reports whether it may take
// effect.
func (f *Fuse) Event() (n int64, allowed bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.count++
	if f.limit >= 0 && f.count > f.limit {
		f.blown = true
		return f.count, false
	}
	return f.count, true
}

// Count returns the number of events seen so far.
func (f *Fuse) Count() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.count
}

// Blown reports whether any event has been swallowed.
func (f *Fuse) Blown() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.blown
}

// Trip freezes the fuse at the current count: every later event is
// swallowed. The group-commit sweep trips the fuse after a deterministic
// setup phase so concurrent committers run against stable storage frozen at
// a known instant.
func (f *Fuse) Trip() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.limit = f.count
}

// Disarm stops the fuse from swallowing further events (recovery runs with
// stable storage writable again).
func (f *Fuse) Disarm() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.limit = -1
}
