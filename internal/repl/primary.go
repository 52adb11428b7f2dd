package repl

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/logrec"
	"repro/internal/server"
	"repro/internal/wal"
)

// DefaultMaxBatchBytes bounds one fetch response's record payload.
const DefaultMaxBatchBytes = 256 << 10

// DefaultAckTimeout is how long a semi-sync commit waits for the standby
// before degrading to async.
const DefaultAckTimeout = 500 * time.Millisecond

// PrimaryOptions tunes a Primary. The zero value is async shipping.
type PrimaryOptions struct {
	Mode          AckMode
	AckTimeout    time.Duration // semi-sync wait bound (DefaultAckTimeout if 0)
	MaxBatchBytes int           // per-fetch payload cap (DefaultMaxBatchBytes if 0)
}

// Primary is the log-shipping side of replication. It serves Fetch against
// the live WAL, holds truncation behind the standby's cursor through the
// "standby" retention holder (wal.Log.Hold), and — under AckSemiSync — parks
// committing sessions until the standby's applied watermark covers their
// commit record.
type Primary struct {
	log  *wal.Log
	opts PrimaryOptions

	connected atomic.Bool   // a standby has fetched at least once (hold is registered)
	cursor    atomic.Uint64 // the standby's fetch cursor, where hold stands; written under mu
	acked     atomic.Uint64 // standby's applied-and-forced watermark

	fetches     atomic.Int64
	ackWaits    atomic.Int64
	ackTimeouts atomic.Int64

	mu   sync.Mutex  // guards hold and cond waits; acked itself is atomic
	hold *wal.Holder // the "standby" retention holder; nil until a cursor is adopted
	cond *sync.Cond
}

// NewPrimary returns a Primary shipping from log.
func NewPrimary(log *wal.Log, opts PrimaryOptions) *Primary {
	if opts.AckTimeout <= 0 {
		opts.AckTimeout = DefaultAckTimeout
	}
	if opts.MaxBatchBytes <= 0 {
		opts.MaxBatchBytes = DefaultMaxBatchBytes
	}
	p := &Primary{log: log, opts: opts}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Wire connects the primary to a server configuration: for semi-sync, the
// CommitAck hook on the commit path. Retention needs no wiring — the
// "standby" holder lives on the log the primary ships, registered when the
// first cursor is adopted (Fetch) — but cfg.Log must be that log, or the
// holder would protect a log the server never truncates. Call before
// server.New.
func (p *Primary) Wire(cfg *server.Config) {
	if cfg.Log != p.log {
		panic("repl: Wire with a different log than the primary ships")
	}
	if p.opts.Mode == AckSemiSync {
		cfg.CommitAck = p.CommitAck
	}
}

// Fetch serves one standby pull: record the ack watermark, return every
// whole stable record from the request cursor, up to maxBytes, and move the
// standby holder to that cursor. A cursor below the log head returns ErrGap.
func (p *Primary) Fetch(from, applied uint64, maxBytes int) (Batch, error) {
	p.fetches.Add(1)
	p.recordAck(applied)
	if maxBytes <= 0 || maxBytes > p.opts.MaxBatchBytes {
		maxBytes = p.opts.MaxBatchBytes
	}
	var payload []byte
	next, err := p.log.ScanFrom(from, nil, func(r *logrec.Record) bool {
		payload = r.Encode(payload)
		return len(payload) < maxBytes
	})
	if errors.Is(err, wal.ErrTruncated) {
		return Batch{}, fmt.Errorf("%w: cursor %d below log head %d", ErrGap, from, p.log.Head())
	}
	if err != nil {
		return Batch{}, err
	}
	p.adopt(from)
	return Batch{Next: next, StableEnd: p.log.StableEnd(), Records: payload}, nil
}

// adopt moves the standby holder to from, the cursor of a fetch whose scan
// just succeeded. Only then: a holder's position can become the log head,
// which must be a record boundary, and a number off the wire is not known to
// be one until the log has been read from it without a decode error. The
// steady-state scan cannot lose its race with truncation — the holder
// already stands at the previous, lower cursor — and a first fetch that does
// lose it is a standby that arrived after reclamation: ErrGap. The holder
// only moves forward; a second standby fetching from an older cursor races a
// deliberate design choice (one standby per primary) and gets ErrGap once
// truncation passes it.
func (p *Primary) adopt(from uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case p.hold == nil:
		p.hold = p.log.Hold("standby", from, nil, 0)
		p.cursor.Store(from)
		p.connected.Store(true)
	case from > p.cursor.Load():
		p.hold.Set(from)
		p.cursor.Store(from)
	}
}

// recordAck advances the applied watermark and wakes semi-sync waiters.
func (p *Primary) recordAck(applied uint64) {
	for {
		cur := p.acked.Load()
		if applied <= cur {
			return
		}
		if p.acked.CompareAndSwap(cur, applied) {
			p.mu.Lock()
			p.cond.Broadcast()
			p.mu.Unlock()
			return
		}
	}
}

// CommitAck is the server commit-path hook (server.Config.CommitAck): block
// until the standby's watermark covers endLSN or the timeout passes. Called
// after the commit record is locally stable, under gate.R, so it must not
// call back into server operations — it only waits on the watermark. Before
// a standby has connected, commits proceed async (a primary must not hang
// because its standby has not arrived yet); after a timeout the commit
// proceeds too, degraded to async and counted.
func (p *Primary) CommitAck(endLSN uint64) {
	if !p.connected.Load() || p.acked.Load() >= endLSN {
		return
	}
	p.ackWaits.Add(1)
	timedOut := false
	timer := time.AfterFunc(p.opts.AckTimeout, func() {
		p.mu.Lock()
		timedOut = true
		p.cond.Broadcast()
		p.mu.Unlock()
	})
	defer timer.Stop()
	p.mu.Lock()
	for p.acked.Load() < endLSN && !timedOut {
		p.cond.Wait()
	}
	degraded := timedOut && p.acked.Load() < endLSN
	p.mu.Unlock()
	if degraded {
		p.ackTimeouts.Add(1)
	}
}

// Detach releases the standby holder (and any semi-sync waiters) when the
// standby is decommissioned for good — e.g. after it was promoted and this
// node is being retired. Without it a departed standby would hold log
// truncation at its last cursor forever.
func (p *Primary) Detach() {
	p.mu.Lock()
	p.connected.Store(false)
	if p.hold != nil {
		p.hold.Release()
		p.hold = nil
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// PrimaryStatus is the shipping-side observability snapshot.
type PrimaryStatus struct {
	Mode        string `json:"mode"`
	Connected   bool   `json:"connected"`
	CursorLSN   uint64 `json:"cursor_lsn"`
	AckedLSN    uint64 `json:"acked_lsn"`
	StableEnd   uint64 `json:"stable_end"`
	LagBytes    uint64 `json:"lag_bytes"` // stable bytes the standby has not acked
	Fetches     int64  `json:"fetches"`
	AckWaits    int64  `json:"ack_waits"`
	AckTimeouts int64  `json:"ack_timeouts"`
}

// Status returns a snapshot of shipping progress and lag.
func (p *Primary) Status() PrimaryStatus {
	st := PrimaryStatus{
		Mode:        p.opts.Mode.String(),
		Connected:   p.connected.Load(),
		CursorLSN:   p.cursor.Load(),
		AckedLSN:    p.acked.Load(),
		StableEnd:   p.log.StableEnd(),
		Fetches:     p.fetches.Load(),
		AckWaits:    p.ackWaits.Load(),
		AckTimeouts: p.ackTimeouts.Load(),
	}
	if st.Connected && st.StableEnd > st.AckedLSN {
		st.LagBytes = st.StableEnd - st.AckedLSN
	}
	return st
}
