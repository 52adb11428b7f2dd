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

// pollInterval is the idle delay between fetches when the primary has
// nothing new.
const pollInterval = 2 * time.Millisecond

// backoff and maxBackoff bound the reconnect delay after a fetch error: it
// starts at backoff and doubles per consecutive failure up to maxBackoff.
const (
	backoff    = 5 * time.Millisecond
	maxBackoff = 500 * time.Millisecond
)

// Standby is the applying side of replication: a loop pulling batches from a
// FetchFunc, replaying each record through the server's ApplyShipped, and
// forcing the local log per batch before advancing the applied watermark —
// so the ack it reports covers only locally-durable records, which is what
// lets Promote discard nothing acknowledged.
//
// Run owns the single applier goroutine ApplyShipped's contract requires.
// Read-only sessions on the standby server run concurrently under the
// normal gate; their snapshot is prefix-consistent at AppliedLSN page-wise
// (see DESIGN.md §14 for the precise guarantee).
type Standby struct {
	log   *wal.Log
	sn    *server.Session
	fetch FetchFunc

	applied      atomic.Uint64 // applied and locally forced (the ack)
	remoteStable atomic.Uint64 // primary's stable end at last contact
	batches      atomic.Int64
	records      atomic.Int64
	reconnects   atomic.Int64

	mu      sync.Mutex
	stop    chan struct{}
	done    chan struct{}
	stopped bool
	started atomic.Bool
}

// NewStandby returns a standby applying fetched records through sn (a
// session on a server built with Config.Standby). log must be the same log
// that server appends to — the archiver-style explicit handle.
func NewStandby(log *wal.Log, sn *server.Session, fetch FetchFunc) *Standby {
	s := &Standby{
		log:   log,
		sn:    sn,
		fetch: fetch,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	s.applied.Store(log.StableEnd())
	return s
}

// ReplayLocal replays every record already in the local log through
// ApplyShipped — the cold-bootstrap step after archive.Bootstrap restored
// the log. ApplyShipped recognizes the records as present (no re-append)
// and applies their table and page effects; pageLSN-conditional redo makes
// this idempotent over the possibly-newer fuzzy backup image. Call before
// Run.
func (s *Standby) ReplayLocal() error {
	var applyErr error
	n := 0
	_, err := s.log.ScanFrom(s.log.Head(), func(r *logrec.Record) bool {
		if applyErr = s.sn.ApplyShipped(r); applyErr != nil {
			return false
		}
		n++
		return true
	})
	if err == nil {
		err = applyErr
	}
	if err != nil {
		return fmt.Errorf("repl: bootstrap replay: %w", err)
	}
	s.records.Add(int64(n))
	s.applied.Store(s.log.StableEnd())
	return nil
}

// Run pulls and applies until Stop (nil) or a terminal error: ErrGap (the
// primary reclaimed our cursor — re-bootstrap from the archive) or an apply
// failure (the replica diverged; refusing to continue is the only safe
// move). Transient fetch errors reconnect with exponential backoff.
func (s *Standby) Run() error {
	s.started.Store(true)
	defer close(s.done)
	cursor := s.log.End()
	delay := backoff
	for {
		select {
		case <-s.stop:
			return nil
		default:
		}
		b, err := s.fetch(cursor, s.applied.Load())
		if err != nil {
			if errors.Is(err, ErrGap) {
				return err
			}
			s.reconnects.Add(1)
			if !s.sleep(delay) {
				return nil
			}
			if delay *= 2; delay > maxBackoff {
				delay = maxBackoff
			}
			continue
		}
		delay = backoff
		s.remoteStable.Store(b.StableEnd)
		if len(b.Records) == 0 {
			if !s.sleep(pollInterval) {
				return nil
			}
			continue
		}
		recs, err := logrec.DecodeAll(b.Records)
		if err != nil {
			return fmt.Errorf("repl: corrupt batch at %d: %w", cursor, err)
		}
		for _, r := range recs {
			if err := s.sn.ApplyShipped(r); err != nil {
				return fmt.Errorf("repl: apply at %d: %w", r.LSN, err)
			}
		}
		// Batch-wise force before acking: the watermark must only ever
		// cover records that survive a standby crash.
		s.log.Force()
		s.batches.Add(1)
		s.records.Add(int64(len(recs)))
		cursor = b.Next
		s.applied.Store(cursor)
	}
}

// sleep waits d or until Stop, reporting false on stop.
func (s *Standby) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-s.stop:
		return false
	case <-t.C:
		return true
	}
}

// Stop ends the apply loop and waits for it to drain any in-flight batch.
// Idempotent, and safe whether or not Run was ever started.
func (s *Standby) Stop() {
	s.mu.Lock()
	if !s.stopped {
		s.stopped = true
		close(s.stop)
	}
	s.mu.Unlock()
	if s.started.Load() {
		<-s.done
	}
}

// Promote quiesces the applier, then runs crash-consistent failover on the
// standby server (server.Session.Promote: Crash + the scheme's normal
// Restart). On return the server is a writable primary whose state is
// byte-equivalent to a single-node restart at the last locally-forced LSN;
// anything unacked beyond it is rolled back exactly as a crashed primary
// would roll it back.
func (s *Standby) Promote() error {
	s.Stop()
	return s.sn.Promote()
}

// StandbyStatus is the applying-side observability snapshot.
type StandbyStatus struct {
	AppliedLSN   uint64 `json:"applied_lsn"`
	RemoteStable uint64 `json:"remote_stable_lsn"`
	LagBytes     uint64 `json:"lag_bytes"` // primary stable bytes not yet applied here
	Batches      int64  `json:"batches"`
	Records      int64  `json:"records"`
	Reconnects   int64  `json:"reconnects"`
}

// Status returns a snapshot of apply progress and lag.
func (s *Standby) Status() StandbyStatus {
	st := StandbyStatus{
		AppliedLSN:   s.applied.Load(),
		RemoteStable: s.remoteStable.Load(),
		Batches:      s.batches.Load(),
		Records:      s.records.Load(),
		Reconnects:   s.reconnects.Load(),
	}
	if st.RemoteStable > st.AppliedLSN {
		st.LagBytes = st.RemoteStable - st.AppliedLSN
	}
	return st
}
