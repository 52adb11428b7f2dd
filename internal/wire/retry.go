package wire

// Bounded retry with exponential backoff and jitter for transient transport
// faults (dropped messages, broken connections, injected network errors).
//
// Retries are applied per frame, under the op table's re-send rule for its
// op (ops.go); a batch is one frame, under the strictest rule of its members.
// Commit is special: once a commit request may have reached the
// server, a transport failure makes the outcome genuinely ambiguous — the
// server commits and aborts-on-disconnect are both possible, and a blind
// re-send that draws ErrNoTxn cannot tell them apart.
// WithRetry therefore re-sends a Commit only when the failure guarantees the
// request was never delivered (an injected pre-delivery drop); otherwise it
// surfaces ErrCommitOutcomeUnknown and the application decides whether to
// verify by re-reading.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/faultinject"
	"repro/internal/lock"
	"repro/internal/server"
)

// ErrServerUnavailable is returned once a retried operation has exhausted
// its attempt budget; errors.Is(err, ErrServerUnavailable) identifies it.
var ErrServerUnavailable = errors.New("wire: server unavailable")

// ErrCommitOutcomeUnknown is returned when a Commit failed in transit after
// the request may have been delivered: the transaction may be durably
// committed or aborted by the server's disconnect handling.
var ErrCommitOutcomeUnknown = errors.New("wire: commit outcome unknown")

// RetryPolicy bounds and shapes retries. The zero value disables retrying
// (a single attempt); any MaxAttempts > 1 enables it.
type RetryPolicy struct {
	MaxAttempts int           // total attempts per operation (including the first)
	BaseDelay   time.Duration // backoff before the second attempt (default 2ms)
	MaxDelay    time.Duration // backoff ceiling (default 250ms)
	Jitter      float64       // fraction of each delay drawn uniformly at random, in [0,1]
	Seed        int64         // jitter PRNG seed, for reproducible schedules
	// Sleep is replaceable for tests; nil means time.Sleep.
	Sleep func(time.Duration)
	// FailoverAddr, when non-empty, names the hot standby: the first time an
	// operation exhausts its attempt budget on connection-class failures (or
	// a Commit turns ambiguous), the client is redirected there — the standby
	// is presumed promoted once the primary stops answering — and the
	// operation gets one more full attempt budget. Requires a client from
	// Dial; ignored otherwise.
	FailoverAddr string
}

// retrier carries frames with RetryPolicy semantics, each op under its
// re-send rule from the op table. One client issues one request at a time
// (the page-server protocol), so it is unsynchronized.
type retrier struct {
	inner carrier
	pol   RetryPolicy
	rng   *faultinject.RNG // jitter: reproducible from Seed across Go versions
	// failedOver is set after the one-shot redirect to FailoverAddr.
	failedOver bool
}

// WithRetry wraps c's carrier so every operation is attempted up to
// pol.MaxAttempts times on transient transport errors, with exponential
// backoff and jitter between attempts. A pol.MaxAttempts of 0 or 1 returns
// c unchanged.
func WithRetry(c *Client, pol RetryPolicy) *Client {
	if pol.MaxAttempts <= 1 {
		return c
	}
	if pol.BaseDelay == 0 {
		pol.BaseDelay = 2 * time.Millisecond
	}
	if pol.MaxDelay == 0 {
		pol.MaxDelay = 250 * time.Millisecond
	}
	if pol.Sleep == nil {
		pol.Sleep = time.Sleep
	}
	return &Client{c: &retrier{inner: c.c, pol: pol, rng: faultinject.NewRNG(pol.Seed)}}
}

// transient reports whether err is worth retrying: transport-level failures
// only. Application-level errors (deadlock, unknown transaction, a
// server-side fault that aborted the transaction) must surface immediately.
func transient(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, lock.ErrDeadlock),
		errors.Is(err, server.ErrNoTxn),
		errors.Is(err, server.ErrInDoubt),
		errors.Is(err, ErrTxnAbortedByFault):
		return false
	case errors.Is(err, faultinject.ErrInjected):
		return true // injected drop/reset/transient error
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF), errors.Is(err, net.ErrClosed):
		return true
	}
	var nerr net.Error
	return errors.As(err, &nerr)
}

// backoff sleeps before retry attempt n (n = 1 before the second attempt).
func (c *retrier) backoff(n int) {
	d := c.pol.BaseDelay << (n - 1)
	if d > c.pol.MaxDelay || d <= 0 {
		d = c.pol.MaxDelay
	}
	if c.pol.Jitter > 0 {
		f := 1 - c.pol.Jitter*c.rng.Float()
		d = time.Duration(float64(d) * f)
	}
	c.pol.Sleep(d)
}

// roundTrip runs f under the retry loop with its re-send rule: its op's, or
// for a batch the strictest of its members'.
func (c *retrier) roundTrip(f frame) ([]byte, error) {
	_, row := asOne(f)
	rule := row.resend
	var err error
	for {
		for n := 0; n < c.pol.MaxAttempts; n++ {
			if n > 0 {
				c.backoff(n)
			}
			var out []byte
			out, err = c.inner.roundTrip(f)
			if !transient(err) {
				if rule == resendAbort && errors.Is(err, server.ErrNoTxn) {
					return nil, nil
				}
				return out, err
			}
			if (rule == resendIfUndelivered || rule == resendCommit) && !errors.Is(err, faultinject.ErrNotDelivered) {
				// The op may have reached the dead primary: never re-send it,
				// but do redirect so the caller's *next* operations (the
				// re-reads that resolve the ambiguity) reach the standby.
				c.maybeFailover()
				if rule == resendCommit {
					return nil, fmt.Errorf("%w: %v", ErrCommitOutcomeUnknown, err)
				}
				return nil, err
			}
		}
		if !c.maybeFailover() {
			return nil, fmt.Errorf("%w: %d attempts, last error: %v", ErrServerUnavailable, c.pol.MaxAttempts, err)
		}
	}
}

// maybeFailover performs the one-shot redirect to FailoverAddr, reporting
// whether it did (and the caller gets another attempt budget).
func (c *retrier) maybeFailover() bool {
	t, ok := c.inner.(*tcpConn)
	if c.failedOver || c.pol.FailoverAddr == "" || !ok {
		return false
	}
	c.failedOver = true
	t.redirect(c.pol.FailoverAddr)
	return true
}
