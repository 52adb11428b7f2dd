package wire

import (
	"time"

	"repro/internal/faultinject"
)

// faulty carries frames through a plan's message faults (faultinject.Messages).
type faulty struct {
	inner carrier
	msgs  *faultinject.Messages
}

// WithFaults wraps c's carrier with plan's message faults: dropped, duplicated
// and delayed requests, stalled or reset commits. The two clients share c's
// transactions, as WithRetry's do. A plan with no message faults returns c
// unchanged.
func WithFaults(c *Client, plan faultinject.Plan) *Client {
	msgs := faultinject.NewMessages(plan)
	if msgs == nil {
		return c
	}
	return &Client{c: faulty{inner: c.c, msgs: msgs}, connState: c.connState}
}

func (c faulty) roundTrip(f frame) ([]byte, error) { return perturb(c.msgs, c.inner, f) }

func (c faulty) epoch() uint64 { return c.inner.epoch() }

// perturb carries f through inner under the next message fault: a drop is
// never delivered, a delay or stall holds the request first, a duplicate is
// delivered twice when the op table says doing it again is harmless, and a
// reset delivers the request and loses its reply. A batch is one message: it
// stalls or resets as a commit when a commit ends it, and is duplicated only
// if every member may be. It is the one message-fault path, a client's
// (WithFaults) and a daemon's (serveConn).
func perturb(msgs *faultinject.Messages, inner carrier, f frame) ([]byte, error) {
	last, row := asOne(f)
	m := msgs.Next(last.op == opCommit)
	if m.Drop != nil {
		return nil, m.Drop
	}
	time.Sleep(m.Delay)
	if m.Dup && row.dup {
		_, _ = inner.roundTrip(f) // the caller sees the second delivery's reply
	}
	out, err := inner.roundTrip(f)
	if m.Reset != nil {
		return nil, m.Reset
	}
	return out, err
}
