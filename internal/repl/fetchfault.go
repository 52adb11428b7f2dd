package repl

import (
	"fmt"
	"time"

	"repro/internal/faultinject"
)

// WrapFetch perturbs a FetchFunc with plan's message schedule
// (faultinject.Messages): dropped fetches (the caller sees ErrNotDelivered and
// retries with backoff) and delivery delays. Duplication is meaningless for an
// idempotent pull — a re-sent fetch returns the same batch — so it is not
// applied.
func WrapFetch(fetch FetchFunc, plan faultinject.Plan) FetchFunc {
	msgs := faultinject.NewMessages(plan)
	if msgs == nil {
		return fetch
	}
	return func(from, applied uint64) (Batch, error) {
		m := msgs.Next(false)
		if m.Drop != nil {
			return Batch{}, fmt.Errorf("fetch from %d: %w", from, m.Drop)
		}
		time.Sleep(m.Delay)
		return fetch(from, applied)
	}
}
