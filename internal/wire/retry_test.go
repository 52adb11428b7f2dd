package wire

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/lock"
	"repro/internal/page"
	"repro/internal/server"
)

// scripted is a carrier that fails each frame with the scripted errors in
// order, then succeeds with a canned reply, counting delivered frames.
type scripted struct {
	errs   []error // consumed one per frame, any op
	calls  int
	ops    []byte  // op of every delivered frame
	frames []frame // every delivered frame
}

func (s *scripted) roundTrip(f frame) ([]byte, error) {
	s.calls++
	s.ops = append(s.ops, f.op)
	s.frames = append(s.frames, f)
	if len(s.errs) > 0 {
		err := s.errs[0]
		s.errs = s.errs[1:]
		return nil, err
	}
	last, _ := asOne(f) // a batch answers as its last member
	switch last.op {
	case opReserve: // a block from tid 1, stride 1
		return []byte{1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}, nil
	case opAllocPage:
		return make([]byte, 4), nil
	case opReadPage:
		return make([]byte, page.Size), nil
	case opResolveInDoubt:
		return make([]byte, 5), nil
	case opStats:
		return []byte("{}"), nil
	}
	return nil, nil
}

func (s *scripted) epoch() uint64 { return 0 }

// scriptedClient returns a client over a scripted carrier.
func scriptedClient(errs ...error) (*scripted, *Client) {
	s := &scripted{errs: errs}
	return s, newClient(s)
}

func retryPolicy(maxAttempts int, sleeps *[]time.Duration) RetryPolicy {
	return RetryPolicy{
		MaxAttempts: maxAttempts,
		BaseDelay:   2 * time.Millisecond,
		MaxDelay:    16 * time.Millisecond,
		Jitter:      0.5,
		Seed:        1,
		Sleep:       func(d time.Duration) { *sleeps = append(*sleeps, d) },
	}
}

func TestWithRetryDisabledReturnsSameService(t *testing.T) {
	_, svc := scriptedClient()
	if WithRetry(svc, RetryPolicy{}) != svc {
		t.Fatal("zero policy must not wrap")
	}
	if WithRetry(svc, RetryPolicy{MaxAttempts: 1}) != svc {
		t.Fatal("single-attempt policy must not wrap")
	}
}

func TestRetryRecoversFromTransientErrors(t *testing.T) {
	var sleeps []time.Duration
	svc, c := scriptedClient(io.EOF, io.ErrUnexpectedEOF)
	r := WithRetry(c, retryPolicy(5, &sleeps))
	if err := r.Lock(1, 1, lock.Shared); err != nil {
		t.Fatalf("lock after two transient failures: %v", err)
	}
	if svc.calls != 3 {
		t.Fatalf("delivered %d attempts, want 3", svc.calls)
	}
	if len(sleeps) != 2 {
		t.Fatalf("%d backoff sleeps, want 2", len(sleeps))
	}
	for i, d := range sleeps {
		lo := time.Duration(float64(2*time.Millisecond<<i) * 0.5)
		hi := 2 * time.Millisecond << i
		if d < lo || d > hi {
			t.Errorf("sleep %d = %v outside jittered window [%v, %v]", i, d, lo, hi)
		}
	}
}

func TestRetryExhaustionReturnsServerUnavailable(t *testing.T) {
	var sleeps []time.Duration
	svc, c := scriptedClient(io.EOF, io.EOF, io.EOF, io.EOF)
	r := WithRetry(c, retryPolicy(3, &sleeps))
	err := r.Lock(1, 1, lock.Shared)
	if !errors.Is(err, ErrServerUnavailable) {
		t.Fatalf("err = %v, want ErrServerUnavailable", err)
	}
	if svc.calls != 3 {
		t.Fatalf("delivered %d attempts, want exactly MaxAttempts", svc.calls)
	}
}

func TestRetryDoesNotRetryApplicationErrors(t *testing.T) {
	for _, appErr := range []error{lock.ErrDeadlock, server.ErrNoTxn, ErrTxnAbortedByFault} {
		var sleeps []time.Duration
		svc, c := scriptedClient(appErr)
		r := WithRetry(c, retryPolicy(5, &sleeps))
		if err := r.Lock(1, 1, lock.Shared); !errors.Is(err, appErr) {
			t.Fatalf("err = %v, want %v unchanged", err, appErr)
		}
		if svc.calls != 1 {
			t.Fatalf("%v: delivered %d attempts, want 1 (no retry)", appErr, svc.calls)
		}
	}
}

func TestCommitAmbiguousFailureIsNotResent(t *testing.T) {
	var sleeps []time.Duration
	svc, c := scriptedClient(io.EOF) // delivery state unknown
	r := WithRetry(c, retryPolicy(5, &sleeps))
	err := r.Commit(1)
	if !errors.Is(err, ErrCommitOutcomeUnknown) {
		t.Fatalf("err = %v, want ErrCommitOutcomeUnknown", err)
	}
	if svc.calls != 1 {
		t.Fatalf("ambiguously failed commit was re-sent (%d attempts)", svc.calls)
	}
}

func TestCommitResentWhenGuaranteedUndelivered(t *testing.T) {
	var sleeps []time.Duration
	svc, c := scriptedClient(faultinject.ErrNotDelivered, faultinject.ErrNotDelivered)
	r := WithRetry(c, retryPolicy(5, &sleeps))
	if err := r.Commit(1); err != nil {
		t.Fatalf("commit after two undelivered drops: %v", err)
	}
	if svc.calls != 3 {
		t.Fatalf("delivered %d attempts, want 3", svc.calls)
	}
}

// TestShipLogAmbiguousFailureSurfacesRaw: a ShipLog travels with its
// transaction's next call, and a batch holding one is re-sent only when it
// surely never arrived. An ambiguous failure reaches the call that carried
// it — here a Lock, itself safe to re-send — as the raw transport error.
func TestShipLogAmbiguousFailureSurfacesRaw(t *testing.T) {
	var sleeps []time.Duration
	svc, c := scriptedClient(io.EOF)
	r := WithRetry(c, retryPolicy(5, &sleeps))
	if err := r.ShipLog(1, []byte{1}); err != nil || svc.calls != 0 {
		t.Fatalf("ShipLog = %v after %d frames, want nil and nothing sent", err, svc.calls)
	}
	err := r.Lock(1, 1, lock.Shared)
	if !errors.Is(err, io.EOF) || errors.Is(err, ErrCommitOutcomeUnknown) || errors.Is(err, ErrServerUnavailable) {
		t.Fatalf("err = %v, want the raw transport error (a re-send would double-append)", err)
	}
	if svc.calls != 1 || svc.ops[0] != opBatch {
		t.Fatalf("ambiguously failed batch was re-sent (%d attempts: %v)", svc.calls, svc.ops)
	}
}

func TestAbortTreatsNoTxnAsDone(t *testing.T) {
	var sleeps []time.Duration
	_, c := scriptedClient(server.ErrNoTxn)
	r := WithRetry(c, retryPolicy(5, &sleeps))
	if err := r.Abort(1); err != nil {
		t.Fatalf("abort drawing ErrNoTxn must succeed (server already aborted): %v", err)
	}
}

func TestRetryBackoffDeterministic(t *testing.T) {
	run := func() []time.Duration {
		var sleeps []time.Duration
		_, c := scriptedClient(io.EOF, io.EOF, io.EOF, io.EOF)
		WithRetry(c, retryPolicy(5, &sleeps)).Lock(1, 1, lock.Shared)
		return sleeps
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("sleep counts differ between identical runs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sleep %d: %v vs %v — jitter not reproducible from the seed", i, a[i], b[i])
		}
	}
}

// TestRetryOverFlakyTransport runs the full protocol through an injected
// flaky transport: with a retry budget the client must make progress despite
// deterministic drops, because drops are guaranteed-undelivered.
func TestRetryOverFlakyTransport(t *testing.T) {
	srv := testServer(server.ModeESM)
	flaky := WithFaults(NewDirect(srv, nil, nil), faultinject.Plan{
		Name: "drops", Seed: 3, DropRate: 0.3,
	})
	var sleeps []time.Duration
	svc := WithRetry(flaky, retryPolicy(10, &sleeps))
	for i := 0; i < 5; i++ {
		exerciseService(t, svc)
	}
	if got := srv.Stats().Commits; got != 5 {
		t.Fatalf("commits = %d, want 5", got)
	}
	if len(sleeps) == 0 {
		t.Fatal("a 30%% drop rate over 5 rounds injected no retries; the test exercised nothing")
	}
}

// TestTCPClientRedialsAfterBrokenConnection: a Dial-created client whose
// socket dies must fail the in-flight call, then transparently reconnect on
// the next one — the property WithRetry relies on for fresh-socket attempts.
// The transaction ids it reserved died with the socket: the first Begin after
// the redial reserves a fresh block, and its transaction runs.
func TestTCPClientRedialsAfterBrokenConnection(t *testing.T) {
	srv := testServer(server.ModeESM)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go Serve(lis, srv)
	cli, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	tid, err := cli.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.AllocPage(tid); err != nil {
		t.Fatal(err)
	}
	tc := cli.c.(*tcpConn)
	tc.mu.Lock()
	tc.conn.Close() // kill the socket out from under the client
	tc.mu.Unlock()
	if _, err := cli.AllocPage(tid); err == nil {
		t.Fatal("call over the killed socket must fail")
	}
	tid, err = cli.Begin()
	if err != nil {
		t.Fatalf("client did not redial after the broken connection: %v", err)
	}
	if _, err := cli.AllocPage(tid); err != nil {
		t.Fatalf("the first transaction after the redial: %v", err)
	}
}
