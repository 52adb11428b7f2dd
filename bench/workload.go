package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/lock"
	"repro/internal/wire"
)

// nClients is the number of closed-loop clients every workload runs: one
// goroutine and one connection each, the next request sent only after the
// previous reply. The box has two cores; more clients would measure the
// scheduler.
const nClients = 2

// connKind selects how a section's clients reach the server.
type connKind int

const (
	overTCP    connKind = iota // client → TCPClient → loopback → serveConn: every end-to-end number
	overTraced                 // the same with a tracedService in between, spans kept
	overDirect                 // wire.NewDirect, only for wire.tcp_minus_direct_us_per_op
)

// limit bounds one timed section: a fixed number of loop iterations per
// client, so that the work — and with it every count, the log written and the
// memory touched — is the same on both sides of a comparison whatever their
// speed. duration is a safety cap for a machine far slower than the reference
// box; a section that hits it has done less than its work and says so.
type limit struct {
	ops      int // loop iterations per client
	duration time.Duration
}

// sized returns the limit for a section meant to take about d on the
// reference box: rate iterations per second per client, capped at 3d + 10 s.
func sized(rate float64, d time.Duration) limit {
	ops := int(rate*d.Seconds() + 0.5)
	if ops < 1 {
		ops = 1
	}
	return limit{ops: ops, duration: 3*d + 10*time.Second}
}

// opSample is one completed op.
type opSample struct {
	client int
	kind   int      // scheme index (oo7-update) or server mode index (crash-restart), else 0
	ns     int64    // begin → commit ack, or Crash → first commit ack
	part   [3]int64 // oo7-update: T2A, T2B, T2C ns; crash-restart: restart ns, first-commit ns
}

// section is what one timed section measured.
type section struct {
	wall      time.Duration
	ops       []opSample
	attempted int
	failed    int
	// lockTimeouts counts failed ops whose error was a lock wait that ran
	// into lock.DefaultTimeout.
	lockTimeouts int
	appBytes     int64 // bytes the application passed to Tx.Write
	delta        counts
	recs         []*recorder // nil unless overTraced
	// extra holds layer metrics only this workload can measure (restart.*).
	extra map[string]metric
}

// workload is what the runner drives. Everything a user of the system would
// wait for before the first timed op — open and connect — is set-up.
type workload interface {
	// open creates the volumes under dir, builds the database and starts
	// the servers.
	open(dir string) error
	// connect dials fresh clients of the given kind and warms them up.
	connect(kind connKind, epoch time.Time) error
	// rate is the number of run-loop iterations per second per client this
	// workload sustained on the reference box (2 cores) when the benchmark
	// was defined. It only sizes the fixed work of a section from -seconds.
	rate() float64
	// run executes the timed section on nClients goroutines.
	run(lim limit) (*section, error)
	// disconnect closes the clients connect dialled.
	disconnect()
	// verify checks the committed state from fresh clients and returns the
	// number of checks made and failed.
	verify() (checks, failed int, err error)
	// close stops the servers.
	close() error
	// stacks exposes the live servers (the probes sample their pages and
	// log); snapshot reads the counters of servers and clients.
	stacks() []*stack
	snapshot() counts
}

// newWorkload returns the named workload generating from seed.
func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "small-commit":
		return &smallCommit{seed: seed}, nil
	case "oo7-update":
		return &oo7Workload{seed: seed, update: true}, nil
	case "oo7-read":
		return &oo7Workload{seed: seed}, nil
	case "crash-restart":
		return &crashRestart{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

var workloadNames = []string{"small-commit", "oo7-update", "oo7-read", "crash-restart"}

// dialKind connects one client of the given kind to st. rec is the recorder a
// traced client writes to; an untraced one passes nil.
func dialKind(st *stack, kind connKind, cfg client.Config, rec *recorder) (*benchClient, error) {
	if kind == overDirect {
		return &benchClient{Client: client.New(cfg, wire.NewDirect(st.srv, nil, nil))}, nil
	}
	return st.dial(cfg, rec)
}

// recorderFor returns a new recorder for a traced client, nil for any other.
func recorderFor(kind connKind, epoch time.Time) *recorder {
	if kind != overTraced {
		return nil
	}
	return newRecorder(epoch)
}

// runClients runs body once per client on its own goroutine and measures the
// wall time until all have returned. It returns every client's error; a
// client that finished cleanly has none.
func runClients(body func(c int) error) (time.Duration, []error) {
	var wg sync.WaitGroup
	errs := make([]error, nClients)
	start := time.Now()
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = body(c)
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var failed []error
	for _, err := range errs {
		if err != nil {
			failed = append(failed, err)
		}
	}
	return wall, failed
}

// firstOf returns the first error of errs, or nil.
func firstOf(errs []error) error {
	if len(errs) == 0 {
		return nil
	}
	return errs[0]
}

// fail records one failed op in sec.
func (sec *section) fail(err error) {
	sec.failed++
	if errors.Is(err, lock.ErrDeadlock) {
		sec.lockTimeouts++
	}
}

// loop calls op lim.ops times, stopping early at the safety cap or when op
// returns false (an error it has already recorded).
func (lim limit) loop(op func(i int) bool) {
	start := time.Now()
	for i := 0; i < lim.ops; i++ {
		if time.Since(start) >= lim.duration {
			fmt.Printf("# section cut short after %d of %d iterations: the %v safety cap was reached\n", i, lim.ops, lim.duration)
			return
		}
		if !op(i) {
			return
		}
	}
}
