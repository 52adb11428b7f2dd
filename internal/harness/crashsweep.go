package harness

// The single-node kinds (DESIGN.md §2.3): crash, fuzzy and restart-crash.
// One server, both stable-storage channels on one fuse; the counting pass
// numbers every stable event, a replay freezes storage after event P.

import (
	"bytes"
	"fmt"

	"repro/internal/client"
	"repro/internal/disk"
	"repro/internal/faultinject"
	"repro/internal/page"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
)

// crashVariant tunes the server's checkpoint/cleaner configuration. The zero
// value is the sharp-checkpoint crash kind.
type crashVariant struct {
	fuzzy       bool // server.Config.FuzzyCheckpoints
	cleanEvery  int  // run a synchronous cleaner batch after every N stamps (0 = never)
	cleanBatch  int  // pages per synchronous cleaner batch
	dirtyTarget int  // server.Config.DirtyPageTarget (backpressure at 2x)
}

// fuzzyVariant is the fuzzy kind: cleaner data writes and the
// checkpoint-record → superblock window become numbered crash points, and
// the dirty-page target puts inline Clean calls inside commit brackets.
var fuzzyVariant = crashVariant{fuzzy: true, cleanEvery: 2, cleanBatch: 8, dirtyTarget: 16}

// sweepServerConfig builds the server configuration shared by the workload
// and every recovery server of a replay; they must agree or the replay would
// recover under a different regime than the crash was taken under.
func sweepServerConfig(mode server.Mode, store disk.Store, log *wal.Log, v crashVariant) server.Config {
	return server.Config{
		Mode:             mode,
		Store:            store,
		Log:              log,
		LogCapacity:      sweepLogCapacity,
		PoolPages:        sweepServerPool,
		CheckpointEvery:  sweepCkptEvery,
		FuzzyCheckpoints: v.fuzzy,
		DirtyPageTarget:  v.dirtyTarget,
		CleanerBatch:     v.cleanBatch,
	}
}

// wideEvery makes every wideEvery-th stamp of the single-node kinds a wide
// one.
const wideEvery = 8

// widen turns every wideEvery-th stamp of j into a transaction whose log
// records exceed one 8 KB log page: it stamps every part and overwrites the
// whole manual. The client then ships its records in more than one log page,
// and the server's ForceFull makes the first of them stable before the commit
// — the one way a crash point leaves a loser with STABLE update records, so
// that undo's values are checked at all (the in-flight stamp must read
// all-pre). A pairwise stamp's records and its commit record reach the log in
// one flush.
func widen(j *journal) {
	wide := func(i int) bool { return i%wideEvery == wideEvery-1 }
	j.pick = func(i int) []page.OID {
		if wide(i) {
			return j.parts
		}
		return j.pair(i)
	}
	j.pad = func(tx *client.Tx, i int) error {
		if !wide(i) {
			return nil
		}
		size, err := tx.Size(j.manual)
		if err != nil {
			return err
		}
		// Past the chunk's link to the next; every byte differs from what any
		// other wide stamp wrote, so the diffing schemes log all of it.
		return tx.Write(j.manual, page.OIDSize, bytes.Repeat([]byte{byte(i)}, size-page.OIDSize))
	}
}

// crashRun is one execution of the single-node workload.
type crashRun struct {
	fuse *faultinject.Fuse
	node *node
	j    *journal
	// lateErr is a workload error after the fuse blew (expected and benign:
	// the frozen log eventually reports itself full, etc.).
	lateErr error
}

// runCrashWorkload executes build + stamps with the fuse limited to `limit`
// stable-storage events (< 0 = count only). Workload errors after the fuse
// blows are recorded and benign; before it they are real failures.
func runCrashWorkload(sys SweepSystem, seed, limit int64, v crashVariant) (*crashRun, error) {
	fuse := faultinject.NewFuse(limit)
	n := newNode(fuse, sweepLogCapacity, func(store disk.Store, log *wal.Log) server.Config {
		return sweepServerConfig(sys.Mode, store, log, v)
	})
	run := &crashRun{fuse: fuse, node: n, j: newJournal(fuse.Count)}
	widen(run.j)
	cli := sweepClient(sys, wire.NewDirect(n.srv, nil, nil))
	err := run.j.build(cli, seed)
	if err == nil {
		// The fuzzy kind drives the page cleaner synchronously through a
		// server-side session: the background goroutine stays off
		// (CleanerEvery is never set), because a ticker-driven worker would
		// make event numbering racy while Session.Clean hits the same code
		// path deterministically.
		cleaner := n.srv.NewSession(nil, nil)
		err = run.j.stamps(cli, sweepStamps, func(i int) error {
			if v.cleanEvery == 0 || (i+1)%v.cleanEvery != 0 {
				return nil
			}
			_, err := cleaner.Clean(v.cleanBatch)
			return err
		})
	}
	switch {
	case err == nil:
	case fuse.Blown():
		run.lateErr = err
	default:
		return nil, fmt.Errorf("workload: %w", err)
	}
	return run, nil
}

// countCrashPoints runs the counting pass and returns the run and the number
// of crash points.
func countCrashPoints(sys SweepSystem, seed int64, v crashVariant) (*crashRun, int64, error) {
	run, err := runCrashWorkload(sys, seed, -1, v)
	if err != nil {
		return nil, 0, err
	}
	if run.lateErr != nil {
		return nil, 0, fmt.Errorf("counting pass errored: %w", run.lateErr)
	}
	return run, run.fuse.Count(), nil
}

func openCrash(sys SweepSystem, seed int64, v crashVariant) (*pointSpace, error) {
	_, n, err := countCrashPoints(sys, seed, v)
	if err != nil {
		return nil, err
	}
	return &pointSpace{n: n, replay: func(p int64) (string, error) {
		return replayCrash(sys, seed, p, -1, v)
	}}, nil
}

// replayCrash runs the workload to crash point p and holds recovery to the
// journal: committed stamps durable, later ones rolled back, the one
// straddling p atomic, a second recovery a no-op. With q ≥ 0 the first
// Restart itself runs on a fuse of limit q and is crashed again — recovery
// must survive dying inside recovery (errors after that fuse blew are the
// crash, not a failure).
func replayCrash(sys SweepSystem, seed, p, q int64, v crashVariant) (string, error) {
	run, err := runCrashWorkload(sys, seed, p, v)
	if err != nil {
		return "", err
	}
	if q >= 0 {
		fuse := faultinject.NewFuse(q)
		if err := fusedRestart(run.node, fuse); err != nil && !fuse.Blown() {
			return fmt.Sprintf("restart failed before its own crash point %d: %v", q, err), nil
		}
	}
	return recoverTwice([]*node{run.node}, func() string {
		if p < run.j.buildEnd {
			return "" // the build itself is not durable yet
		}
		return run.j.verify(sweepClient(sys, wire.NewDirect(run.node.srv, nil, nil)), p, true)
	})
}

// countRestart crashes at point p and runs Restart on a count-only fuse,
// returning how many stable events that recovery performs and which of them
// were log flushes.
func countRestart(sys SweepSystem, seed, p int64) (events int64, flushes []int64, err error) {
	run, err := runCrashWorkload(sys, seed, p, crashVariant{})
	if err != nil {
		return 0, nil, err
	}
	fuse := faultinject.NewFuse(-1)
	if err := fusedRestart(run.node, fuse); err != nil {
		return 0, nil, fmt.Errorf("counting restart at point %d: %w", p, err)
	}
	return fuse.Count(), run.node.flushes, nil
}

// fusedRestart crashes n and recovers it with stable storage back on a fuse:
// the re-arm that makes recovery's own stable events numbered points.
func fusedRestart(n *node, fuse *faultinject.Fuse) error {
	n.crash()
	n.arm(fuse)
	return n.restart()
}

// restartCrashPoints numbers every stable event inside every recovery: the
// recovery after crash point P contributes events[P-1] points, laid end to
// end in P order.
type restartCrashPoints struct {
	events  []int64
	flushes [][]int64 // which of each recovery's events were log flushes
	total   int64
}

// decode maps a point to (P, Q): the Q-th event of the recovery after P.
func (r *restartCrashPoints) decode(point int64) (p, q int64) {
	for i, n := range r.events {
		if point <= n {
			return int64(i + 1), point
		}
		point -= n
	}
	return 0, 0
}

// class names what a crash right after event q of the recovery after p
// interrupts. The closing checkpoint forces its record last of all forces,
// then writes the superblock and moves the log head; every page redo, undo
// or a WPL install dirtied is written before that force, and a force before
// it is undo making its CLRs stable.
func (r *restartCrashPoints) class(p, q int64) string {
	fl := r.flushes[p-1]
	last := fl[len(fl)-1]
	switch {
	case q == last:
		return "checkpoint-window" // record durable, superblock not yet pointing at it
	case q > last:
		return "checkpoint-tail"
	}
	for _, f := range fl {
		if f == q {
			return "undo-force"
		}
	}
	return "page-write"
}

func enumerateRestartCrash(sys SweepSystem, seed int64) (*restartCrashPoints, error) {
	_, n, err := countCrashPoints(sys, seed, crashVariant{})
	if err != nil {
		return nil, err
	}
	r := &restartCrashPoints{}
	for p := int64(1); p <= n; p++ {
		ev, fl, err := countRestart(sys, seed, p)
		if err != nil {
			return nil, err
		}
		r.events, r.flushes = append(r.events, ev), append(r.flushes, fl)
		r.total += ev
	}
	return r, nil
}

// openRestartCrash is the crash kind with a second crash inside the first
// recovery: redo page writes, CLR forces, WPL installs and the closing
// checkpoint's record → superblock window are its numbered points. Undo
// forces are rare — only the build leaves losers with stable records — so
// the first point of each class is always replayed.
func openRestartCrash(sys SweepSystem, seed int64) (*pointSpace, error) {
	r, err := enumerateRestartCrash(sys, seed)
	if err != nil {
		return nil, err
	}
	return r.space(sys, seed), nil
}

func (r *restartCrashPoints) space(sys SweepSystem, seed int64) *pointSpace {
	sp := &pointSpace{
		n:    r.total,
		note: fmt.Sprintf("in-recovery events over %d crash points", len(r.events)),
		replay: func(point int64) (string, error) {
			p, q := r.decode(point)
			detail, err := replayCrash(sys, seed, p, q, crashVariant{})
			if detail != "" {
				detail = fmt.Sprintf("crash point %d, restart event %d (%s): %s", p, q, r.class(p, q), detail)
			}
			return detail, err
		},
	}
	seen := make(map[string]bool)
	point := int64(0)
	for p, n := range r.events {
		for q := int64(1); q <= n; q++ {
			point++
			if c := r.class(int64(p+1), q); !seen[c] {
				seen[c] = true
				sp.always = append(sp.always, point)
			}
		}
	}
	return sp
}
