package harness

import (
	"errors"
	"flag"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/logrec"
	"repro/internal/page"
	"repro/internal/server"
)

// Sweep knobs: `go test ./internal/harness/ -run TestSweep -sweep.budget=50`
// replays 50 evenly spaced points per kind and scheme. Budget 0 picks a
// default (smaller under -short); a negative budget replays every
// enumerated point.
var (
	sweepBudget = flag.Int("sweep.budget", 0, "point replays per kind and scheme (0 = default, <0 = all)")
	sweepSeed   = flag.Int64("sweep.seed", 1, "sweep workload seed")
)

func replayBudget() int {
	switch {
	case *sweepBudget != 0:
		if *sweepBudget < 0 {
			return 0 // Sweep treats ≤0 as "all points"
		}
		return *sweepBudget
	case testing.Short():
		return 12
	default:
		return 40
	}
}

// minSweepPoints is the coverage floor per kind: fewer enumerated points
// than this means the workload has become too small to mean anything. The
// media, scrub and group kinds enforce their own floors when they open.
var minSweepPoints = map[string]int64{
	"crash":         200,
	"cleaner":       200,
	"restart-crash": 200,
	"repl":          200,
	"twopc":         100,
	"twopc-stall":   3 * twopcStamps, // cross-shard commits send prepare+decide+forget per participant
}

// TestSweep is every sweep: for each kind and scheme it enumerates the
// points, replays a budget-limited sample, and fails with a reproduction
// recipe for each violated invariant.
func TestSweep(t *testing.T) {
	budget := replayBudget()
	for _, k := range sweepKinds() {
		k := k
		t.Run(k.name, func(t *testing.T) {
			for _, sys := range SweepSystems() {
				sys := sys
				t.Run(sys.Name, func(t *testing.T) {
					t.Parallel()
					rep, err := Sweep(k.name, sys.Name, *sweepSeed, budget)
					if err != nil {
						t.Fatal(err)
					}
					if rep.Points < minSweepPoints[k.name] {
						t.Errorf("only %d points enumerated, want >= %d (workload too small)", rep.Points, minSweepPoints[k.name])
					}
					t.Logf("%s/%s: %d points %s, replayed %d, %d failures",
						k.name, sys.Name, rep.Points, rep.Note, len(rep.Replayed), len(rep.Failures))
					for _, f := range rep.Failures {
						t.Errorf("%v", f)
					}
				})
			}
		})
	}
}

func sameJournal(t *testing.T, a, b *journal) {
	t.Helper()
	if len(a.txns) != len(b.txns) {
		t.Fatalf("journal length differs: %d vs %d", len(a.txns), len(b.txns))
	}
	for i := range a.txns {
		x, y := a.txns[i], b.txns[i]
		if x.pre != y.pre || x.post != y.post || x.val != y.val || !slices.Equal(x.parts, y.parts) {
			t.Fatalf("journal entry %d differs: %+v vs %+v", i, x, y)
		}
	}
}

// TestSweepDeterministic pins the reproducibility contract: the same
// (system, seed) pair must enumerate the same crash points — same count and
// the same commit-bracketing fuse counts per transaction — and replaying the
// same point must return the same verdict.
func TestSweepDeterministic(t *testing.T) {
	for _, sys := range []SweepSystem{SweepSystems()[0], SweepSystems()[4]} { // PD-ESM, WPL
		sys := sys
		t.Run(sys.Name, func(t *testing.T) {
			t.Parallel()
			runA, nA, err := countCrashPoints(sys, *sweepSeed, crashVariant{})
			if err != nil {
				t.Fatalf("counting pass A: %v", err)
			}
			runB, nB, err := countCrashPoints(sys, *sweepSeed, crashVariant{})
			if err != nil {
				t.Fatalf("counting pass B: %v", err)
			}
			if nA != nB {
				t.Fatalf("crash-point count not deterministic: %d then %d", nA, nB)
			}
			sameJournal(t, runA.j, runB.j)

			verdict := func(p int64) string {
				f, err := Replay("crash", sys.Name, *sweepSeed, p)
				if err != nil {
					t.Fatalf("replay point %d: %v", p, err)
				}
				if f == nil {
					return "pass"
				}
				return f.Detail
			}
			for _, p := range []int64{1, runA.j.buildEnd + 1, nA / 2, nA} {
				if v1, v2 := verdict(p), verdict(p); v1 != v2 {
					t.Errorf("point %d verdict not deterministic: %q then %q", p, v1, v2)
				}
			}
		})
	}
}

// TestWideStampsLeaveStableLoserRecords checks the crash kind reaches what
// its wide stamps exist for: under the log-shipping schemes some crash point
// inside a wide stamp's commit call must leave that stamp a loser whose update
// records are already stable — the only state in which restart undo has values
// to restore that the journal checks.
func TestWideStampsLeaveStableLoserRecords(t *testing.T) {
	for _, sys := range SweepSystems() {
		if sys.Mode == server.ModeWPL {
			continue // ships whole pages: no update records, no undo
		}
		sys := sys
		t.Run(sys.Name, func(t *testing.T) {
			t.Parallel()
			count, _, err := countCrashPoints(sys, *sweepSeed, crashVariant{})
			if err != nil {
				t.Fatalf("counting pass: %v", err)
			}
			wide := count.j.txns[wideEvery-1]
			if len(wide.parts) != len(count.j.parts) {
				t.Fatalf("stamp %d wrote %d parts, want all %d", wideEvery-1, len(wide.parts), len(count.j.parts))
			}
			hits := 0
			for p := wide.pre + 1; p < wide.post; p++ {
				run, err := runCrashWorkload(sys, *sweepSeed, p, crashVariant{})
				if err != nil {
					t.Fatalf("workload to point %d: %v", p, err)
				}
				run.node.crash()
				updates, committed := 0, false
				err = run.node.log.Scan(run.node.log.Head(), func(r *logrec.Record) bool {
					switch {
					case r.TID != wide.tid:
					case r.Type == logrec.TypeUpdate:
						updates++
					case r.Type == logrec.TypeCommit:
						committed = true
					}
					return true
				})
				if err != nil {
					t.Fatalf("scan after point %d: %v", p, err)
				}
				if updates > 0 && !committed {
					hits++
				}
			}
			if hits == 0 {
				t.Fatalf("no crash point in (%d, %d) leaves the wide stamp a loser with stable update records", wide.pre, wide.post)
			}
			t.Logf("%s: %d of %d crash points inside the wide stamp's commit leave stable loser records", sys.Name, hits, wide.post-wide.pre-1)
		})
	}
}

// TestFuzzySweepExercisesCleanerAndCkpt checks the cleaner kind actually
// reaches the machinery it exists to crash: the counting pass must show
// cleaner page writes (except under WPL, where Clean is by design a no-op)
// and completed checkpoints, and must be deterministic.
func TestFuzzySweepExercisesCleanerAndCkpt(t *testing.T) {
	for _, sys := range SweepSystems() {
		sys := sys
		t.Run(sys.Name, func(t *testing.T) {
			t.Parallel()
			run, n, err := countCrashPoints(sys, *sweepSeed, cleanerVariant)
			if err != nil {
				t.Fatalf("counting pass: %v", err)
			}
			st := run.node.srv.Stats()
			if sys.Mode != server.ModeWPL && st.CleanerPages == 0 {
				t.Errorf("cleaner wrote no pages: the sweep cannot hit crash points inside cleaner writes")
			}
			if sys.Mode == server.ModeWPL && st.CleanerPages != 0 {
				t.Errorf("cleaner wrote %d pages under WPL; Clean must be a no-op there", st.CleanerPages)
			}
			if st.Checkpoints == 0 {
				t.Errorf("no checkpoint completed: the sweep cannot hit mid-checkpoint points")
			}
			run2, n2, err := countCrashPoints(sys, *sweepSeed, cleanerVariant)
			if err != nil {
				t.Fatalf("counting pass B: %v", err)
			}
			if n != n2 {
				t.Fatalf("cleaner crash-point count not deterministic: %d then %d", n, n2)
			}
			sameJournal(t, run.j, run2.j)
			t.Logf("%s: %d cleaner crash points, cleaner wrote %d pages over %d passes, %d checkpoints",
				sys.Name, n, st.CleanerPages, st.CleanerPasses, st.Checkpoints)
		})
	}
}

// TestRestartCrashCoverage holds the restart-crash kind to what it exists
// for: it enumerates in-recovery points for every scheme, the same ones when
// a recovery is counted again, and what a budgeted sweep replays (TestSweep does the replaying)
// lands crashes inside recovery's page writes, on its undo/CLR force
// (ESM/REDO) and in the closing checkpoint's record → superblock window.
func TestRestartCrashCoverage(t *testing.T) {
	for _, sys := range SweepSystems() {
		sys := sys
		t.Run(sys.Name, func(t *testing.T) {
			t.Parallel()
			r, err := enumerateRestartCrash(sys, *sweepSeed)
			if err != nil {
				t.Fatal(err)
			}
			if r.total == 0 {
				t.Fatal("no in-recovery points")
			}
			for _, p := range samplePoints(int64(len(r.events)), 12) {
				ev, fl, err := countRestart(sys, *sweepSeed, p)
				if err != nil {
					t.Fatal(err)
				}
				if ev != r.events[p-1] || !reflect.DeepEqual(fl, r.flushes[p-1]) {
					t.Fatalf("recovery after crash point %d: %d events (flushes %v), then %d (%v)",
						p, r.events[p-1], r.flushes[p-1], ev, fl)
				}
			}
			classes := make(map[string]int)
			replayed := r.space(sys, *sweepSeed).sample(replayBudget())
			for _, pt := range replayed {
				classes[r.class(r.decode(pt))]++
			}
			t.Logf("%s: %d in-recovery points, a sweep replays %d: %v", sys.Name, r.total, len(replayed), classes)
			if classes["page-write"] == 0 || classes["checkpoint-window"] == 0 ||
				(sys.Mode != server.ModeWPL && classes["undo-force"] == 0) {
				t.Errorf("replayed points miss a class of in-recovery crash: %v", classes)
			}
		})
	}
}

// TestReplSweepStreamDeterministic pins the reproducibility contract: the
// same (system, seed) records the same stream and journal, so a printed cut
// replays the same promotion.
func TestReplSweepStreamDeterministic(t *testing.T) {
	sys := SweepSystems()[0]
	runA, err := runReplWorkload(sys, *sweepSeed)
	if err != nil {
		t.Fatal(err)
	}
	runB, err := runReplWorkload(sys, *sweepSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(runA.recs) != len(runB.recs) {
		t.Fatalf("stream length not deterministic: %d then %d", len(runA.recs), len(runB.recs))
	}
	for i := range runA.ends {
		if runA.ends[i] != runB.ends[i] {
			t.Fatalf("record %d ends at %d then %d", i, runA.ends[i], runB.ends[i])
		}
	}
	sameJournal(t, runA.j, runB.j)
}

// TestTwoPCStallLeavesInDoubt guards the stall kind against vacuity: a
// healthy fraction of dropped messages must strand branches in doubt across
// the crash (otherwise the lock-retention and resolution checks never run),
// and those branches must map back to journaled stamps so their pages are
// probeable. One scheme suffices — the message schedule is scheme-agnostic.
func TestTwoPCStallLeavesInDoubt(t *testing.T) {
	sys := SweepSystems()[0]
	_, msgs, err := countTwoPCPoints(sys, *sweepSeed)
	if err != nil {
		t.Fatal(err)
	}
	indoubt, probed := 0, 0
	for p := int64(1); p <= msgs; p++ {
		run, err := runTwoPCWorkload(sys, *sweepSeed, -1, p)
		if err != nil {
			t.Fatal(err)
		}
		found, withPages := false, false
		for s, n := range run.nodes {
			n.crash()
			if err := n.restart(); err != nil {
				t.Fatalf("point %d shard %d restart: %v", p, s, err)
			}
			for _, idt := range n.srv.InDoubt() {
				found = true
				if run.j.byTID(idt.TID) != nil {
					withPages = true
				}
			}
		}
		if found {
			indoubt++
		}
		if withPages {
			probed++
		}
	}
	t.Logf("stall points: %d, leaving in-doubt branches: %d, with probeable stamps: %d",
		msgs, indoubt, probed)
	if indoubt < int(msgs)/10 {
		t.Errorf("only %d of %d stall points left an in-doubt branch: sweep is (nearly) vacuous", indoubt, msgs)
	}
	if probed == 0 {
		t.Error("no in-doubt branch maps to a journaled stamp: lock probes never run")
	}
}

// TestTwoPCSweepDeterminism re-counts the 2PC point spaces: both the fuse
// sequence and the message sequence must be identical across runs, or a
// printed reproduction recipe would replay a different execution.
func TestTwoPCSweepDeterminism(t *testing.T) {
	for _, sys := range SweepSystems() {
		sys := sys
		t.Run(sys.Name, func(t *testing.T) {
			t.Parallel()
			fuseA, msgA, err := countTwoPCPoints(sys, *sweepSeed)
			if err != nil {
				t.Fatalf("counting pass A: %v", err)
			}
			fuseB, msgB, err := countTwoPCPoints(sys, *sweepSeed)
			if err != nil {
				t.Fatalf("counting pass B: %v", err)
			}
			if fuseA != fuseB || msgA != msgB {
				t.Errorf("counting passes disagree: (%d,%d) vs (%d,%d) fuse/message points",
					fuseA, msgA, fuseB, msgB)
			}
		})
	}
}

// TestGroupCommitSweepAllSchemes runs the concurrent committers through
// EVERY record-boundary cut of the group-commit window, whatever the budget,
// for all five schemes.
func TestGroupCommitSweepAllSchemes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: TestSweep/group samples the same window")
	}
	for _, sys := range SweepSystems() {
		sys := sys
		t.Run(sys.Name, func(t *testing.T) {
			rep, err := Sweep("group", sys.Name, *sweepSeed, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range rep.Failures {
				t.Errorf("%v", f)
			}
			// Every committer appends at least a commit record to the tail.
			if rep.Points < groupClients+1 || int64(len(rep.Replayed)) != rep.Points {
				t.Fatalf("%s: %d cuts, %d replayed, for %d clients (volatile tail not enumerated?)",
					sys.Name, rep.Points, len(rep.Replayed), groupClients)
			}
		})
	}
}

// TestSamplePoints pins the sampling contract Sweep relies on: within
// budget, evenly spaced, always covering the first and last points.
func TestSamplePoints(t *testing.T) {
	for _, tc := range []struct {
		n      int64
		budget int
	}{
		{10, 3}, {10, 0}, {1, 5}, {250, 50}, {7, 7},
	} {
		pts := samplePoints(tc.n, tc.budget)
		if len(pts) == 0 {
			t.Fatalf("n=%d budget=%d: no points", tc.n, tc.budget)
		}
		if pts[0] != 1 || pts[len(pts)-1] != tc.n {
			t.Errorf("n=%d budget=%d: sample %v must span 1..%d", tc.n, tc.budget, pts, tc.n)
		}
		if tc.budget > 0 && len(pts) > tc.budget {
			t.Errorf("n=%d budget=%d: %d points exceed budget", tc.n, tc.budget, len(pts))
		}
		for i := 1; i < len(pts); i++ {
			if pts[i] <= pts[i-1] {
				t.Errorf("n=%d budget=%d: sample not strictly increasing: %v", tc.n, tc.budget, pts)
			}
		}
	}
}

// TestVerifyJournal proves the one verifier is not blind: fabricated
// post-recovery readings over a three-stamp journal, each of which must pass
// or fail for the stated reason. Parts a..d start at (1,2) (3,4) (5,5)
// (7,8); stamp 0 writes a,b at positions 10..20, stamp 1 writes c,d at
// 30..40, stamp 2 writes a,c at 50..60.
func TestVerifyJournal(t *testing.T) {
	oid := func(i int) page.OID { return page.OID{Page: page.ID(i + 1)} }
	a, b, c, d := oid(0), oid(1), oid(2), oid(3)
	mk := func() *journal {
		return &journal{
			parts: []page.OID{a, b, c, d},
			init:  [][2]uint32{{1, 2}, {3, 4}, {5, 5}, {7, 8}},
			txns: []stampTxn{
				{pre: 10, post: 20, parts: []page.OID{a, b}, val: 10001},
				{pre: 30, post: 40, parts: []page.OID{c, d}, val: 10002},
				{pre: 50, post: 60, parts: []page.OID{a, c}, val: 10003},
			},
		}
	}
	eq := func(v uint32) [2]uint32 { return [2]uint32{v, v} }
	open := mk()
	open.txns[1].post = 70 // commits after stamp 2 did: not prefix-closed
	for _, tc := range []struct {
		name   string
		j      *journal
		got    [][2]uint32
		point  int64
		atomic bool
		want   string // "" = pass, else a fragment of the failure detail
	}{
		{"nothing committed", mk(), [][2]uint32{{1, 2}, {3, 4}, {5, 5}, {7, 8}}, 5, true, ""},
		{"exact committed prefix", mk(), [][2]uint32{eq(10001), eq(10001), {5, 5}, {7, 8}}, 25, true, ""},
		{"prefix, boundary rolled back", mk(), [][2]uint32{eq(10001), eq(10001), {5, 5}, {7, 8}}, 35, true, ""},
		{"prefix + whole boundary stamp", mk(), [][2]uint32{eq(10001), eq(10001), eq(10002), eq(10002)}, 35, true, ""},
		{"whole boundary stamp where none may straddle", mk(), [][2]uint32{eq(10001), eq(10001), eq(10002), eq(10002)}, 35, false, "none was mid-commit"},
		{"everything committed", mk(), [][2]uint32{eq(10003), eq(10001), eq(10003), eq(10002)}, 60, true, ""},
		{"lost committed stamp", mk(), [][2]uint32{{1, 2}, {3, 4}, {5, 5}, {7, 8}}, 25, true, "want 10001"},
		{"surviving uncommitted stamp", mk(), [][2]uint32{eq(10001), eq(10001), eq(10002), eq(10002)}, 25, true, "none was mid-commit"},
		{"half-applied boundary stamp", mk(), [][2]uint32{eq(10001), eq(10001), eq(10002), {7, 8}}, 35, true, "non-atomically"},
		{"torn object", mk(), [][2]uint32{{10001, 2}, eq(10001), {5, 5}, {7, 8}}, 25, true, "torn object update"},
		{"torn back to a stale value", mk(), [][2]uint32{eq(10001), eq(10001), {5, 5}, {7, 9}}, 25, true, "torn object update"},
		{"journal not prefix-closed", open, [][2]uint32{eq(10003), eq(10001), eq(10003), {7, 8}}, 65, true, "not prefix-closed"},
	} {
		got := tc.j.check(tc.got, tc.point, tc.atomic)
		if (tc.want == "") != (got == "") || !strings.Contains(got, tc.want) {
			t.Errorf("%s: check = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestFailureReproRecipe pins that the recipe every failure prints actually
// replays it: for a fabricated failure of each kind the printed call is
// parsed back and run, and must reach the replay (a healthy engine passes
// the point). Unknown names are refused with the typed error.
func TestFailureReproRecipe(t *testing.T) {
	call := regexp.MustCompile(`harness\.Replay\("([^"]+)", "([^"]+)", (-?\d+), (-?\d+)\)`)
	for i, k := range sweepKinds() {
		k, sys := k, SweepSystems()[i%len(SweepSystems())]
		t.Run(k.name, func(t *testing.T) {
			t.Parallel()
			printed := (&Failure{Kind: k.name, System: sys.Name, Seed: *sweepSeed, Point: 3, Detail: "x"}).Error()
			m := call.FindStringSubmatch(printed)
			if m == nil {
				t.Fatalf("no replay call in %q", printed)
			}
			seed, _ := strconv.ParseInt(m[3], 10, 64)
			point, _ := strconv.ParseInt(m[4], 10, 64)
			if m[1] != k.name || m[2] != sys.Name || seed != *sweepSeed || point != 3 {
				t.Fatalf("recipe %q does not name the failure's own coordinates", m[0])
			}
			if f, err := Replay(m[1], m[2], seed, point); err != nil || f != nil {
				t.Errorf("%s: failure %v, error %v", m[0], f, err)
			}
		})
	}
	for _, bad := range [][2]string{{"crash", "NO-SUCH"}, {"no-such", "PD-ESM"}} {
		if _, err := Replay(bad[0], bad[1], 1, 1); !errors.Is(err, ErrUnknownSweep) {
			t.Errorf("Replay(%q, %q): error %v, want ErrUnknownSweep", bad[0], bad[1], err)
		}
		if _, err := Sweep(bad[0], bad[1], 1, 1); !errors.Is(err, ErrUnknownSweep) {
			t.Errorf("Sweep(%q, %q): error %v, want ErrUnknownSweep", bad[0], bad[1], err)
		}
	}
	if _, err := Replay("crash", "PD-ESM", 1, 1<<40); err == nil {
		t.Error("Replay accepted a point past the enumerated space")
	}
	for _, sys := range SweepSystems() {
		if sys.Name == "" {
			t.Fatal("sweep system with empty name")
		}
	}
}
