package main

import (
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/oo7"
	"repro/internal/page"
	"repro/internal/server"
)

// crash-restart: the only workload where server/restart.go (analysis,
// parallel redo, undo, the WPL backward scan), wal.Scan and logrec.Decode do
// the work. Three long-lived servers, one per recovery mode (ESM, REDO, WPL),
// take cycles in turn. A cycle loads — both clients, each on its own module,
// commit three stamping transactions shaped like T2A, T2B and T2C and leave a
// fourth in flight with most of its log already shipped — then crashes the
// server, restarts it, and commits one new update from a fresh client. The op
// is Crash → Restart return → that first commit acknowledged: what a user
// waits for after a failure. Loading and verification are not timed.
const (
	// crashBaseScale shrinks the module (to 25 composite parts, 500 atomic
	// parts) so that a run holds a few hundred cycles.
	crashBaseScale = 20
	// crashRecoveryBytes is small so that the recovery buffer spills, and
	// ships log, while the in-flight transaction is still running.
	crashRecoveryBytes = 128 << 10
)

// crashModes are the three server recovery modes with the client scheme that
// drives each; crashModeNames are their names in restart.ms_p50.<mode>.
var (
	crashModes     = []scheme{schemes[0], schemes[3], schemes[4]}
	crashModeNames = []string{"esm", "redo", "wpl"}
)

// cycleStats is what the harness reads around one Restart call.
type cycleStats struct {
	mode                    int
	restartNs, firstNs      int64
	logScanned, logAppended int64
	redone                  int64
	skew                    float64
	dataReads, dataWrites   int64
	loserRecords            int64
}

type crashRestart struct {
	seed int64

	cfg     oo7.Config
	dbPages int
	// parts lists every atomic part of each client's module. The three
	// servers build the same database from the same seed, so one list serves
	// all of them.
	parts [nClients][]page.OID
	// want is the last acknowledged stamp of every atomic part, per mode.
	want  [][nClients][]uint32
	st    []*stack
	kind  connKind
	rec   *recorder
	done  []int  // cycles completed per mode
	cl    counts // counters of clients already closed
	stats []cycleStats
}

func (w *crashRestart) open(dir string) error {
	w.cfg = oo7.SmallConfig().Scale(crashBaseScale)
	w.cfg.NumModules = nClients
	perModule := w.cfg.NumCompPerModule * w.cfg.NumAtomicPerComp
	for m, sc := range crashModes {
		// Each server builds its own database rather than opening a copy of
		// one volume: see README, finding (c). The pool holds the whole
		// database: restart, not paging, is what this workload measures.
		st, err := openStack(filepath.Join(dir, sc.name+".vol"), sc.mode, server.DefaultPoolPages)
		if err != nil {
			return fmt.Errorf("%s: %w", sc.name, err)
		}
		w.st = append(w.st, st)
		db, err := buildOn(st, sc, w.cfg, w.seed)
		if err != nil {
			return fmt.Errorf("%s: %w", sc.name, err)
		}
		// A checkpoint before the first crash: see README, finding (a).
		if err := st.srv.NewSession(nil, nil).Checkpoint(); err != nil {
			return err
		}
		// The loaders' pool is sized from the ESM volume, which the checkpoint
		// has just made complete. The WPL volume is still filling — its
		// installer runs behind the commits — and a pool sized from it was,
		// one run in ten, too small for a module's 25 part pages: every stamp
		// then missed, and the run shipped four times the pages.
		if m == 0 {
			w.dbPages = st.store.Pages()
		}
		cl, err := st.dial(sc.clientConfig(0, 0), nil)
		if err != nil {
			return err
		}
		for c := range w.parts {
			parts, err := oo7.CollectAtomicParts(cl.Client, &db.Modules[c])
			if err == nil && len(parts) != perModule {
				err = fmt.Errorf("module %d: %d atomic parts reachable, want %d", c, len(parts), perModule)
			}
			if err == nil && m > 0 && !slices.Equal(parts, w.parts[c]) {
				err = fmt.Errorf("module %d: %s laid the database out differently from %s", c, sc.name, crashModes[0].name)
			}
			if err != nil {
				cl.close()
				return err
			}
			w.parts[c] = parts
		}
		cl.close()
	}
	w.want = make([][nClients][]uint32, len(crashModes))
	for m := range w.want {
		for c := range w.want[m] {
			w.want[m][c] = make([]uint32, perModule)
		}
	}
	w.done = make([]int, len(crashModes))
	return nil
}

// connect records how the cycles' clients will connect and warms every server
// up with one untimed cycle, after which every part carries a known stamp.
func (w *crashRestart) connect(kind connKind, epoch time.Time) error {
	w.kind = kind
	w.rec = nil // the warm-up cycles are not traced
	for m := range crashModes {
		if _, _, err := w.cycle(m); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	w.stats = nil
	w.rec = recorderFor(kind, epoch)
	return nil
}

// stampAll writes val into every index of parts that keep selects, in one
// transaction, and commits it if commit is set. On commit it records the
// stamps as acknowledged.
func (w *crashRestart) stampAll(cl *benchClient, m, c int, val uint32, rootsOnly, commit bool) error {
	tx, err := cl.Begin()
	if err != nil {
		return err
	}
	for i, part := range w.parts[c] {
		if rootsOnly && i%w.cfg.NumAtomicPerComp != 0 {
			continue
		}
		if err := oo7.StampXY(tx, part, val); err != nil {
			return err
		}
	}
	if !commit {
		return nil
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	for i := range w.parts[c] {
		if !rootsOnly || i%w.cfg.NumAtomicPerComp == 0 {
			w.want[m][c][i] = val
		}
	}
	return nil
}

// load runs client c's share of a cycle's load on mode m: a sparse stamping
// transaction (the root part of every composite part, as T2A), a dense one
// (every part, as T2B), a repeated one (every part four times, as T2C), all
// committed, then a fourth left in flight. The client is returned open, its
// transaction active, with the number of log records that transaction has
// generated.
func (w *crashRestart) load(m, c int, base uint32) (*benchClient, int64, error) {
	cfg := crashModes[m].clientConfig(w.dbPages/nClients/2, crashRecoveryBytes)
	cl, err := dialKind(w.st[m], w.kind, cfg, nil) // only the timed op is traced
	if err != nil {
		return nil, 0, err
	}
	if err := w.stampAll(cl, m, c, base+1, true, true); err != nil {
		return cl, 0, err
	}
	if err := w.stampAll(cl, m, c, base+2, false, true); err != nil {
		return cl, 0, err
	}
	tx, err := cl.Begin()
	if err != nil {
		return cl, 0, err
	}
	for rep := uint32(0); rep < 4; rep++ {
		for _, part := range w.parts[c] {
			if err := oo7.StampXY(tx, part, base+3+rep); err != nil {
				return cl, 0, err
			}
		}
	}
	if err := tx.Commit(); err != nil {
		return cl, 0, err
	}
	for i := range w.want[m][c] {
		w.want[m][c][i] = base + 6
	}
	before := cl.Stats().LogRecords
	err = w.stampAll(cl, m, c, base+7, false, false)
	return cl, cl.Stats().LogRecords - before, err
}

// cycle runs one load → crash → restart → first commit → verify cycle on mode
// m and returns the timed op and the number of failed checks.
func (w *crashRestart) cycle(m int) (opSample, int, error) {
	st := w.st[m]
	n := w.done[m]
	w.done[m]++
	base := uint32(n+1) * 16
	w.stats = append(w.stats, cycleStats{mode: m})
	cs := &w.stats[len(w.stats)-1]
	op := opSample{kind: m}

	loaders := make([]*benchClient, nClients)
	losers := make([]int64, nClients)
	_, errs := runClients(func(c int) error {
		var err error
		loaders[c], losers[c], err = w.load(m, c, base)
		return err
	})
	for _, n := range losers {
		cs.loserRecords += n
	}
	defer func() {
		// The loaders' connections close only after the restart: closing
		// them first would abort their transactions before the crash.
		for _, cl := range loaders {
			if cl != nil {
				w.cl = w.cl.add(snapshot(nil, []*benchClient{cl}))
				cl.close()
			}
		}
	}()
	if err := firstOf(errs); err != nil {
		return op, 0, fmt.Errorf("%s load: %w", crashModes[m].name, err)
	}

	rec := w.rec
	if rec != nil {
		rec.op = int64(m)<<40 | int64(n)
	}
	log := st.srv.Log()
	start := time.Now()
	root := rec.begin("op")
	s := rec.begin("server.crash")
	st.srv.Crash()
	rec.end(s)
	x0 := st.srv.ExtendedStats()
	end0 := int64(log.End())
	cs.logScanned = int64(log.StableEnd() - log.Head())
	s = rec.begin("server.restart")
	err := st.srv.NewSession(nil, nil).Restart()
	rec.end(s)
	cs.restartNs = int64(time.Since(start))
	if err != nil {
		rec.end(root)
		return op, 0, fmt.Errorf("%s restart: %w", crashModes[m].name, err)
	}
	x1 := st.srv.ExtendedStats()
	cs.logAppended = int64(log.End()) - end0
	cs.dataReads, cs.dataWrites = x1.DataReads-x0.DataReads, x1.DataWrites-x0.DataWrites
	var max int64
	for _, a := range x1.RedoApplied {
		cs.redone += a
		if a > max {
			max = a
		}
	}
	if cs.redone > 0 {
		cs.skew = float64(max) * float64(len(x1.RedoApplied)) / float64(cs.redone)
	}

	// The first new update transaction, from a fresh client.
	fresh, err := dialKind(st, w.kind, crashModes[m].clientConfig(0, 0), rec)
	if err != nil {
		rec.end(root)
		return op, 0, err
	}
	defer func() {
		w.cl = w.cl.add(snapshot(nil, []*benchClient{fresh}))
		fresh.close()
	}()
	idx := n % len(w.parts[0])
	err = w.firstCommit(fresh, w.parts[0][idx], base+8)
	rec.end(root)
	op.ns = int64(time.Since(start))
	cs.firstNs = op.ns - cs.restartNs
	op.part[0], op.part[1] = cs.restartNs, cs.firstNs
	if err != nil {
		return op, 0, fmt.Errorf("%s first commit after restart: %w", crashModes[m].name, err)
	}
	w.want[m][0][idx] = base + 8

	bad, err := w.check(fresh, m)
	return op, bad, err
}

// firstCommit stamps one part in its own transaction.
func (w *crashRestart) firstCommit(cl *benchClient, part page.OID, val uint32) error {
	rec := cl.rec
	s := rec.begin("client.begin")
	tx, err := cl.Begin()
	rec.end(s)
	if err != nil {
		return err
	}
	s = rec.begin("client.write")
	err = oo7.StampXY(tx, part, val)
	rec.end(s)
	if err != nil {
		return err
	}
	s = rec.begin("client.commit")
	err = tx.Commit()
	rec.end(s)
	return err
}

// check reads every atomic part of mode m's volume and counts those that do
// not carry their last acknowledged stamp: an acknowledged stamp missing, or
// an in-flight one present.
func (w *crashRestart) check(cl *benchClient, m int) (int, error) {
	defer cl.rec.pause()()
	tx, err := cl.Begin()
	if err != nil {
		return 0, err
	}
	bad := 0
	for c := range w.parts {
		for i, part := range w.parts[c] {
			x, y, err := oo7.ReadXY(tx, part)
			if err != nil {
				return bad, err
			}
			if want := w.want[m][c][i]; x != want || y != want {
				if bad == 0 {
					fmt.Printf("%s: part %v holds (%d, %d) after restart, last acknowledged stamp %d\n",
						crashModes[m].name, part, x, y, want)
				}
				bad++
			}
		}
	}
	return bad, tx.Commit()
}

func (w *crashRestart) rate() float64 { return 22 }

// run takes the modes in turn; lim.ops counts rounds of three cycles. The
// section's wall time is the sum of the timed ops: cycles run one at a time,
// and loading and checking between them is not part of any op.
func (w *crashRestart) run(lim limit) (*section, error) {
	sec := &section{}
	before := w.snapshot()
	var firstErr error
	lim.loop(func(int) bool {
		for m := range crashModes {
			op, bad, err := w.cycle(m)
			sec.attempted += 1 + len(w.parts[0])*nClients
			sec.failed += bad
			if err != nil {
				sec.fail(err)
				firstErr = err
				return false
			}
			sec.ops = append(sec.ops, op)
			sec.wall += time.Duration(op.ns)
			sec.appBytes += 8
		}
		return true
	})
	sec.delta = w.snapshot().sub(before)
	if w.rec != nil {
		sec.recs = []*recorder{w.rec}
	}
	sec.extra = w.restartMetrics()
	return sec, firstErr
}

// restartMetrics summarizes the per-cycle readings as the restart.* layer
// metrics: medians over the section's cycles.
func (w *crashRestart) restartMetrics() map[string]metric {
	col := func(f func(cycleStats) float64, keep func(cycleStats) bool) float64 {
		var xs []float64
		for _, cs := range w.stats {
			if keep == nil || keep(cs) {
				xs = append(xs, f(cs))
			}
		}
		return median(xs)
	}
	out := map[string]metric{
		"restart.log_bytes_scanned":   {col(func(c cycleStats) float64 { return float64(c.logScanned) }, nil), "B"},
		"restart.log_bytes_appended":  {col(func(c cycleStats) float64 { return float64(c.logAppended) }, nil), "B"},
		"restart.records_redone":      {col(func(c cycleStats) float64 { return float64(c.redone) }, nil), "count"},
		"restart.redo_worker_skew":    {col(func(c cycleStats) float64 { return c.skew }, func(c cycleStats) bool { return c.redone > 0 }), "ratio"},
		"restart.data_reads":          {col(func(c cycleStats) float64 { return float64(c.dataReads) }, nil), "count"},
		"restart.data_writes":         {col(func(c cycleStats) float64 { return float64(c.dataWrites) }, nil), "count"},
		"restart.loser_records":       {col(func(c cycleStats) float64 { return float64(c.loserRecords) }, nil), "count"},
		"restart.first_commit_ms_p50": {col(func(c cycleStats) float64 { return float64(c.firstNs) / 1e6 }, nil), "ms"},
	}
	for m, mode := range crashModeNames {
		m := m
		out["restart.ms_p50."+mode] = metric{col(func(c cycleStats) float64 { return float64(c.restartNs) / 1e6 },
			func(c cycleStats) bool { return c.mode == m }), "ms"}
	}
	return out
}

func (w *crashRestart) disconnect() {}

// verify checks restart's idempotence on every mode: with the installer
// drained and no transaction in between, recovering the recovered server
// must leave every page but the superblock byte-identical.
func (w *crashRestart) verify() (checks, failed int, err error) {
	for m, st := range w.st {
		checks++
		st.srv.Close()
		var d [2]uint32
		for i := range d {
			st.srv.Crash()
			if err := st.srv.NewSession(nil, nil).Restart(); err != nil {
				return checks, failed, fmt.Errorf("%s restart %d of the idempotence check: %w", crashModes[m].name, i+1, err)
			}
			if d[i], err = st.digest(); err != nil {
				return checks, failed, err
			}
		}
		if d[0] != d[1] {
			failed++
			fmt.Printf("%s: a second restart changed the volume (digest %08x → %08x)\n", crashModes[m].name, d[0], d[1])
		}
	}
	return checks, failed, nil
}

func (w *crashRestart) close() error {
	var first error
	for _, st := range w.st {
		if err := st.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (w *crashRestart) stacks() []*stack { return w.st }

func (w *crashRestart) snapshot() counts { return snapshot(w.st, nil).add(w.cl) }
