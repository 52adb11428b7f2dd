package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/costmodel"
	"repro/internal/oo7"
	"repro/internal/server"
)

// oo7-update and oo7-read: the paper's own experiment under its
// constrained-memory condition. Each client owns oo7ModulesPerClient modules
// of an OO7 database and takes them in turn; the client pool holds half a
// module and the recovery buffer a quarter of its composite-part pages, so
// the working set is larger than the client's caches.
//
// oo7-update runs all five software versions, each on its own copy of the
// volume. Its op is one round — T2A, T2B, T2C as three transactions — and a
// client takes the versions in turn (round i runs on version i mod 5), so
// the mix is fixed whatever each version's speed. Sparse (T2A) and dense
// (T2B, T2C) updates sit in one round so a diffing gain that costs
// page-logging shows.
//
// oo7-read runs read-only T1 traversals on PD-ESM: the same layers used for
// reads that the other workloads use for writes.
const (
	// The paper's small module is 500 composite parts under a seven-level
	// assembly tree, and one update round on it takes a quarter of a second
	// here: a run would hold 60. A tenth of the parts under a five-level
	// tree (81 base assemblies, 243 composite-part visits per traversal)
	// takes 32 ms a round. Every part is still visited about five times per
	// traversal, so the work does not depend on which parts a seed happens
	// to wire to the assemblies.
	oo7BaseScale  = 10
	oo7AssmLevels = 5
	// How a seed wires 81 base assemblies to 50 composite parts decides how
	// often a traversal's page references miss a half-module pool, and with
	// it the log and page traffic: on one module per client the work differed
	// by 13 % between seeds (written_kb_per_op 924 to 1 052 over five). A
	// client therefore rotates over four modules, cycle i on module i mod 4,
	// and a run averages eight wirings.
	oo7ModulesPerClient = 4
	// The recovery buffer keeps the paper's ratio to the module (1 MB to
	// 500 composite-part pages): a dense transaction's before-images do not
	// fit, so it spills.
	oo7RecoveryBytes = 96 << 10
)

type oo7Workload struct {
	seed   int64
	update bool

	cfg     oo7.Config
	db      *oo7.Database
	dbPages int
	use     []scheme
	builder *stack
	st      []*stack
	cl      [][]*benchClient // [scheme][client]
}

var oo7Params = costmodel.Default1995()

// buildOn builds an OO7 database on st through a client of sc's scheme with
// an unconstrained pool.
func buildOn(st *stack, sc scheme, cfg oo7.Config, seed int64) (*oo7.Database, error) {
	loader, err := st.dial(sc.clientConfig(2048, 8<<20), nil)
	if err != nil {
		return nil, err
	}
	defer loader.close()
	db, err := oo7.Build(loader.Client, cfg, seed)
	if err != nil {
		return nil, fmt.Errorf("building database: %w", err)
	}
	return db, nil
}

// expect returns the Result a traversal must report, derived from the
// configuration: every base assembly visits NumCompPerAssm composite parts,
// and every composite-part visit reaches all its atomic parts.
func expect(cfg oo7.Config, t oo7.Traversal) oo7.Result {
	comp := cfg.BaseAssemblies() * cfg.NumCompPerAssm
	res := oo7.Result{CompVisits: comp, AtomicVisits: comp * cfg.NumAtomicPerComp}
	switch t {
	case oo7.T2A:
		res.Updates = comp
	case oo7.T2B:
		res.Updates = res.AtomicVisits
	case oo7.T2C:
		res.Updates = 4 * res.AtomicVisits
	}
	return res
}

func (w *oo7Workload) open(dir string) error {
	w.cfg = oo7.SmallConfig().Scale(oo7BaseScale)
	w.cfg.NumAssmLevels = oo7AssmLevels
	w.cfg.NumModules = nClients * oo7ModulesPerClient
	w.use = schemes[:1]
	if w.update {
		w.use = schemes
	}
	// The database is built once, on a PD-ESM server with the daemon's
	// default pool, and checkpointed so its file holds every page; each
	// version then opens its own copy with the constrained pool. The builder
	// stays open, idle, until close: its 256 MB log ring, once freed, would
	// be handed zeroed to the next server, and rss_peak_mb would then depend
	// on when the collector ran.
	base := filepath.Join(dir, "base.vol")
	var err error
	if w.builder, err = openStack(base, server.ModeESM, server.DefaultPoolPages); err != nil {
		return err
	}
	if w.db, err = buildOn(w.builder, schemes[0], w.cfg, w.seed); err != nil {
		return err
	}
	if err := w.builder.srv.NewSession(nil, nil).Checkpoint(); err != nil {
		return err
	}
	w.dbPages = w.builder.store.Pages()
	for _, sc := range w.use {
		vol := filepath.Join(dir, sc.name+".vol")
		if err := copyFile(vol, base); err != nil {
			return err
		}
		st, err := openStack(vol, sc.mode, w.serverPool())
		if err != nil {
			return fmt.Errorf("%s: %w", sc.name, err)
		}
		w.st = append(w.st, st)
	}
	return nil
}

// serverPool is the server buffer pool in pages. oo7-read's holds half the
// database, so reads miss in it and go to disk. oo7-update's holds all of it:
// at half, what two clients' interleaved updates evict differs from run to
// run by a quarter of the I/O (README, finding (f)), and the workload could
// not tell a 10 % change from noise. Its clients still page: the client pool
// holds half a module.
func (w *oo7Workload) serverPool() int {
	if w.update {
		return 2 * w.dbPages
	}
	return w.dbPages / 2
}

// module returns the module client c works on in cycle i.
func (w *oo7Workload) module(c, i int) *oo7.Module {
	return &w.db.Modules[c+nClients*(i%oo7ModulesPerClient)]
}

// connect dials one client per version and client slot and warms each up
// with one read-only traversal.
func (w *oo7Workload) connect(kind connKind, epoch time.Time) error {
	w.cl = make([][]*benchClient, len(w.use))
	for k, sc := range w.use {
		for c := 0; c < nClients; c++ {
			cl, err := dialKind(w.st[k], kind, sc.clientConfig(w.dbPages/w.cfg.NumModules/2, oo7RecoveryBytes), recorderFor(kind, epoch))
			if err != nil {
				return err
			}
			w.cl[k] = append(w.cl[k], cl)
		}
	}
	_, errs := runClients(func(c int) error {
		for k := range w.use {
			defer w.cl[k][c].rec.pause()()
			if _, err := oo7.Run(w.cl[k][c].Client, w.module(c, 0), oo7.T1, costmodel.NopMeter{}, oo7Params); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		return nil
	})
	return firstOf(errs)
}

// traverse runs one traversal transaction for client c on version k and
// module mod under a span, and checks the Result against the configuration's
// constants.
func (w *oo7Workload) traverse(k, c int, mod *oo7.Module, t oo7.Traversal, span string) (int64, oo7.Result, error) {
	cl := w.cl[k][c]
	start := time.Now()
	s := cl.rec.begin(span)
	res, err := oo7.Run(cl.Client, mod, t, costmodel.NopMeter{}, oo7Params)
	cl.rec.end(s)
	ns := int64(time.Since(start))
	if err == nil && res != expect(w.cfg, t) {
		err = fmt.Errorf("%s %v by client %d: result %+v, want %+v", w.use[k].name, t, c, res, expect(w.cfg, t))
	}
	return ns, res, err
}

var updateRound = [3]struct {
	t    oo7.Traversal
	span string
}{{oo7.T2A, "client.t2a"}, {oo7.T2B, "client.t2b"}, {oo7.T2C, "client.t2c"}}

// round runs one op for client c on version k and module mod: T2A, T2B, T2C
// for oo7-update, one T1 for oo7-read.
func (w *oo7Workload) round(k, c int, mod *oo7.Module, id int64) (opSample, int64, error) {
	rec := w.cl[k][c].rec
	if rec != nil {
		rec.op = id
	}
	op := opSample{client: c, kind: k}
	var updates int64
	start := time.Now()
	root := rec.begin("op")
	defer func() { rec.end(root) }()
	if !w.update {
		_, _, err := w.traverse(k, c, mod, oo7.T1, "client.t1")
		op.ns = int64(time.Since(start))
		return op, 0, err
	}
	for i, tr := range updateRound {
		ns, res, err := w.traverse(k, c, mod, tr.t, tr.span)
		if err != nil {
			return op, updates, err
		}
		op.part[i] = ns
		updates += int64(res.Updates)
	}
	op.ns = int64(time.Since(start))
	return op, updates, nil
}

// rate: a five-version cycle of update rounds takes about 150 ms, a T1
// traversal about 5.7 ms.
func (w *oo7Workload) rate() float64 {
	if w.update {
		return 6.8
	}
	return 175
}

// run executes whole cycles — one round on every version in use — so that
// each version contributes the same number of ops; lim.ops counts cycles.
func (w *oo7Workload) run(lim limit) (*section, error) {
	sec := &section{}
	samples := make([][]opSample, nClients)
	updates := make([]int64, nClients)
	before := w.snapshot()
	wall, errs := runClients(func(c int) error {
		var firstErr error
		lim.loop(func(i int) bool {
			for k := range w.use {
				op, n, err := w.round(k, c, w.module(c, i), int64(c)<<40|int64(i*len(w.use)+k))
				updates[c] += n
				if err != nil {
					firstErr = err
					return false
				}
				samples[c] = append(samples[c], op)
			}
			return true
		})
		return firstErr
	})
	sec.wall = wall
	sec.delta = w.snapshot().sub(before)
	for _, e := range errs {
		sec.fail(e)
	}
	for c := range samples {
		sec.ops = append(sec.ops, samples[c]...)
		sec.appBytes += updates[c] * 8 // each update passes the 8-byte (x, y) to Tx.Write
	}
	for k := range w.cl {
		for _, cl := range w.cl[k] {
			if cl.rec != nil {
				sec.recs = append(sec.recs, cl.rec)
			}
		}
	}
	sec.attempted = len(sec.ops) + sec.failed
	return sec, firstOf(errs)
}

func (w *oo7Workload) disconnect() {
	for k := range w.cl {
		for _, cl := range w.cl[k] {
			cl.close()
		}
	}
	w.cl = nil
}

// verify walks every module of every version's volume through a fresh client
// and checks the traversal reaches what the configuration says it must: a
// page lost between pool, log and volume fails the walk.
func (w *oo7Workload) verify() (checks, failed int, err error) {
	want := expect(w.cfg, oo7.T1)
	for k, sc := range w.use {
		cl, err := w.st[k].dial(sc.clientConfig(0, 0), nil)
		if err != nil {
			return checks, failed, err
		}
		for c := range w.db.Modules {
			checks++
			res, err := oo7.Run(cl.Client, &w.db.Modules[c], oo7.T1, costmodel.NopMeter{}, oo7Params)
			if err != nil || res != want {
				failed++
				fmt.Printf("%s: module %d after the run: result %+v err %v, want %+v\n", sc.name, c, res, err, want)
			}
		}
		cl.close()
	}
	return checks, failed, nil
}

func (w *oo7Workload) close() error {
	var first error
	for _, st := range append([]*stack{w.builder}, w.st...) {
		if err := st.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (w *oo7Workload) stacks() []*stack { return w.st }

func (w *oo7Workload) snapshot() counts {
	var all []*benchClient
	for k := range w.cl {
		all = append(all, w.cl[k]...)
	}
	return snapshot(w.st, all)
}
