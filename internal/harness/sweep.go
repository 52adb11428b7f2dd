package harness

// The sweep engine: the pieces every sweep kind is written over — the stamp
// journal and its verifier, the fused node and the recover-twice check, the
// failure and report types, and the enumerate → sample → replay loop behind
// Sweep and Replay. What a sweep is, and the table of kinds, is DESIGN.md
// §2.3; each kind's own file holds only its topology, its fault source and
// its extra assertions.

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/client"
	"repro/internal/disk"
	"repro/internal/faultinject"
	"repro/internal/logrec"
	"repro/internal/oo7"
	"repro/internal/page"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
)

// SweepSystem is one recovery scheme under sweep.
type SweepSystem struct {
	Name   string
	Scheme client.Scheme
	Mode   server.Mode
}

// SweepSystems returns the five schemes of the paper, each of which every
// sweep kind must hold to the same recovery invariants.
func SweepSystems() []SweepSystem {
	return []SweepSystem{
		{Name: "PD-ESM", Scheme: client.PD, Mode: server.ModeESM},
		{Name: "SD-ESM", Scheme: client.SD, Mode: server.ModeESM},
		{Name: "SL-ESM", Scheme: client.SL, Mode: server.ModeESM},
		{Name: "PD-REDO", Scheme: client.PD, Mode: server.ModeREDO},
		{Name: "WPL", Scheme: client.WPL, Mode: server.ModeWPL},
	}
}

// Sweep sizing: small pools force evictions mid-transaction, a low
// checkpoint interval exercises checkpoint-adjacent crash points, and the
// tiny OO7 configuration keeps one replay cheap enough that hundreds run in
// a test.
const (
	sweepStamps      = 104 // stamp transactions after the build
	sweepServerPool  = 96
	sweepClientPool  = 48
	sweepLogCapacity = 32 << 20
	sweepCkptEvery   = 3
	// stampBase is the first stamp value; the OO7 build writes x and y below
	// 10000, so a stamp value never collides with pristine build state.
	stampBase = 10001
)

// sweepDBConfig is the miniature OO7 database used by the sweeps.
func sweepDBConfig() oo7.Config {
	return oo7.Config{
		NumAtomicPerComp: 8,
		NumConnPerAtomic: 2,
		DocumentSize:     256,
		ManualSize:       4 << 10,
		NumCompPerModule: 4,
		NumAssmPerAssm:   2,
		NumAssmLevels:    2,
		NumCompPerAssm:   2,
		NumModules:       1,
	}
}

// sweepClientConfig is the client configuration of the system's scheme,
// sized for the sweeps.
func sweepClientConfig(sys SweepSystem) client.Config {
	return client.Config{
		Scheme:         sys.Scheme,
		PoolPages:      sweepClientPool,
		ShipDirtyPages: sys.Mode != server.ModeREDO,
	}
}

func sweepClient(sys SweepSystem, svc wire.Service) *client.Client {
	return client.New(sweepClientConfig(sys), svc)
}

// --- stamp journal ----------------------------------------------------------

// stampTxn journals one stamp transaction: the position clock read
// immediately before and after its commit call, its transaction id, and what
// it wrote (x = y = val into every one of parts).
type stampTxn struct {
	pre, post int64
	tid       logrec.TID
	parts     []page.OID
	val       uint32
}

// journal is the record of one seeded stamp workload: the objects it stamps,
// their (x, y) before any stamp, and every stamp transaction whose commit
// was attempted, in order. The client is serial, so the stamps committed at
// any position form a prefix of txns.
type journal struct {
	parts []page.OID
	init  [][2]uint32
	txns  []stampTxn
	// manual is the module's manual, the one large object of the miniature
	// database; no check reads it, so a kind may overwrite it as ballast.
	manual page.OID
	// buildEnd is the clock once parts and init were complete; positions
	// below it fall inside the build, where only recovery itself is checked.
	buildEnd int64
	// clock reads the kind's position: the fuse count for the crash kinds,
	// the stable end for repl, the 2PC message count for twopc-stall.
	clock func() int64
	// pick chooses the objects stamp i writes; pair unless the kind sets it.
	pick func(i int) []page.OID
	// pad, if non-nil, runs inside stamp i's transaction once its objects are
	// stamped, for writes the journal does not model.
	pad func(tx *client.Tx, i int) error
	// stampXY and readXY write and read a part's (x, y); they are oo7's unless
	// the kind lays out its own objects.
	stampXY func(tx *client.Tx, part page.OID, val uint32) error
	readXY  func(tx *client.Tx, part page.OID) (x, y uint32, err error)
}

func newJournal(clock func() int64) *journal {
	j := &journal{buildEnd: math.MaxInt64, clock: clock, stampXY: oo7.StampXY, readXY: oo7.ReadXY}
	j.pick = j.pair
	return j
}

// build lays out the miniature OO7 database and journals its atomic parts
// and their pristine values (read in a read-only transaction: no stable
// events).
func (j *journal) build(cli *client.Client, seed int64) error {
	db, err := oo7.Build(cli, sweepDBConfig(), seed)
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	parts, err := oo7.CollectAtomicParts(cli, &db.Modules[0])
	if err != nil {
		return fmt.Errorf("collect: %w", err)
	}
	j.parts, j.manual = parts, db.Modules[0].Manual
	if j.init, err = j.readParts(cli); err != nil {
		return fmt.Errorf("baseline %w", err)
	}
	j.buildEnd = j.clock()
	return nil
}

// stamps runs stamp transactions until the journal holds upTo of them,
// calling between (if non-nil) after each commit — outside the pre/post
// bracket, so whatever it does (a cleaner batch, a drain) never blurs which
// stamps a position covers. A stamp whose commit fails is journaled too: it
// was in flight, and recovery may legally land it either way.
func (j *journal) stamps(cli *client.Client, upTo int, between func(i int) error) error {
	for i := len(j.txns); i < upTo; i++ {
		st := stampTxn{val: stampBase + uint32(i)}
		st.parts = j.pick(i)
		tx, err := cli.Begin()
		if err != nil {
			return fmt.Errorf("stamp %d begin: %w", i, err)
		}
		st.tid = tx.TID()
		for _, p := range st.parts {
			if err := j.stampXY(tx, p, st.val); err != nil {
				tx.Abort()
				return fmt.Errorf("stamp %d write: %w", i, err)
			}
		}
		if j.pad != nil {
			if err := j.pad(tx, i); err != nil {
				tx.Abort()
				return fmt.Errorf("stamp %d pad: %w", i, err)
			}
		}
		st.pre = j.clock()
		err = tx.Commit()
		st.post = j.clock()
		j.txns = append(j.txns, st)
		if err != nil {
			return fmt.Errorf("stamp %d commit: %w", i, err)
		}
		if between != nil {
			if err := between(i); err != nil {
				return fmt.Errorf("after stamp %d: %w", i, err)
			}
		}
	}
	return nil
}

// pair is the default pick: two parts, walking the part list pairwise.
func (j *journal) pair(i int) []page.OID {
	return []page.OID{j.parts[(2*i)%len(j.parts)], j.parts[(2*i+1)%len(j.parts)]}
}

// postFromLog re-times every stamp's post to the exclusive end of its commit
// record (never = no such record). The log-clocked kinds use it because the
// stable end after a commit call may also cover a checkpoint record the
// commit path appended right behind the commit record, and a cut between
// the two must still count the transaction durable.
func (j *journal) postFromLog(commitEnd map[logrec.TID]uint64) {
	for i := range j.txns {
		j.txns[i].post = math.MaxInt64
		if end, ok := commitEnd[j.txns[i].tid]; ok {
			j.txns[i].post = int64(end)
		}
	}
}

// byTID finds a journaled stamp by transaction id.
func (j *journal) byTID(tid logrec.TID) *stampTxn {
	for i := range j.txns {
		if j.txns[i].tid == tid {
			return &j.txns[i]
		}
	}
	return nil
}

// model returns the expected x value of every part once the first k stamp
// transactions (and nothing else) have been applied.
func (j *journal) model(k int) []uint32 {
	vals := make([]uint32, len(j.init))
	idx := make(map[page.OID]int, len(j.parts))
	for i, p := range j.parts {
		vals[i] = j.init[i][0]
		idx[p] = i
	}
	for _, st := range j.txns[:k] {
		for _, p := range st.parts {
			vals[idx[p]] = st.val
		}
	}
	return vals
}

// check holds a post-recovery reading of every part (got[i] is part i's x
// and y) to the journal at position point: every stamp whose commit call
// had finished by then (post ≤ point) is durable, every other one is rolled
// back, and no object is torn. With atomicBoundary, the one stamp whose
// commit straddles point (pre ≤ point < post) may instead be wholly applied
// — the kinds whose clock cannot tell whether its commit record made it.
// It returns "" or the violated invariant.
func (j *journal) check(got [][2]uint32, point int64, atomicBoundary bool) string {
	kc := 0
	for kc < len(j.txns) && j.txns[kc].post <= point {
		kc++
	}
	for i := kc; i < len(j.txns); i++ {
		if j.txns[i].post <= point {
			return fmt.Sprintf("journal not prefix-closed: stamp %d committed by %d but stamp %d did not", i, point, kc)
		}
	}
	for i, xy := range got {
		// Stamps write x = y; anything else is the untouched build state or
		// half an update.
		if xy[0] != xy[1] && xy != j.init[i] {
			return fmt.Sprintf("part %v has x=%d y=%d (stamps always write x=y: torn object update)", j.parts[i], xy[0], xy[1])
		}
	}
	mismatch := func(want []uint32) int {
		for i := range want {
			if got[i][0] != want[i] {
				return i
			}
		}
		return -1
	}
	committed := j.model(kc)
	i := mismatch(committed)
	if i < 0 {
		return "" // exactly the committed prefix
	}
	if !atomicBoundary || kc == len(j.txns) || j.txns[kc].pre > point {
		return fmt.Sprintf("part %v = %d, want %d (committed prefix of %d of %d stamps; none was mid-commit)",
			j.parts[i], got[i][0], committed[i], kc, len(j.txns))
	}
	withBoundary := j.model(kc + 1)
	if b := mismatch(withBoundary); b >= 0 {
		return fmt.Sprintf("state matches neither %d committed stamps (part %v: got %d want %d) nor %d "+
			"(part %v: got %d want %d): boundary stamp applied non-atomically",
			kc, j.parts[i], got[i][0], committed[i], kc+1, j.parts[b], got[b][0], withBoundary[b])
	}
	return "" // boundary stamp wholly durable: also legal
}

// readParts reads every part's (x, y) in one read-only transaction.
func (j *journal) readParts(cli *client.Client) ([][2]uint32, error) {
	tx, err := cli.Begin()
	if err != nil {
		return nil, fmt.Errorf("begin: %w", err)
	}
	defer tx.Abort()
	got := make([][2]uint32, len(j.parts))
	for i, p := range j.parts {
		x, y, err := j.readXY(tx, p)
		if err != nil {
			return nil, fmt.Errorf("read of part %v: %w", p, err)
		}
		got[i] = [2]uint32{x, y}
	}
	return got, nil
}

// verify reads every journaled part through cli and checks the reading
// against the journal at point.
func (j *journal) verify(cli *client.Client, point int64, atomicBoundary bool) string {
	got, err := j.readParts(cli)
	if err != nil {
		return fmt.Sprintf("verification %v", err)
	}
	return j.check(got, point, atomicBoundary)
}

// --- fused node and recover-twice --------------------------------------------

// node is one server over its own volume and log. Both stable-storage
// channels — data-page writes and advances of the log's stable end — plus
// the head pointer a truncation persists can be routed through a counting
// fuse, so each is one numbered event and everything past the fuse's limit
// is silently swallowed: stable storage freezes in exactly the state a crash
// right after that event would leave, torn log tail included.
type node struct {
	mem   *disk.MemStore
	store disk.Store // what the server writes: mem, behind the fuse while armed
	log   *wal.Log
	cfg   func(store disk.Store, log *wal.Log) server.Config
	srv   *server.Server
	// flushes lists the fuse counts at which the armed log advanced (or would
	// have advanced) its stable end; every other event is a page write or a
	// head-pointer write.
	flushes []int64
}

func newNode(fuse *faultinject.Fuse, logCapacity int, cfg func(disk.Store, *wal.Log) server.Config) *node {
	n := &node{mem: disk.NewMemStore(), log: wal.New(logCapacity), cfg: cfg}
	n.arm(fuse)
	n.srv = server.New(cfg(n.store, n.log))
	return n
}

// arm routes the node's stable storage through fuse; nil thaws it.
func (n *node) arm(fuse *faultinject.Fuse) {
	if fuse == nil {
		n.store = n.mem
		n.log.SetFlushLimiter(nil)
		n.log.SetTruncateGate(nil)
		return
	}
	n.flushes = nil // the log calls the limiter under its own mutex; none is installed here
	n.store = faultinject.NewSweepStore(n.mem, fuse)
	n.log.SetFlushLimiter(func(proposed uint64) uint64 {
		at, ok := fuse.Event()
		n.flushes = append(n.flushes, at)
		if !ok {
			return 0 // frozen: clamped back to the current stable end
		}
		return proposed
	})
	n.log.SetTruncateGate(func() bool {
		_, ok := fuse.Event()
		return ok
	})
}

// crash loses the node's volatile state (the log trims its possibly torn
// tail) and thaws stable storage for recovery.
func (n *node) crash() {
	n.srv.Crash()
	n.arm(nil)
}

// restart recovers on a fresh server adopting the surviving store and log.
func (n *node) restart() error {
	n.srv = server.New(n.cfg(n.store, n.log))
	return n.srv.NewSession(nil, nil).Restart()
}

// crashAndRestart crashes every node, then restarts every node; it returns
// "" or which restart failed.
func crashAndRestart(nodes []*node, which string) string {
	for _, n := range nodes {
		n.crash()
	}
	for i, n := range nodes {
		if err := n.restart(); err != nil {
			return fmt.Sprintf("%s of node %d failed: %v", which, i, err)
		}
	}
	return ""
}

// restartUnchanged crashes and restarts already-recovered nodes and demands
// that no data page changed: recovering the recovered system is a no-op
// (conditional redo, WPL reinstall on a clean state).
func restartUnchanged(nodes ...*node) (string, error) {
	before, err := dumpNodes(nodes)
	if err != nil {
		return "", err
	}
	if d := crashAndRestart(nodes, "second restart"); d != "" {
		return d, nil
	}
	after, err := dumpNodes(nodes)
	if err != nil {
		return "", err
	}
	for i := range nodes {
		if d := diffDumps(before[i], after[i]); d != "" {
			return fmt.Sprintf("restart not idempotent: node %d: %s", i, d), nil
		}
	}
	return "", nil
}

// recoverTwice is the recovery half of a replay: crash every node, restart
// every node, run the kind's check against the recovered servers, then
// restartUnchanged. It returns "" or the first violated invariant.
func recoverTwice(nodes []*node, check func() string) (string, error) {
	if d := crashAndRestart(nodes, "restart"); d != "" {
		return d, nil
	}
	if d := check(); d != "" {
		return d, nil
	}
	return restartUnchanged(nodes...)
}

func dumpNodes(nodes []*node) ([]map[page.ID][]byte, error) {
	out := make([]map[page.ID][]byte, len(nodes))
	for i, n := range nodes {
		d, err := dumpStore(n.mem)
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

// dumpStore snapshots every data page (the superblock, page 0, is excluded:
// restart legitimately rewrites its checkpoint pointer and counters).
func dumpStore(st disk.Store) (map[page.ID][]byte, error) {
	out := make(map[page.ID][]byte)
	err := st.ForEachPage(func(id page.ID, data []byte) error {
		if id == 0 {
			return nil
		}
		out[id] = append([]byte(nil), data...)
		return nil
	})
	return out, err
}

// diffDumps describes the first difference between two store dumps, or ""
// if they are identical. Pages are compared in ascending id order so the
// reported "first" difference is the same on every run (map iteration order
// is randomized).
func diffDumps(a, b map[page.ID][]byte) string {
	ids := make([]page.ID, 0, len(a))
	for id := range a {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		pa := a[id]
		pb, ok := b[id]
		if !ok {
			return fmt.Sprintf("page %v vanished", id)
		}
		for i := range pa {
			if pa[i] != pb[i] {
				return fmt.Sprintf("page %v byte %d: %d != %d", id, i, pa[i], pb[i])
			}
		}
	}
	extra := make([]page.ID, 0, len(b))
	for id := range b {
		if _, ok := a[id]; !ok {
			extra = append(extra, id)
		}
	}
	if len(extra) > 0 {
		sort.Slice(extra, func(i, j int) bool { return extra[i] < extra[j] })
		return fmt.Sprintf("page %v appeared", extra[0])
	}
	return ""
}

// --- failures, reports and the sweep loop -------------------------------------

// Failure is one violated invariant, with everything needed to reproduce it.
type Failure struct {
	Kind   string
	System string
	Seed   int64
	Point  int64
	Detail string
}

// Error formats the failure with its reproduction recipe.
func (f *Failure) Error() string {
	return fmt.Sprintf("%s sweep failure: system=%s seed=%d point=%d: %s (reproduce: harness.Replay(%q, %q, %d, %d))",
		f.Kind, f.System, f.Seed, f.Point, f.Detail, f.Kind, f.System, f.Seed, f.Point)
}

// Report summarizes one sweep of one kind over one system.
type Report struct {
	Kind     string
	System   string
	Seed     int64
	Points   int64   // points the kind enumerated for this (system, seed)
	Note     string  // the kind's coverage line (segments sealed, pages damaged, ...)
	Replayed []int64 // points actually replayed (budget-limited)
	Failures []*Failure
}

// pointSpace is what a kind's open returns: the points 1..n it enumerated
// for one (system, seed) and how to replay one. replay returns "" when the
// point passed, the violated invariant when it did not, and an error only
// when the sweep itself could not run.
type pointSpace struct {
	n      int64
	always []int64 // ascending points replayed whatever the budget
	note   string
	replay func(point int64) (string, error)
}

// sample returns the points a sweep of this budget replays, ascending: an
// even sample of 1..n plus the always-replayed ones.
func (sp *pointSpace) sample(budget int) []int64 {
	pts := append(samplePoints(sp.n, budget), sp.always...)
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	out := pts[:0]
	for i, p := range pts {
		if i == 0 || p != pts[i-1] {
			out = append(out, p)
		}
	}
	return out
}

// sweepKind is one row of the kinds table.
type sweepKind struct {
	name string
	open func(sys SweepSystem, seed int64) (*pointSpace, error)
}

// sweepKinds lists every sweep kind; DESIGN.md §2.3 has the same table with
// each kind's topology, fault source, cut space and extra assertions.
func sweepKinds() []sweepKind {
	return []sweepKind{
		{"crash", func(sys SweepSystem, seed int64) (*pointSpace, error) { return openCrash(sys, seed, crashVariant{}) }},
		{"fuzzy", func(sys SweepSystem, seed int64) (*pointSpace, error) { return openCrash(sys, seed, fuzzyVariant) }},
		{"restart-crash", openRestartCrash},
		{"group", openGroup},
		{"media", openMedia},
		{"scrub", openScrub},
		{"repl", openRepl},
		{"twopc", func(sys SweepSystem, seed int64) (*pointSpace, error) { return openTwoPC(sys, seed, false) }},
		{"twopc-stall", func(sys SweepSystem, seed int64) (*pointSpace, error) { return openTwoPC(sys, seed, true) }},
	}
}

// ErrUnknownSweep is returned (wrapped) by Sweep and Replay for a kind or
// system name that is not in the tables.
var ErrUnknownSweep = errors.New("harness: unknown sweep")

func lookupSweep(kind, system string) (sweepKind, SweepSystem, error) {
	for _, k := range sweepKinds() {
		if k.name != kind {
			continue
		}
		for _, sys := range SweepSystems() {
			if sys.Name == system {
				return k, sys, nil
			}
		}
		return sweepKind{}, SweepSystem{}, fmt.Errorf("%w system %q", ErrUnknownSweep, system)
	}
	return sweepKind{}, SweepSystem{}, fmt.Errorf("%w kind %q", ErrUnknownSweep, kind)
}

// Sweep enumerates the kind's points for (system, seed) and replays up to
// budget of them (≤ 0 = all), evenly spaced so the sample always covers the
// first and last, plus whatever the kind always replays. Failures
// accumulate; they do not stop the sweep.
func Sweep(kind, system string, seed int64, budget int) (*Report, error) {
	k, sys, err := lookupSweep(kind, system)
	if err != nil {
		return nil, err
	}
	sp, err := k.open(sys, seed)
	if err != nil {
		return nil, fmt.Errorf("%s sweep (system=%s seed=%d): %w", kind, system, seed, err)
	}
	rep := &Report{Kind: kind, System: system, Seed: seed, Points: sp.n, Note: sp.note, Replayed: sp.sample(budget)}
	for _, p := range rep.Replayed {
		detail, err := sp.replay(p)
		if err != nil {
			return nil, fmt.Errorf("%s sweep (system=%s seed=%d point=%d): %w", kind, system, seed, p, err)
		}
		if detail != "" {
			rep.Failures = append(rep.Failures, &Failure{Kind: kind, System: system, Seed: seed, Point: p, Detail: detail})
		}
	}
	return rep, nil
}

// Replay re-runs a single point — the reproduction entry point printed with
// every failure. A nil failure means the point passed.
func Replay(kind, system string, seed, point int64) (*Failure, error) {
	k, sys, err := lookupSweep(kind, system)
	if err != nil {
		return nil, err
	}
	sp, err := k.open(sys, seed)
	if err != nil {
		return nil, err
	}
	if point < 1 || point > sp.n {
		return nil, fmt.Errorf("harness: %s point %d out of range 1..%d (system=%s seed=%d)", kind, point, sp.n, system, seed)
	}
	detail, err := sp.replay(point)
	if err != nil || detail == "" {
		return nil, err
	}
	return &Failure{Kind: kind, System: system, Seed: seed, Point: point, Detail: detail}, nil
}

// samplePoints picks up to budget points from 1..n, evenly spaced,
// including 1 and n.
func samplePoints(n int64, budget int) []int64 {
	if n <= 0 {
		return nil
	}
	if budget <= 0 || int64(budget) >= n {
		pts := make([]int64, 0, n)
		for p := int64(1); p <= n; p++ {
			pts = append(pts, p)
		}
		return pts
	}
	pts := make([]int64, 0, budget)
	var last int64
	for i := 0; i < budget; i++ {
		p := 1 + (n-1)*int64(i)/int64(budget-1)
		if p != last {
			pts = append(pts, p)
			last = p
		}
	}
	return pts
}
