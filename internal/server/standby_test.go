package server

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/lock"
	"repro/internal/logrec"
	"repro/internal/page"
	"repro/internal/wal"
)

// replPair is a primary and a standby glued together by an in-process
// shipper: ship() forces the primary's log, scans everything stable past the
// cursor, replays it through ApplyShipped, and forces the standby's log (the
// batch-wise force ApplyShipped's contract requires). A "standby" retention
// holder on the primary's log keeps checkpoint truncation behind the cursor,
// as the live log shipper does.
type replPair struct {
	p, s     *Server
	psn, ssn *Session
	cursor   uint64
	hold     *wal.Holder // the primary log's "standby" holder, kept at cursor
}

func newReplPair(t *testing.T, mode Mode, primary, standby Config) *replPair {
	t.Helper()
	fill := func(cfg *Config, mode Mode) {
		cfg.Mode = mode
		if cfg.PoolPages == 0 {
			cfg.PoolPages = 16
		}
		if cfg.LogCapacity == 0 {
			cfg.LogCapacity = 16 << 20
		}
		if cfg.LockTimeout == 0 {
			cfg.LockTimeout = time.Second
		}
		if cfg.CheckpointEvery == 0 {
			cfg.CheckpointEvery = 1 << 30
		}
	}
	fill(&primary, mode)
	fill(&standby, mode)
	standby.Standby = true
	p := New(primary)
	s := New(standby)
	pr := &replPair{p: p, s: s, psn: p.NewSession(nil, nil), ssn: s.NewSession(nil, nil), cursor: p.log.Head()}
	pr.hold = p.log.Hold("standby", pr.cursor, nil, 0)
	return pr
}

func (pr *replPair) ship(t *testing.T) {
	t.Helper()
	pr.p.log.Force()
	next, err := pr.p.log.ScanFrom(pr.cursor, func(r *logrec.Record) bool {
		if err := pr.ssn.ApplyShipped(r); err != nil {
			t.Fatalf("ApplyShipped(%v at %d): %v", r.Type, r.LSN, err)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	pr.cursor = next
	pr.hold.Set(next)
	pr.s.log.Force()
	// Both sides log through the same step, so at a ship boundary — everything
	// the primary logged is stable and applied — their tables agree, modulo
	// what each side's own write-homes and installs have retired.
	if d := diffTables(pr.p.liveView(), pr.s.liveView(), pr.p, pr.s); len(d) != 0 {
		t.Fatalf("tables diverge at the ship boundary %d (primary vs standby):\n%s", next, strings.Join(d, "\n"))
	}
	// And the standby's are what restart analysis would build from its own log.
	// Holds until the first mirrored checkpoint: that one logs the primary's
	// tables, and a standby's write-homes are its own.
	if pr.s.Stats().Checkpoints == 0 {
		if d := diffTables(pr.s.liveView(), analysisView(t, pr.s), pr.s, nil); len(d) != 0 {
			t.Fatalf("the standby's tables are not what analysis of its log builds (live vs analysis):\n%s", strings.Join(d, "\n"))
		}
	}
}

// TestStandbyApplyAndPromote drives a committed and an in-flight transaction
// through the shipper for each scheme, reads the committed state on the live
// standby, then promotes and checks the promoted node recovered exactly as a
// crashed primary would: committed updates durable, the in-flight loser
// rolled back, and the node writable again.
func TestStandbyApplyAndPromote(t *testing.T) {
	for _, mode := range []Mode{ModeESM, ModeREDO, ModeWPL} {
		t.Run(mode.String(), func(t *testing.T) {
			pr := newReplPair(t, mode, Config{}, Config{})
			defer pr.p.Close()
			defer pr.s.Close()

			pid1, slot1 := createPage(t, pr.psn, []byte("alpha"))
			pid2, slot2 := createPage(t, pr.psn, []byte("beta."))
			updateObject(t, pr.psn, pid1, slot1, []byte("ALPHA"), true)
			pr.ship(t)

			// Standby reads see the applied committed state without ending
			// standby mode.
			if !pr.s.Standby() {
				t.Fatal("standby flag not set")
			}
			if got := readObject(t, pr.ssn, pid1, slot1, 5); string(got) != "ALPHA" {
				t.Fatalf("standby read = %q, want ALPHA", got)
			}

			// A loser: updates shipped, no commit record before promotion.
			updateObject(t, pr.psn, pid2, slot2, []byte("LOSER"), false)
			pr.ship(t)

			if err := pr.ssn.Promote(); err != nil {
				t.Fatal(err)
			}
			if pr.s.Standby() {
				t.Fatal("standby flag still set after promotion")
			}
			if got := readObject(t, pr.ssn, pid1, slot1, 5); string(got) != "ALPHA" {
				t.Fatalf("promoted read = %q, want ALPHA", got)
			}
			if got := readObject(t, pr.ssn, pid2, slot2, 5); string(got) != "beta." {
				t.Fatalf("promoted read of loser page = %q, want beta. (rolled back)", got)
			}
			// The promoted node accepts writes.
			updateObject(t, pr.ssn, pid1, slot1, []byte("post!"), true)
			if got := readObject(t, pr.ssn, pid1, slot1, 5); string(got) != "post!" {
				t.Fatalf("post-promotion write read back %q", got)
			}
			// Promote is not idempotent: the node is a primary now.
			if err := pr.ssn.Promote(); !errors.Is(err, ErrModeViolation) {
				t.Fatalf("second Promote = %v, want ErrModeViolation", err)
			}
		})
	}
}

// TestStandbyRejectsLocalWrites checks every mutation guard: local sessions
// get read-only transactions from the reserved TID range and every write
// path fails typed, including committing a replicated transaction.
func TestStandbyRejectsLocalWrites(t *testing.T) {
	pr := newReplPair(t, ModeESM, Config{}, Config{})
	defer pr.p.Close()
	defer pr.s.Close()

	pid, slot := createPage(t, pr.psn, []byte("guard"))
	pr.ship(t)

	tid := pr.ssn.Begin()
	if tid < standbyTIDBase {
		t.Fatalf("standby TID %d below reserved base %d", tid, standbyTIDBase)
	}
	if _, err := pr.ssn.AllocPage(tid); !errors.Is(err, ErrStandby) {
		t.Fatalf("AllocPage = %v, want ErrStandby", err)
	}
	rec := logrec.NewPageImage(tid, pid, make([]byte, page.Size))
	if err := pr.ssn.ShipLog(tid, rec.Encode(nil)); !errors.Is(err, ErrStandby) {
		t.Fatalf("ShipLog = %v, want ErrStandby", err)
	}
	if err := pr.ssn.ShipPage(tid, pid, make([]byte, page.Size)); !errors.Is(err, ErrStandby) {
		t.Fatalf("ShipPage = %v, want ErrStandby", err)
	}
	if err := pr.ssn.Checkpoint(); !errors.Is(err, ErrStandby) {
		t.Fatalf("Checkpoint = %v, want ErrStandby", err)
	}
	// Read-only transactions commit (and abort) locally just fine.
	if got := readObject(t, pr.ssn, pid, slot, 5); string(got) != "guard" {
		t.Fatalf("standby read = %q", got)
	}
	// A replicated transaction's fate belongs to the primary.
	loser := pr.psn.Begin()
	if _, err := pr.psn.AllocPage(loser); err != nil {
		t.Fatal(err)
	}
	data, _ := makePage(t, pid+1, []byte("inflt"))
	lrec := logrec.NewPageImage(loser, pid+1, data)
	if err := pr.psn.ShipLog(loser, lrec.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	pr.ship(t)
	if err := pr.ssn.Commit(loser); !errors.Is(err, ErrStandby) {
		t.Fatalf("Commit(replicated tid) = %v, want ErrStandby", err)
	}
	if err := pr.ssn.Abort(loser); !errors.Is(err, ErrStandby) {
		t.Fatalf("Abort(replicated tid) = %v, want ErrStandby", err)
	}
}

// TestStandbyMirrorsCheckpoint ships a fuzzyCheckpoint and checks the
// standby mirrors its side effects — master record, allocation counters, log
// reclamation — and that a record arriving with a gap is refused.
func TestStandbyMirrorsCheckpoint(t *testing.T) {
	pr := newReplPair(t, ModeESM, Config{}, Config{})
	defer pr.p.Close()
	defer pr.s.Close()

	var pids []page.ID
	var slots []int
	for i := 0; i < 4; i++ {
		pid, slot := createPage(t, pr.psn, []byte("ckpt!"))
		pids = append(pids, pid)
		slots = append(slots, slot)
	}
	pr.ship(t)
	if err := fuzzyCheckpoint(pr.psn); err != nil {
		t.Fatal(err)
	}
	pr.ship(t)

	if got, want := pr.s.log.Head(), pr.p.log.Head(); got != want {
		t.Fatalf("standby log head = %d, want primary's %d", got, want)
	}
	if pr.s.Stats().Checkpoints != 1 {
		t.Fatalf("standby mirrored %d checkpoints, want 1", pr.s.Stats().Checkpoints)
	}
	// The mirrored master record carries the primary's allocation frontier.
	pr.s.allocMu.Lock()
	nextPage := pr.s.nextPage
	pr.s.allocMu.Unlock()
	if want := pids[len(pids)-1] + 1; nextPage < want {
		t.Fatalf("standby nextPage = %d, want at least %d", nextPage, want)
	}

	// Promotion after reclamation restarts from the mirrored checkpoint.
	if err := pr.ssn.Promote(); err != nil {
		t.Fatal(err)
	}
	for i, pid := range pids {
		if got := readObject(t, pr.ssn, pid, slots[i], 5); string(got) != "ckpt!" {
			t.Fatalf("page %d after promotion = %q", pid, got)
		}
	}

	// A cold standby fed the post-truncation stream must refuse the gap.
	cold := New(Config{Mode: ModeESM, Standby: true, PoolPages: 16, LogCapacity: 16 << 20, LockTimeout: time.Second, CheckpointEvery: 1 << 30})
	defer cold.Close()
	csn := cold.NewSession(nil, nil)
	_, slot2 := createPage(t, pr.ssn, []byte("gap.."))
	pr.s.log.Force()
	var gapErr error
	if _, err := pr.s.log.ScanFrom(pr.s.log.Head(), func(r *logrec.Record) bool {
		gapErr = csn.ApplyShipped(r)
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if gapErr == nil {
		t.Fatal("cold standby accepted a stream starting past its log end")
	}
	_ = slot2
}

// TestStandbyByteIdenticalLog: the standby re-appends shipped records at
// identical LSNs, so both logs hold byte-identical stable prefixes — the
// invariant promotion's byte-equivalence rests on.
func TestStandbyByteIdenticalLog(t *testing.T) {
	for _, mode := range []Mode{ModeESM, ModeREDO, ModeWPL} {
		t.Run(mode.String(), func(t *testing.T) {
			pr := newReplPair(t, mode, Config{}, Config{})
			defer pr.p.Close()
			defer pr.s.Close()
			pid, slot := createPage(t, pr.psn, []byte("bytes"))
			updateObject(t, pr.psn, pid, slot, []byte("BYTES"), true)
			updateObject(t, pr.psn, pid, slot, []byte("bYtEs"), false) // aborts: CLRs/unlink in stream
			pr.ship(t)

			dump := func(l *wal.Log) []byte {
				var out []byte
				if err := l.Scan(l.Head(), func(r *logrec.Record) bool {
					out = r.Encode(out)
					return true
				}); err != nil {
					t.Fatal(err)
				}
				return out
			}
			pBytes, sBytes := dump(pr.p.log), dump(pr.s.log)
			if !bytes.Equal(pBytes, sBytes) {
				t.Fatalf("log streams diverge: primary %d bytes, standby %d bytes", len(pBytes), len(sBytes))
			}
		})
	}
}

// TestPromoteWhileCleanerRunning promotes a standby whose background page
// cleaner is actively draining its DPT (run with -race in CI): Restart's
// quiesce gate plus the cleaner's ErrRestarting fast-fail must make the two
// coexist without a torn write or a deadlock.
func TestPromoteWhileCleanerRunning(t *testing.T) {
	pr := newReplPair(t, ModeESM, Config{}, Config{
		CleanerEvery: 100 * time.Microsecond,
		PoolPages:    256,
	})
	defer pr.p.Close()
	defer pr.s.Close()

	var pids []page.ID
	var slots []int
	for i := 0; i < 40; i++ {
		pid, slot := createPage(t, pr.psn, []byte("clean"))
		pids = append(pids, pid)
		slots = append(slots, slot)
	}
	pr.ship(t) // a 40-entry DPT for the cleaner to chew on
	time.Sleep(2 * time.Millisecond)
	if err := pr.ssn.Promote(); err != nil {
		t.Fatal(err)
	}
	for i, pid := range pids {
		if got := readObject(t, pr.ssn, pid, slots[i], 5); string(got) != "clean" {
			t.Fatalf("page %d after promotion = %q", pid, got)
		}
	}
}

// TestPromoteWhileScrubbing promotes a standby whose background scrubber is
// mid-pass over a checksummed volume (run with -race in CI).
func TestPromoteWhileScrubbing(t *testing.T) {
	mem := disk.NewMemStore()
	pr := newReplPair(t, ModeESM, Config{}, Config{
		Store:      disk.NewChecksummed(mem),
		ScrubEvery: 100 * time.Microsecond,
		PoolPages:  256,
	})
	defer pr.p.Close()
	defer pr.s.Close()

	var pids []page.ID
	var slots []int
	for i := 0; i < 40; i++ {
		pid, slot := createPage(t, pr.psn, []byte("scrub"))
		pids = append(pids, pid)
		slots = append(slots, slot)
	}
	pr.ship(t)
	if err := fuzzyCheckpoint(pr.psn); err != nil { // ships the alloc frontier
		t.Fatal(err)
	}
	pr.ship(t)
	time.Sleep(2 * time.Millisecond)
	if err := pr.ssn.Promote(); err != nil {
		t.Fatal(err)
	}
	for i, pid := range pids {
		if got := readObject(t, pr.ssn, pid, slots[i], 5); string(got) != "scrub" {
			t.Fatalf("page %d after promotion = %q", pid, got)
		}
	}
}

// TestStandbyReadsConcurrentWithApply runs read-only standby sessions racing
// the applier goroutine (run with -race in CI): shipped-apply and local
// reads share the normal gate.R concurrency model.
func TestStandbyReadsConcurrentWithApply(t *testing.T) {
	pr := newReplPair(t, ModeESM, Config{}, Config{PoolPages: 256})
	defer pr.p.Close()
	defer pr.s.Close()

	pid, slot := createPage(t, pr.psn, []byte("race0"))
	pr.ship(t)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rsn := pr.s.NewSession(nil, nil)
			for {
				select {
				case <-stop:
					return
				default:
				}
				got := readObject(t, rsn, pid, slot, 5)
				if string(got[:4]) != "race" {
					t.Errorf("standby read = %q", got)
					return
				}
			}
		}()
	}
	for i := 1; i <= 30; i++ {
		val := []byte("race" + string(rune('0'+i%10)))[:5]
		updateObject(t, pr.psn, pid, slot, val, true)
		pr.ship(t)
	}
	close(stop)
	wg.Wait()
}

// failingStore rejects writes of one page — or, armed with everyPage, of
// every data page — while armed; superblock writes always go through. armRead
// does the same for reads of one page.
type failingStore struct {
	disk.Store
	mu       sync.Mutex
	fail     page.ID // 0 = healthy
	failRead page.ID // 0 = healthy
}

const everyPage = ^page.ID(0)

func (f *failingStore) arm(pid page.ID) {
	f.mu.Lock()
	f.fail = pid
	f.mu.Unlock()
}

func (f *failingStore) armRead(pid page.ID) {
	f.mu.Lock()
	f.failRead = pid
	f.mu.Unlock()
}

func (f *failingStore) ReadPage(id page.ID, buf []byte) error {
	f.mu.Lock()
	fail := f.failRead
	f.mu.Unlock()
	if id != superblockPage && id == fail {
		return errors.New("failingStore: injected read error")
	}
	return f.Store.ReadPage(id, buf)
}

func (f *failingStore) WritePage(id page.ID, data []byte) error {
	f.mu.Lock()
	fail := f.fail
	f.mu.Unlock()
	if id != superblockPage && (id == fail || fail == everyPage) {
		return errors.New("failingStore: injected write error")
	}
	return f.Store.WritePage(id, data)
}

// TestStandbyWPLKeepsUninstalledCopyAcrossShippedCheckpoint: the standby's
// install of a committed copy is deferred by a disk error while the primary's
// succeeds, so the primary's next checkpoint logs an empty WPL table. The
// standby must not reclaim its log past the copy its own table still names —
// reads reload it from there — and must retry the install when it mirrors a
// checkpoint, so the copy is home before the log moves on and a promotion
// finds the committed value.
func TestStandbyWPLKeepsUninstalledCopyAcrossShippedCheckpoint(t *testing.T) {
	store := &failingStore{Store: disk.NewMemStore()}
	pr := newReplPair(t, ModeWPL, Config{}, Config{Store: store})
	defer pr.p.Close()
	defer pr.s.Close()
	read := func(when string, want string) {
		t.Helper()
		tid := pr.ssn.Begin()
		defer pr.ssn.Commit(tid)
		data, err := readPage(pr.ssn, tid, 1, lock.Shared)
		if err != nil {
			t.Errorf("%s: %v", when, err)
			return
		}
		if got := make([]byte, len(want)); page.Wrap(data).ReadAt(0, 0, got) != nil || string(got) != want {
			t.Errorf("%s: read %q, want %q", when, got, want)
		}
	}

	pid, slot := createPage(t, pr.psn, []byte("old value"))
	if pid != 1 || slot != 0 {
		t.Fatalf("created P%d slot %d, want P1 slot 0", pid, slot)
	}
	pr.ship(t)
	store.arm(pid)
	updateObject(t, pr.psn, pid, slot, []byte("new value"), true)
	pr.ship(t)
	if n := pr.s.Stats().InstallsDeferred; n != 1 {
		t.Fatalf("InstallsDeferred = %d, want 1", n)
	}
	pr.s.wplMu.Lock()
	e := pr.s.wpl[pid]
	pr.s.wplMu.Unlock()
	if e == nil || !e.committed {
		t.Fatalf("the deferred install left table entry %+v, want the committed copy", e)
	}

	// The primary installed its copy, so its checkpoint logs an empty table;
	// a few commits first, so the checkpoint's own head lies well above e.
	for i := 0; i < 2; i++ {
		createPage(t, pr.psn, []byte("filler"))
	}
	if err := pr.psn.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	pr.ship(t) // the standby retries the install: still failing
	pr.s.wplMu.Lock()
	still := pr.s.wpl[pid] == e
	pr.s.wplMu.Unlock()
	if !still {
		t.Fatal("the entry left the table although its install cannot have succeeded")
	}
	if head := pr.s.log.Holders().Head; head > e.lsn {
		t.Errorf("standby log head %d passed the uninstalled copy at %d", head, e.lsn)
	}
	read("standby read across the shipped checkpoint", "new value")

	// The disk heals; the next mirrored checkpoint brings the copy home.
	store.arm(0)
	createPage(t, pr.psn, []byte("filler"))
	if err := pr.psn.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	pr.ship(t)
	if err := pr.ssn.Promote(); err != nil {
		t.Fatal(err)
	}
	read("read after promotion", "new value")
}
