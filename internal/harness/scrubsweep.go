package harness

// The scrub kind (DESIGN.md §2.3, §12): node + archiver over a checksummed
// volume; the fault is silent bit rot and torn writes injected below the
// checksum envelope, straight into the raw volume (faultinject.RotPage /
// TearPage), exactly where real media damage lands. Point p damages the
// superblock and the first p data pages; the last point — every page — is
// always replayed.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/disk"
	"repro/internal/faultinject"
	"repro/internal/lock"
	"repro/internal/page"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Scrub sizing: the server pool is kept far smaller than the volume so most
// repairs cannot be served from a pooled frame and must go through per-page
// log replay or the archive.
const (
	scrubStamps     = 48
	scrubBackupAt   = scrubStamps / 3 // stamp index where the online backup runs
	scrubServerPool = 4
)

// corruptAll damages every page in ids on the raw volume: alternating
// single-bit rot and torn tails, except that pages whose first sector is
// blank are always rotted (tearing one would leave an all-zero page, which
// is a legitimately absent page, not detectable damage).
func corruptAll(mem disk.Store, ids []page.ID, pristine map[page.ID][]byte, seed int64) error {
	blank := func(b []byte) bool {
		for _, c := range b {
			if c != 0 {
				return false
			}
		}
		return true
	}
	for i, pid := range ids {
		tear := i%2 == 1
		if img := pristine[pid]; tear && img != nil && blank(img[:faultinject.SectorSize]) {
			tear = false
		}
		if tear {
			if err := faultinject.TearPage(mem, pid, 1); err != nil {
				return fmt.Errorf("tearing page %v: %w", pid, err)
			}
		} else if _, err := faultinject.RotPage(mem, pid, seed); err != nil {
			return fmt.Errorf("rotting page %v: %w", pid, err)
		}
	}
	return nil
}

// scrubRun is one quiesced workload: a live server over a checksummed volume
// whose every committed state has reached the volume, and the pristine image
// every repair must reproduce exactly.
type scrubRun struct {
	sys      SweepSystem
	seed     int64
	mem      *disk.MemStore
	cs       disk.Store
	a        *archivedServer
	j        *journal
	pristine map[page.ID][]byte // raw bytes, checksum trailers included
	sb0      [page.Size]byte    // the pristine superblock
	ids      []page.ID          // superblock first, then data pages ascending
}

func runScrubWorkload(sys SweepSystem, seed int64) (*scrubRun, error) {
	run := &scrubRun{sys: sys, seed: seed, mem: disk.NewMemStore()}
	run.cs = disk.NewChecksummed(run.mem)
	// The archiver scans the checksummed store: backups hold verified bytes.
	a, err := newArchivedServer(sys, run.cs, run.cs, scrubServerPool)
	if err != nil {
		return nil, err
	}
	// Positions are never compared: every check is against the whole journal.
	run.a, run.j = a, newJournal(func() int64 { return 0 })
	if err := run.j.build(a.cli, seed); err != nil {
		return nil, err
	}
	if err := run.j.stamps(a.cli, scrubBackupAt, nil); err != nil {
		return nil, err
	}
	// Online backup mid-workload: later stamps reach the damaged pages only
	// through archived-log (and live-log) per-page redo.
	if _, err := a.arch.Backup(); err != nil {
		return nil, fmt.Errorf("backup: %w", err)
	}
	if err := run.j.stamps(a.cli, scrubStamps, nil); err != nil {
		return nil, err
	}
	if err := a.drain(); err != nil {
		return nil, err
	}
	if err := a.srv.NewSession(nil, nil).FlushAll(); err != nil {
		return nil, fmt.Errorf("quiesce: %w", err)
	}
	if run.pristine, err = dumpStore(run.mem); err != nil {
		return nil, err
	}
	if err := run.mem.ReadPage(0, run.sb0[:]); err != nil {
		return nil, fmt.Errorf("superblock dump: %w", err)
	}
	run.ids = []page.ID{0}
	for pid := range run.pristine {
		run.ids = append(run.ids, pid)
	}
	sort.Slice(run.ids, func(i, j int) bool { return run.ids[i] < run.ids[j] })
	return run, nil
}

func openScrub(sys SweepSystem, seed int64) (*pointSpace, error) {
	run, err := runScrubWorkload(sys, seed)
	if err != nil {
		return nil, err
	}
	defer run.a.srv.Close()
	pages := int64(len(run.pristine))
	if pages < 4 {
		return nil, fmt.Errorf("workload produced only %d data pages; the sweep is not meaningful", pages)
	}
	return &pointSpace{
		n:      pages,
		always: []int64{pages},
		note:   fmt.Sprintf("pages=%d", pages),
		// Every replay consumes its server, so each runs the workload afresh.
		replay: func(p int64) (string, error) {
			run, err := runScrubWorkload(sys, seed)
			if err != nil {
				return "", err
			}
			defer run.a.srv.Close()
			return run.damageAndHeal(run.ids[:p+1])
		},
	}, nil
}

// damageAndHeal runs the three corruption scenarios, in sequence, with ids
// as the damaged set.
func (run *scrubRun) damageAndHeal(ids []page.ID) (string, error) {
	srv := run.a.srv
	sn := srv.NewSession(nil, nil)
	var fails []string
	bad := func(format string, args ...interface{}) { fails = append(fails, fmt.Sprintf(format, args...)) }
	failed := func() (string, error) { return strings.Join(fails, "; "), nil }
	// diffVolume checks the volume against the pristine dump; withSB also
	// compares the superblock (restart legitimately rewrites it, so only the
	// online rounds check it).
	diffVolume := func(when string, withSB bool) error {
		now, err := dumpStore(run.mem)
		if err != nil {
			return err
		}
		if d := diffDumps(run.pristine, now); d != "" {
			bad("%s: repaired volume differs from pristine: %s", when, d)
		}
		if withSB {
			var got [page.Size]byte
			if err := run.mem.ReadPage(0, got[:]); err != nil {
				bad("%s: superblock unreadable after repair: %v", when, err)
			} else if !bytes.Equal(run.sb0[:], got[:]) {
				bad("%s: repaired superblock differs from pristine", when)
			}
		}
		return nil
	}
	verifyValues := func(when string) {
		if d := run.j.verify(sweepClient(run.sys, wire.NewDirect(srv, nil, nil)), math.MaxInt64, false); d != "" {
			bad("%s: %s", when, d)
		}
	}

	// Scenario 1, online scrub: with the server running, damage the set, then
	// one full Scrub pass must detect and repair all of it, leaving the
	// volume byte-identical to its pristine dump. A second round must produce
	// the identical volume again (repair is deterministic and idempotent).
	for round := int64(1); round <= 2; round++ {
		if err := corruptAll(run.mem, ids, run.pristine, run.seed+round*0x9e3779b9); err != nil {
			return "", err
		}
		rep, err := sn.Scrub(0)
		if err != nil {
			bad("online round %d: scrub failed: %v", round, err)
			return failed()
		}
		if int(rep.Failures) != len(ids) || rep.Repaired != rep.Failures || rep.Unrepairable != 0 {
			bad("online round %d: damaged %d pages, scrub saw %d failures, %d repaired, %d unrepairable",
				round, len(ids), rep.Failures, rep.Repaired, rep.Unrepairable)
		}
		if err := diffVolume(fmt.Sprintf("online round %d", round), true); err != nil {
			return "", err
		}
	}
	verifyValues("online")

	// Scenario 2, restart repair: crash, damage the set again, restart. The
	// superblock heals from the log's newest checkpoint record; pages redo
	// demand-reads heal in place; a follow-up scrub heals the pages redo
	// never touched.
	srv.Crash()
	if err := corruptAll(run.mem, ids, run.pristine, run.seed^0x5eedc0de); err != nil {
		return "", err
	}
	before := srv.Stats().PagesRepaired
	if err := sn.Restart(); err != nil {
		bad("restart over the damaged volume failed: %v", err)
		return failed()
	}
	verifyValues("restart")
	rep, err := sn.Scrub(0)
	if err != nil {
		bad("post-restart scrub failed: %v", err)
		return failed()
	}
	if rep.Unrepairable != 0 {
		bad("post-restart scrub: %d unrepairable pages", rep.Unrepairable)
	}
	if got := srv.Stats().PagesRepaired - before; got < int64(len(ids)-1) {
		bad("restart round repaired %d pages, want at least the %d damaged data pages", got, len(ids)-1)
	}
	// The restart checkpoint rewrites the superblock, so compare data pages
	// only.
	if err := diffVolume("post-restart", false); err != nil {
		return "", err
	}

	// Scenario 3, unrepairable is loud: a fresh server over the same volume
	// with a fresh, empty log and no archive wired has no redundancy left.
	// Damage must surface as a typed, loud failure — never as silently served
	// bytes.
	srv2 := server.New(server.Config{
		Mode:            run.sys.Mode,
		Store:           run.cs,
		Log:             wal.New(sweepLogCapacity),
		LogCapacity:     sweepLogCapacity,
		PoolPages:       scrubServerPool,
		CheckpointEvery: sweepCkptEvery,
	})
	defer srv2.Close()
	sn2 := srv2.NewSession(nil, nil)
	if err := sn2.Restart(); err != nil {
		bad("process restart on the healed volume failed: %v", err)
		return failed()
	}
	target := ids[len(ids)-1]
	if _, err := faultinject.RotPage(run.mem, target, run.seed^0x0ddba11); err != nil {
		return "", err
	}
	svc := wire.NewDirect(srv2, nil, nil)
	tid, err := svc.Begin()
	if err != nil {
		return "", err
	}
	data, rerr := svc.ReadPage(tid, target, lock.Shared)
	svc.Abort(tid)
	switch {
	case rerr == nil:
		bad("unrepairable page %v: demand read served %d bytes instead of failing", target, len(data))
	case !errors.Is(rerr, disk.ErrCorruptPage) || !errors.Is(rerr, server.ErrUnrepairable):
		bad("unrepairable page %v: demand read failed untyped: %v", target, rerr)
	}
	rep2, serr2 := sn2.Scrub(0)
	switch {
	case serr2 == nil:
		bad("unrepairable page %v: scrub reported success (%d repaired)", target, rep2.Repaired)
	case !errors.Is(serr2, disk.ErrCorruptPage) || !errors.Is(serr2, server.ErrUnrepairable):
		bad("unrepairable page %v: scrub failed untyped: %v", target, serr2)
	case rep2.Unrepairable != 1:
		bad("unrepairable page %v: scrub counted %d unrepairable, want 1", target, rep2.Unrepairable)
	}
	return failed()
}
