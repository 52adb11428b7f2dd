package server

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/lock"
	"repro/internal/logrec"
	"repro/internal/page"
)

// newTestServer returns a server with a small pool so eviction paths get
// exercised, plus a session.
func newTestServer(t *testing.T, mode Mode) (*Server, *Session) {
	t.Helper()
	s := New(Config{
		Mode:            mode,
		PoolPages:       16,
		LogCapacity:     16 << 20,
		LockTimeout:     time.Second,
		CheckpointEvery: 1 << 30, // tests checkpoint explicitly
	})
	return s, s.NewSession(nil, nil)
}

// makePage builds a formatted page containing one object with the given
// contents and returns the page bytes and the object's slot.
func makePage(t *testing.T, pid page.ID, contents []byte) ([]byte, int) {
	t.Helper()
	pg := page.New(pid)
	slot, err := pg.Allocate(len(contents))
	if err != nil {
		t.Fatal(err)
	}
	pg.WriteAt(slot, 0, contents)
	return pg.Bytes(), slot
}

// createPage runs a transaction that creates a page holding contents,
// following the client protocol for the server's mode: page-image log record
// then the page (ESM), page image only (REDO), page only (WPL).
func createPage(t *testing.T, sn *Session, contents []byte) (page.ID, int) {
	t.Helper()
	tid := sn.Begin()
	pid, err := sn.AllocPage(tid)
	if err != nil {
		t.Fatal(err)
	}
	data, slot := makePage(t, pid, contents)
	switch sn.s.cfg.Mode {
	case ModeWPL:
		if err := sn.ShipPage(tid, pid, data); err != nil {
			t.Fatal(err)
		}
	case ModeREDO:
		rec := logrec.NewPageImage(tid, pid, data)
		if err := sn.ShipLog(tid, rec.Encode(nil)); err != nil {
			t.Fatal(err)
		}
	default:
		rec := logrec.NewPageImage(tid, pid, data)
		if err := sn.ShipLog(tid, rec.Encode(nil)); err != nil {
			t.Fatal(err)
		}
		if err := sn.ShipPage(tid, pid, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := sn.Commit(tid); err != nil {
		t.Fatal(err)
	}
	return pid, slot
}

// readObject fetches pid in a fresh transaction and returns the object in
// slot.
func readObject(t *testing.T, sn *Session, pid page.ID, slot, n int) []byte {
	t.Helper()
	tid := sn.Begin()
	data, err := sn.ReadPage(tid, pid, lock.Shared)
	if err != nil {
		t.Fatal(err)
	}
	pg := page.Wrap(data)
	out := make([]byte, n)
	if err := pg.ReadAt(slot, 0, out); err != nil {
		t.Fatal(err)
	}
	if err := sn.Commit(tid); err != nil {
		t.Fatal(err)
	}
	return out
}

// updateObject runs a transaction overwriting the object's bytes following
// the mode's client protocol and returns its id; without commit the
// transaction is left open.
func updateObject(t *testing.T, sn *Session, pid page.ID, slot int, newVal []byte, commit bool) logrec.TID {
	t.Helper()
	tid := sn.Begin()
	data, err := sn.ReadPage(tid, pid, lock.Exclusive)
	if err != nil {
		t.Fatal(err)
	}
	pg := page.Wrap(data)
	old := make([]byte, len(newVal))
	if err := pg.ReadAt(slot, 0, old); err != nil {
		t.Fatal(err)
	}
	off, err := pg.ObjectOffset(slot)
	if err != nil {
		t.Fatal(err)
	}
	pg.WriteAt(slot, 0, newVal)
	if sn.s.cfg.Mode == ModeWPL {
		if err := sn.ShipPage(tid, pid, pg.Bytes()); err != nil {
			t.Fatal(err)
		}
	} else {
		rec := logrec.NewUpdate(tid, pid, off, old, newVal)
		if err := sn.ShipLog(tid, rec.Encode(nil)); err != nil {
			t.Fatal(err)
		}
		if sn.s.cfg.Mode == ModeESM {
			if err := sn.ShipPage(tid, pid, pg.Bytes()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if commit {
		if err := sn.Commit(tid); err != nil {
			t.Fatal(err)
		}
	}
	return tid
}

func TestCreateAndReadBack(t *testing.T) {
	for _, mode := range []Mode{ModeESM, ModeREDO, ModeWPL} {
		t.Run(mode.String(), func(t *testing.T) {
			_, sn := newTestServer(t, mode)
			pid, slot := createPage(t, sn, []byte("hello world!"))
			got := readObject(t, sn, pid, slot, 12)
			if string(got) != "hello world!" {
				t.Fatalf("got %q", got)
			}
		})
	}
}

func TestCommittedDataSurvivesCrash(t *testing.T) {
	for _, mode := range []Mode{ModeESM, ModeREDO, ModeWPL} {
		t.Run(mode.String(), func(t *testing.T) {
			s, sn := newTestServer(t, mode)
			pid, slot := createPage(t, sn, []byte("durable....."))
			updateObject(t, sn, pid, slot, []byte("updated....."), true)
			s.Crash()
			if err := sn.Restart(); err != nil {
				t.Fatal(err)
			}
			got := readObject(t, sn, pid, slot, 12)
			if string(got) != "updated....." {
				t.Fatalf("after crash got %q", got)
			}
		})
	}
}

func TestUncommittedUpdateRolledBackByCrash(t *testing.T) {
	for _, mode := range []Mode{ModeESM, ModeREDO, ModeWPL} {
		t.Run(mode.String(), func(t *testing.T) {
			s, sn := newTestServer(t, mode)
			pid, slot := createPage(t, sn, []byte("original...."))
			updateObject(t, sn, pid, slot, []byte("uncommitted!"), false)
			s.Crash()
			if err := sn.Restart(); err != nil {
				t.Fatal(err)
			}
			got := readObject(t, sn, pid, slot, 12)
			if string(got) != "original...." {
				t.Fatalf("after crash got %q", got)
			}
		})
	}
}

// TestRestartRetriesAFailedLoserUndo: a restart whose undo of a loser fails
// (here a read error on the loser's page, flushed home by a sharp checkpoint
// so that undo must fetch it) returns the error WITHOUT logging the loser's
// End. Were the End logged and ever stable, the next restart would take the
// half-undone loser for finished and its update would stay for good.
func TestRestartRetriesAFailedLoserUndo(t *testing.T) {
	for _, mode := range []Mode{ModeESM, ModeREDO} {
		t.Run(mode.String(), func(t *testing.T) {
			store := &failingStore{Store: disk.NewMemStore()}
			s := New(Config{Mode: mode, Store: store, PoolPages: 16, LogCapacity: 16 << 20,
				LockTimeout: time.Second, CheckpointEvery: 1 << 30})
			defer s.Close()
			sn := s.NewSession(nil, nil)
			pid, slot := createPage(t, sn, []byte("original...."))
			updateObject(t, sn, pid, slot, []byte("uncommitted!"), false)
			if err := sn.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			s.Crash()
			store.armRead(pid)
			if err := sn.Restart(); err == nil {
				t.Fatal("restart succeeded over an unreadable loser page")
			}
			// Whatever the failed restart appended reaches the disk before the
			// server dies again.
			s.log.Force()
			s.Crash()
			store.armRead(0)
			if err := sn.Restart(); err != nil {
				t.Fatal(err)
			}
			if got := readObject(t, sn, pid, slot, 12); string(got) != "original...." {
				t.Fatalf("after the retried restart got %q", got)
			}
		})
	}
}

func TestAbortRestoresOldValue(t *testing.T) {
	for _, mode := range []Mode{ModeESM, ModeREDO, ModeWPL} {
		t.Run(mode.String(), func(t *testing.T) {
			_, sn := newTestServer(t, mode)
			pid, slot := createPage(t, sn, []byte("before......"))
			tid := sn.Begin()
			data, err := sn.ReadPage(tid, pid, lock.Exclusive)
			if err != nil {
				t.Fatal(err)
			}
			pg := page.Wrap(data)
			off, _ := pg.ObjectOffset(slot)
			old := make([]byte, 12)
			pg.ReadAt(slot, 0, old)
			pg.WriteAt(slot, 0, []byte("aborted....."))
			if sn.s.cfg.Mode == ModeWPL {
				sn.ShipPage(tid, pid, pg.Bytes())
			} else {
				rec := logrec.NewUpdate(tid, pid, off, old, []byte("aborted....."))
				sn.ShipLog(tid, rec.Encode(nil))
				if sn.s.cfg.Mode == ModeESM {
					sn.ShipPage(tid, pid, pg.Bytes())
				}
			}
			if err := sn.Abort(tid); err != nil {
				t.Fatal(err)
			}
			got := readObject(t, sn, pid, slot, 12)
			if string(got) != "before......" {
				t.Fatalf("after abort got %q", got)
			}
		})
	}
}

func TestCrashAfterAbortKeepsOldValue(t *testing.T) {
	for _, mode := range []Mode{ModeESM, ModeREDO, ModeWPL} {
		t.Run(mode.String(), func(t *testing.T) {
			s, sn := newTestServer(t, mode)
			pid, slot := createPage(t, sn, []byte("stable......"))
			tid := sn.Begin()
			data, _ := sn.ReadPage(tid, pid, lock.Exclusive)
			pg := page.Wrap(data)
			off, _ := pg.ObjectOffset(slot)
			old := make([]byte, 12)
			pg.ReadAt(slot, 0, old)
			pg.WriteAt(slot, 0, []byte("dead-update!"))
			if sn.s.cfg.Mode == ModeWPL {
				sn.ShipPage(tid, pid, pg.Bytes())
			} else {
				rec := logrec.NewUpdate(tid, pid, off, old, []byte("dead-update!"))
				sn.ShipLog(tid, rec.Encode(nil))
				if sn.s.cfg.Mode == ModeESM {
					sn.ShipPage(tid, pid, pg.Bytes())
				}
			}
			sn.Abort(tid)
			s.Crash()
			if err := sn.Restart(); err != nil {
				t.Fatal(err)
			}
			got := readObject(t, sn, pid, slot, 12)
			if string(got) != "stable......" {
				t.Fatalf("got %q", got)
			}
		})
	}
}

func TestMultiTxnInterleavedDurability(t *testing.T) {
	for _, mode := range []Mode{ModeESM, ModeREDO, ModeWPL} {
		t.Run(mode.String(), func(t *testing.T) {
			s, sn := newTestServer(t, mode)
			// Three pages; commit updates to two, leave one uncommitted, crash.
			pids := make([]page.ID, 3)
			slots := make([]int, 3)
			for i := range pids {
				pids[i], slots[i] = createPage(t, sn, []byte{byte('a' + i), 2, 3, 4})
			}
			updateObject(t, sn, pids[0], slots[0], []byte{'X', 2, 3, 4}, true)
			updateObject(t, sn, pids[1], slots[1], []byte{'Y', 2, 3, 4}, true)
			updateObject(t, sn, pids[2], slots[2], []byte{'Z', 2, 3, 4}, false)
			s.Crash()
			if err := sn.Restart(); err != nil {
				t.Fatal(err)
			}
			for i, want := range []byte{'X', 'Y', 'c'} {
				got := readObject(t, sn, pids[i], slots[i], 4)
				if got[0] != want {
					t.Fatalf("page %d: got %q want %c", i, got, want)
				}
			}
		})
	}
}

func TestCheckpointTruncatesAndRecovers(t *testing.T) {
	for _, mode := range []Mode{ModeESM, ModeREDO, ModeWPL} {
		t.Run(mode.String(), func(t *testing.T) {
			s, sn := newTestServer(t, mode)
			pid, slot := createPage(t, sn, []byte("v0.........."))
			for i := 1; i <= 5; i++ {
				val := []byte{byte('0' + i), 'x', 'x', 'x', 'x', 'x', 'x', 'x', 'x', 'x', 'x', 'x'}
				updateObject(t, sn, pid, slot, val, true)
			}
			headBefore := s.log.Head()
			if err := sn.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if s.log.Head() <= headBefore {
				t.Fatal("checkpoint did not reclaim log space")
			}
			// More updates after the checkpoint, then crash.
			updateObject(t, sn, pid, slot, []byte("final-value!"), true)
			s.Crash()
			if err := sn.Restart(); err != nil {
				t.Fatal(err)
			}
			got := readObject(t, sn, pid, slot, 12)
			if string(got) != "final-value!" {
				t.Fatalf("got %q", got)
			}
		})
	}
}

func TestDoubleCrashRestartIdempotent(t *testing.T) {
	for _, mode := range []Mode{ModeESM, ModeREDO, ModeWPL} {
		t.Run(mode.String(), func(t *testing.T) {
			s, sn := newTestServer(t, mode)
			pid, slot := createPage(t, sn, []byte("abcd"))
			updateObject(t, sn, pid, slot, []byte("wxyz"), true)
			for i := 0; i < 3; i++ {
				s.Crash()
				if err := sn.Restart(); err != nil {
					t.Fatalf("restart %d: %v", i, err)
				}
			}
			got := readObject(t, sn, pid, slot, 4)
			if string(got) != "wxyz" {
				t.Fatalf("got %q", got)
			}
		})
	}
}

func TestEvictionUnderTinyPool(t *testing.T) {
	// Pool of 16 frames, 40 pages: steals happen mid-transaction; committed
	// values must survive crash and uncommitted ones must not.
	for _, mode := range []Mode{ModeESM, ModeREDO, ModeWPL} {
		t.Run(mode.String(), func(t *testing.T) {
			s, sn := newTestServer(t, mode)
			const n = 40
			pids := make([]page.ID, n)
			slots := make([]int, n)
			for i := 0; i < n; i++ {
				pids[i], slots[i] = createPage(t, sn, []byte{byte(i), 0, 0, 0})
			}
			for i := 0; i < n; i++ {
				updateObject(t, sn, pids[i], slots[i], []byte{byte(i), 1, 1, 1}, true)
			}
			s.Crash()
			if err := sn.Restart(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				got := readObject(t, sn, pids[i], slots[i], 4)
				if !bytes.Equal(got, []byte{byte(i), 1, 1, 1}) {
					t.Fatalf("page %d: got %v", i, got)
				}
			}
		})
	}
}

func TestAllocPageUniqueAcrossRestart(t *testing.T) {
	s, sn := newTestServer(t, ModeESM)
	pid1, _ := createPage(t, sn, []byte("one"))
	s.Crash()
	if err := sn.Restart(); err != nil {
		t.Fatal(err)
	}
	pid2, _ := createPage(t, sn, []byte("two"))
	if pid2 <= pid1 {
		t.Fatalf("page id reused after restart: %v then %v", pid1, pid2)
	}
	if got := readObject(t, sn, pid1, 0, 3); string(got) != "one" {
		t.Fatalf("old page damaged: %q", got)
	}
}

func TestModeViolations(t *testing.T) {
	_, snWPL := newTestServer(t, ModeWPL)
	tid := snWPL.Begin()
	rec := logrec.NewUpdate(tid, 1, 0, []byte{1}, []byte{2})
	if err := snWPL.ShipLog(tid, rec.Encode(nil)); !errors.Is(err, ErrModeViolation) {
		t.Fatalf("ShipLog under WPL: %v", err)
	}
	_, snREDO := newTestServer(t, ModeREDO)
	tid2 := snREDO.Begin()
	pid, err := snREDO.AllocPage(tid2)
	if err != nil {
		t.Fatal(err)
	}
	if err := snREDO.ShipPage(tid2, pid, make([]byte, page.Size)); !errors.Is(err, ErrModeViolation) {
		t.Fatalf("ShipPage under REDO: %v", err)
	}
}

func TestShipPageRequiresXLock(t *testing.T) {
	_, sn := newTestServer(t, ModeESM)
	pid, _ := createPage(t, sn, []byte("lock"))
	tid := sn.Begin()
	// Only a shared lock held.
	if _, err := sn.ReadPage(tid, pid, lock.Shared); err != nil {
		t.Fatal(err)
	}
	err := sn.ShipPage(tid, pid, make([]byte, page.Size))
	if !errors.Is(err, ErrNotLocked) {
		t.Fatalf("err = %v", err)
	}
}

func TestUnknownTxnRejected(t *testing.T) {
	_, sn := newTestServer(t, ModeESM)
	if _, err := sn.ReadPage(999, 1, lock.Shared); !errors.Is(err, ErrNoTxn) {
		t.Fatalf("err = %v", err)
	}
	if err := sn.Commit(999); !errors.Is(err, ErrNoTxn) {
		t.Fatalf("err = %v", err)
	}
	if err := sn.Abort(999); !errors.Is(err, ErrNoTxn) {
		t.Fatalf("err = %v", err)
	}
	// A lock granted to an unknown transaction would never be released.
	if err := sn.Lock(999, 1, lock.Exclusive); !errors.Is(err, ErrNoTxn) {
		t.Fatalf("err = %v", err)
	}
}

func TestWPLReloadFromLogAfterEviction(t *testing.T) {
	// With a tiny pool, an uncommitted WPL page can be evicted; re-reading
	// it within the same transaction must come back from the log (§3.4.2).
	s := New(Config{Mode: ModeWPL, PoolPages: 4, LogCapacity: 16 << 20, LockTimeout: time.Second, CheckpointEvery: 1 << 30})
	sn := s.NewSession(nil, nil)
	pid, slot := createPage(t, sn, []byte("base"))
	tid := sn.Begin()
	data, err := sn.ReadPage(tid, pid, lock.Exclusive)
	if err != nil {
		t.Fatal(err)
	}
	pg := page.Wrap(data)
	pg.WriteAt(slot, 0, []byte("mod!"))
	if err := sn.ShipPage(tid, pid, pg.Bytes()); err != nil {
		t.Fatal(err)
	}
	// Flood the pool so pid's frame is evicted.
	for i := 0; i < 8; i++ {
		p2, _ := sn.AllocPage(tid)
		img := page.New(p2)
		if err := sn.ShipPage(tid, p2, img.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	// Re-read within the same transaction: must see the modified value.
	data2, err := sn.ReadPage(tid, pid, lock.Exclusive)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	page.Wrap(data2).ReadAt(slot, 0, got)
	if string(got) != "mod!" {
		t.Fatalf("reload got %q", got)
	}
	if s.Stats().WPLLogReloads == 0 {
		t.Fatal("no log reloads counted")
	}
	if err := sn.Commit(tid); err != nil {
		t.Fatal(err)
	}
	// And the permanent location is only updated now.
	if got := readObject(t, sn, pid, slot, 4); string(got) != "mod!" {
		t.Fatalf("after commit: %q", got)
	}
}

func TestStatsCounters(t *testing.T) {
	s, sn := newTestServer(t, ModeESM)
	pid, slot := createPage(t, sn, []byte("stat"))
	updateObject(t, sn, pid, slot, []byte("STAT"), true)
	st := s.Stats()
	if st.Commits != 2 || st.LogPagesReceived < 2 || st.DirtyPagesReceived < 2 {
		t.Fatalf("stats = %+v", st)
	}
	if s.Log().PagesWritten() == 0 {
		t.Fatal("no log pages written")
	}
}

// TestRestartBeforeFirstCheckpoint: a crash before the first checkpoint
// leaves no superblock. On a file volume page 0 is then a hole that reads as
// zeros as soon as any later page has been written (bench/README finding
// (a)); restart must treat that as "no superblock yet", exactly like
// MemStore's ErrNotFound — and must keep refusing a non-zero page 0 with the
// wrong magic.
func TestRestartBeforeFirstCheckpoint(t *testing.T) {
	file := func(t *testing.T) disk.Store {
		fs, err := disk.OpenFileStore(filepath.Join(t.TempDir(), "vol.db"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fs.Close() })
		return fs
	}
	stores := map[string]func(t *testing.T) disk.Store{
		"MemStore":              func(*testing.T) disk.Store { return disk.NewMemStore() },
		"FileStore":             file,
		"checksummed FileStore": func(t *testing.T) disk.Store { return disk.NewChecksummed(file(t)) },
	}
	for name, open := range stores {
		t.Run(name, func(t *testing.T) {
			s := New(Config{
				Mode:            ModeESM,
				Store:           open(t),
				PoolPages:       8, // 32 pages through 8 frames: evictions write data pages
				LogCapacity:     16 << 20,
				CheckpointEvery: 1 << 30,
			})
			defer s.Close()
			sn := s.NewSession(nil, nil)
			type obj struct {
				pid  page.ID
				slot int
			}
			var objs []obj
			for i := 0; i < 32; i++ {
				pid, slot := createPage(t, sn, []byte{'p', byte('a' + i)})
				objs = append(objs, obj{pid, slot})
			}
			if s.Stats().DataWrites == 0 {
				t.Fatal("no data page reached the volume; the test would not exercise the hole at page 0")
			}
			s.Crash()
			if err := sn.Restart(); err != nil {
				t.Fatalf("restart before the first checkpoint: %v", err)
			}
			for i, o := range objs {
				if got := readObject(t, sn, o.pid, o.slot, 2); !bytes.Equal(got, []byte{'p', byte('a' + i)}) {
					t.Fatalf("page %v after restart: %q", o.pid, got)
				}
			}
		})
	}
	t.Run("wrong magic stays an error", func(t *testing.T) {
		store := disk.NewMemStore()
		junk := make([]byte, page.Size)
		junk[100] = 1
		if err := store.WritePage(superblockPage, junk); err != nil {
			t.Fatal(err)
		}
		s := New(Config{Mode: ModeESM, Store: store, PoolPages: 8})
		defer s.Close()
		if err := s.NewSession(nil, nil).Restart(); err == nil {
			t.Fatal("restart accepted a non-zero page 0 with a bad magic")
		}
	})
}
