package server

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/faultinject"
	"repro/internal/lock"
	"repro/internal/logrec"
	"repro/internal/page"
)

// currentImage returns the bytes a fetch of pid would serve: the pooled frame,
// or the stored copy brought in.
func currentImage(t *testing.T, s *Server, sn *Session, pid page.ID) []byte {
	t.Helper()
	sh := s.pool.Lock(pid)
	defer sh.Unlock()
	f, err := s.fetchShardLocked(sn, sh, pid, true)
	if err != nil {
		t.Fatalf("fetching %v: %v", pid, err)
	}
	return append([]byte(nil), f.Bytes()...)
}

// TestRestartMatchesPageRebuilder holds restart's one pass against the
// independent per-page replay. A scripted history — committed updates, page
// images, an abort with its CLRs, a loser, an in-doubt branch, a checkpoint in
// the middle — is crashed and restarted; afterwards every page must equal what
// PageRebuilder makes of the copy stored before the restart plus the log
// restart read and the CLRs it appended. A test-held retention holder keeps
// the log head where the crash left it across the closing checkpoint.
func TestRestartMatchesPageRebuilder(t *testing.T) {
	for _, mode := range []Mode{ModeESM, ModeREDO} {
		for _, fuzzy := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/fuzzy=%v", mode, fuzzy), func(t *testing.T) {
				store := disk.NewMemStore()
				s := New(Config{
					Mode:            mode,
					Store:           store,
					PoolPages:       64,
					LogCapacity:     16 << 20,
					LockTimeout:     time.Second,
					CheckpointEvery: 1 << 30,
				})
				defer s.Close()
				sn := s.NewSession(nil, nil)
				const n = 6
				var pids [n]page.ID
				var slots [n]int
				for i := range pids {
					pids[i], slots[i] = createPage(t, sn, []byte(fmt.Sprintf("page %d born..", i)))
				}
				val := func(i int, what string) []byte { return []byte(fmt.Sprintf("p%d %-9s", i, what)) }
				for i := range pids {
					updateObject(t, sn, pids[i], slots[i], val(i, "early"), true)
				}
				// Under a fuzzy checkpoint every page above stays dirty and goes into
				// the logged DPT with a recLSN below the analysis start; Checkpoint
				// writes them home first.
				ckpt := sn.Checkpoint
				if fuzzy {
					ckpt = func() error { return fuzzyCheckpoint(sn) }
				}
				if err := ckpt(); err != nil {
					t.Fatal(err)
				}
				updateObject(t, sn, pids[0], slots[0], val(0, "late"), true)
				updateObject(t, sn, pids[1], slots[1], val(1, "later"), true)
				// One page goes home with its update on it: redo must pass it by.
				updateObject(t, sn, pids[5], slots[5], val(5, "home"), true)
				if n, err := s.cleanOne(sn, pids[5]); err != nil || n != 1 {
					t.Fatalf("cleaning %v: wrote %d pages, %v", pids[5], n, err)
				}
				late, _ := createPage(t, sn, []byte("born after the checkpoint"))
				aborted := updateObject(t, sn, pids[2], slots[2], val(2, "aborted"), false)
				if err := sn.Abort(aborted); err != nil {
					t.Fatal(err)
				}
				updateObject(t, sn, pids[3], slots[3], val(3, "loser"), false)
				inDoubt := updateObject(t, sn, pids[4], slots[4], val(4, "in doubt"), false)
				if err := sn.Prepare(inDoubt, 0, []int{0, 1}); err != nil {
					t.Fatal(err)
				}
				// The loser's records are stable (the PREPARE force covered them), so
				// restart has something to undo.
				s.Crash()

				all := append(pids[:], late)
				stored := make(map[page.ID][]byte)
				for _, pid := range all {
					var buf [page.Size]byte
					switch err := store.ReadPage(pid, buf[:]); {
					case err == nil:
						stored[pid] = append([]byte(nil), buf[:]...)
					case !errors.Is(err, disk.ErrNotFound):
						t.Fatal(err)
					}
				}
				head := s.log.Head()
				hold := s.log.Hold("test", head, nil, 0)
				defer hold.Release()
				// Redo is conditional: it lands exactly the records the stored
				// copies lack.
				var owed int64
				if err := s.log.Scan(head, func(r *logrec.Record) bool {
					if img := stored[r.Page]; redoable(r) && (img == nil || page.Wrap(img).LSN() < r.LSN) {
						owed++
					}
					return true
				}); err != nil {
					t.Fatal(err)
				}
				if err := sn.Restart(); err != nil {
					t.Fatal(err)
				}
				if got := s.log.Head(); got != head {
					t.Fatalf("log head moved from %d to %d under the test's holder", head, got)
				}
				rs := s.ExtendedStats().Restart
				if rs.Losers != 1 || rs.InDoubt != 1 || rs.RecordsRedone != owed {
					t.Fatalf("restart timeline %+v: want one loser, one in-doubt branch and %d records redone", rs, owed)
				}
				for _, pid := range all {
					b := NewPageRebuilder(mode, pid, stored[pid])
					if err := b.FeedLog(s.log, head); err != nil {
						t.Fatalf("rebuilding %v: %v", pid, err)
					}
					if got := currentImage(t, s, sn, pid); !bytes.Equal(got, b.Image()) {
						t.Errorf("%v after restart differs from its per-page replay", pid)
					}
				}
				// And the history reads back as scripted.
				if err := sn.Decide(inDoubt, false); err != nil {
					t.Fatal(err)
				}
				for i, want := range []string{"late", "later", "early", "early", "early", "home"} {
					if got := readObject(t, sn, pids[i], slots[i], len(val(i, want))); !bytes.Equal(got, val(i, want)) {
						t.Errorf("page %d reads %q, want %q", i, got, val(i, want))
					}
				}
			})
		}
	}
}

// TestRestartRedoesBelowAnalysisStart: a page dirtied before the checkpoint
// and left in its logged DPT owes redo from its logged recLSN,
// below the analysis start. The pass must begin there — a pass that begins at
// the analysis start loses the committed update — and on the way up it replays
// only what the logged DPT covers: a page cleaned before the checkpoint, whose
// records lie in the same prefix, is not touched.
func TestRestartRedoesBelowAnalysisStart(t *testing.T) {
	for _, mode := range []Mode{ModeESM, ModeREDO} {
		t.Run(mode.String(), func(t *testing.T) {
			s, sn := newTestServer(t, mode)
			defer s.Close()
			pid, slot := createPage(t, sn, []byte("born"))
			cleaned, cslot := createPage(t, sn, []byte("born"))
			if err := sn.Checkpoint(); err != nil { // the pages are home, the DPT empty
				t.Fatal(err)
			}
			updateObject(t, sn, pid, slot, []byte("kept"), true) // pool and log only
			recLSN := s.dpt[pid].rec
			updateObject(t, sn, cleaned, cslot, []byte("home"), true)
			if n, err := s.cleanOne(sn, cleaned); err != nil || n != 1 {
				t.Fatalf("cleaning %v: wrote %d pages, %v", cleaned, n, err)
			}
			if err := fuzzyCheckpoint(sn); err != nil {
				t.Fatal(err)
			}
			other, oslot := createPage(t, sn, []byte("above the checkpoint"))
			s.Crash()
			sb, err := s.readSuperblock()
			if err != nil {
				t.Fatal(err)
			}
			if recLSN == 0 || recLSN >= sb.checkpointLSN {
				t.Fatalf("the update at %d does not lie below the checkpoint at %d", recLSN, sb.checkpointLSN)
			}
			aboveCkpt := int64(s.log.StableEnd() - sb.checkpointLSN)
			if err := sn.Restart(); err != nil {
				t.Fatal(err)
			}
			sh := s.pool.Lock(cleaned)
			touched := sh.Peek(cleaned) != nil
			sh.Unlock()
			if touched {
				t.Errorf("restart fetched %v, which the checkpoint's logged DPT does not cover", cleaned)
			}
			if rs := s.ExtendedStats().Restart; rs.BytesScanned <= aboveCkpt || rs.RecordsRedone != 2 {
				t.Errorf("restart timeline %+v: want a pass from below the checkpoint at %d that redoes 2 records", rs, sb.checkpointLSN)
			}
			for _, c := range []struct {
				pid  page.ID
				slot int
				want string
			}{{pid, slot, "kept"}, {cleaned, cslot, "home"}, {other, oslot, "above"}} {
				if got := readObject(t, sn, c.pid, c.slot, len(c.want)); string(got) != c.want {
					t.Errorf("%v reads %q after restart, want %q", c.pid, got, c.want)
				}
			}
		})
	}
}

// TestRestartHealsYoungTornPage: a page born after the newest checkpoint and
// torn by the crash lies above the superblock's allocation frontier, which is
// as far as a fresh server's pre-recovery verification reaches. Its creation
// image is in the window, and a whole-page image needs no stored copy, so the
// pass rebuilds it.
func TestRestartHealsYoungTornPage(t *testing.T) {
	for _, mode := range []Mode{ModeESM, ModeREDO, ModeWPL} {
		t.Run(mode.String(), func(t *testing.T) {
			s, sn, mem := newChecksummedServer(t, mode, Config{PoolPages: 4})
			defer s.Close()
			createPage(t, sn, []byte("old"))
			if err := sn.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			pid, slot := createPage(t, sn, []byte("young"))
			for i := 0; i < 8; i++ { // fillers: the young page goes home
				createPage(t, sn, []byte("filler"))
			}
			if _, err := faultinject.RotPage(mem, pid, 7); err != nil {
				t.Fatal(err)
			}
			s.Crash()
			// A new process: the allocation counters come from the superblock.
			cfg := s.cfg
			cfg.Log = s.log
			s2 := New(cfg)
			defer s2.Close()
			sn2 := s2.NewSession(nil, nil)
			if err := sn2.Restart(); err != nil {
				t.Fatalf("restart over a torn page born after the checkpoint: %v", err)
			}
			if got := readObject(t, sn2, pid, slot, 5); string(got) != "young" {
				t.Fatalf("young page reads %q after restart", got)
			}
		})
	}
}

// rottenStore fails reads of one page the way a checksummed volume reports a
// damaged stored copy.
type rottenStore struct {
	disk.Store
	rotten page.ID // 0 = healthy
}

func (r *rottenStore) ReadPage(id page.ID, buf []byte) error {
	if id != superblockPage && id == r.rotten {
		return fmt.Errorf("%w: %v: injected", disk.ErrCorruptPage, id)
	}
	return r.Store.ReadPage(id, buf)
}

// TestRestartDamagedPageWithoutImageFails: the page-image rule heals nothing
// else. An update met over a damaged stored copy, with no image of the page
// before it in the window, fails the restart loudly.
func TestRestartDamagedPageWithoutImageFails(t *testing.T) {
	store := &rottenStore{Store: disk.NewMemStore()}
	s := New(Config{Mode: ModeREDO, Store: store, PoolPages: 16, LogCapacity: 16 << 20,
		LockTimeout: time.Second, CheckpointEvery: 1 << 30})
	defer s.Close()
	sn := s.NewSession(nil, nil)
	pid, slot := createPage(t, sn, []byte("older"))
	if err := sn.Checkpoint(); err != nil { // the creation image is below the window
		t.Fatal(err)
	}
	updateObject(t, sn, pid, slot, []byte("newer"), true)
	s.Crash()
	store.rotten = pid
	if err := sn.Restart(); !errors.Is(err, disk.ErrCorruptPage) {
		t.Fatalf("restart replaying an update over a damaged page: %v, want disk.ErrCorruptPage", err)
	}
}

// TestRestartWritesHomeDuringThePass: replaying a record can evict a dirty
// page, and writing it home asks the log whether its newest record is stable —
// so the pass must not hold the log's lock across its callback. A server
// restarted with a pool smaller than the set of pages owed redo (a new process
// with a smaller cache, a restore, a promoted standby) evicts throughout.
func TestRestartWritesHomeDuringThePass(t *testing.T) {
	for _, mode := range []Mode{ModeESM, ModeREDO} {
		t.Run(mode.String(), func(t *testing.T) {
			store := disk.NewMemStore()
			cfg := Config{Mode: mode, Store: store, PoolPages: 64, PoolShards: 1,
				LogCapacity: 16 << 20, LockTimeout: time.Second, CheckpointEvery: 1 << 30}
			s := New(cfg)
			defer s.Close()
			sn := s.NewSession(nil, nil)
			const pages, rounds = 12, 4
			var pids [pages]page.ID
			var slots [pages]int
			for i := range pids {
				pids[i], slots[i] = createPage(t, sn, []byte(fmt.Sprintf("page %d......", i)))
			}
			if err := sn.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < rounds; r++ {
				for i := range pids {
					updateObject(t, sn, pids[i], slots[i], []byte(fmt.Sprintf("p%d round %02d", i, r)), true)
				}
			}
			s.Crash()
			cfg.Log, cfg.PoolPages = s.log, 4
			s2 := New(cfg)
			defer s2.Close()
			sn2 := s2.NewSession(nil, nil)
			done := make(chan error, 1)
			go func() { done <- sn2.Restart() }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("restart deadlocked writing a page home from inside the log pass")
			}
			for i := range pids {
				want := fmt.Sprintf("p%d round %02d", i, rounds-1)
				if got := readObject(t, sn2, pids[i], slots[i], len(want)); string(got) != want {
					t.Errorf("page %d reads %q, want %q", i, got, want)
				}
			}
		})
	}
}

// BenchmarkRestart times Restart alone over a window shaped like bench/'s
// crash-restart cycle: a few thousand small updates spread over a few dozen
// resident pages, in ten transactions of which the last is the loser. The
// phases are reported beside ns/op.
func BenchmarkRestart(b *testing.B) {
	for _, mode := range []Mode{ModeESM, ModeREDO} {
		b.Run(mode.String(), func(b *testing.B) {
			s := New(Config{Mode: mode, LogCapacity: 64 << 20, LockTimeout: time.Second, CheckpointEvery: 1 << 30})
			defer s.Close()
			sn := s.NewSession(nil, nil)
			const pages, txns, perTxn = 50, 10, 500
			var pids [pages]page.ID
			for i := range pids {
				var err error
				if pids[i], _, err = workerCreate(sn, bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
					b.Fatal(err)
				}
			}
			var rs RestartStats
			for n := 0; n < b.N; n++ {
				b.StopTimer()
				for x := 0; x < txns; x++ {
					tid := sn.Begin()
					for _, pid := range pids {
						if err := sn.Lock(tid, pid, lock.Exclusive); err != nil {
							b.Fatal(err)
						}
					}
					for u := 0; u < perTxn; u++ {
						img := []byte{byte(u), byte(u >> 8), byte(x), byte(n), 0, 0, 0, 0}
						rec := logrec.NewUpdate(tid, pids[u%pages], page.HeaderSize+8*(u/pages), img, img)
						if err := sn.ShipLog(tid, rec.Encode(nil)); err != nil {
							b.Fatal(err)
						}
					}
					if x < txns-1 {
						if err := sn.Commit(tid); err != nil {
							b.Fatal(err)
						}
					}
				}
				s.log.Force()
				s.Crash()
				b.StartTimer()
				if err := sn.Restart(); err != nil {
					b.Fatal(err)
				}
				r := s.ExtendedStats().Restart
				rs.PassNs += r.PassNs
				rs.UndoNs += r.UndoNs
				rs.CheckpointNs += r.CheckpointNs
			}
			b.ReportMetric(float64(rs.PassNs)/float64(b.N)/1e6, "pass-ms")
			b.ReportMetric(float64(rs.UndoNs)/float64(b.N)/1e6, "undo-ms")
			b.ReportMetric(float64(rs.CheckpointNs)/float64(b.N)/1e6, "ckpt-ms")
		})
	}
}
