package archive

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/faultinject"
	"repro/internal/lock"
	"repro/internal/logrec"
	"repro/internal/page"
	"repro/internal/server"
	"repro/internal/wal"
)

// --- wal-level archiver tests ------------------------------------------------

// appendRecords appends n small update records and returns each record's
// exclusive end LSN.
func appendRecords(t *testing.T, log *wal.Log, n int) []uint64 {
	t.Helper()
	var ends []uint64
	for i := 0; i < n; i++ {
		r := logrec.NewUpdate(logrec.TID(i+1), page.ID(i+1), 64, make([]byte, 48), make([]byte, 48))
		lsn, err := log.Append(r)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		ends = append(ends, lsn+uint64(r.EncodedSize()))
	}
	log.Force()
	return ends
}

// segmentRecords reads one segment and decodes its payload.
func segmentRecords(t *testing.T, blobs BlobStore, s SegmentInfo) []*logrec.Record {
	t.Helper()
	payload, err := ReadSegment(blobs, s)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(payload)) != s.End-s.Start {
		t.Fatalf("segment %s: %d payload bytes for [%d, %d)", s.Name, len(payload), s.Start, s.End)
	}
	recs, err := logrec.DecodeAll(payload)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestArchiverRoundTrip(t *testing.T) {
	log := wal.New(1 << 20)
	blobs := NewMemBlobs()
	a, err := NewArchiver(log, disk.NewMemStore(), blobs, Options{SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	ends := appendRecords(t, log, 40)
	if err := a.Drain(); err != nil {
		t.Fatal(err)
	}
	if got, want := a.ArchivedUpTo(), ends[len(ends)-1]; got != want {
		t.Fatalf("archived up to %d, want %d", got, want)
	}
	segs, err := ListSegments(blobs, a.Generation())
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("got %d segments, want several (SegmentBytes=1KB over %d records)", len(segs), 40)
	}
	// Segments tile [FirstLSN, end) exactly, and their records read back
	// with the LSNs they were logged at.
	next := uint64(wal.FirstLSN)
	nrec := 0
	for _, s := range segs {
		if s.Start != next {
			t.Fatalf("segment %s starts at %d, want %d", s.Name, s.Start, next)
		}
		for _, r := range segmentRecords(t, blobs, s) {
			if got, want := r.LSN+uint64(r.EncodedSize()), ends[nrec]; got != want {
				t.Fatalf("record %d ends at %d, want %d", nrec, got, want)
			}
			nrec++
		}
		next = s.End
	}
	if nrec != len(ends) {
		t.Fatalf("read %d records back, want %d", nrec, len(ends))
	}

	// A second archiver over the same blob store starts a fresh generation.
	b, err := NewArchiver(wal.New(1<<20), disk.NewMemStore(), blobs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if b.Generation() != a.Generation()+1 {
		t.Fatalf("second archiver got generation %d, want %d", b.Generation(), a.Generation()+1)
	}
	gens, err := Generations(blobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 2 || gens[0] != a.Generation() || gens[1] != b.Generation() {
		t.Fatalf("generations = %v", gens)
	}
}

// putFailer is a blob store whose writes can be made to fail.
type putFailer struct {
	*MemBlobs
	fail bool
}

func (p *putFailer) Put(name string, data []byte) error {
	if p.fail {
		return errors.New("archive medium unavailable")
	}
	return p.MemBlobs.Put(name, data)
}

// slowRing is a memory log device whose every Sync takes 200 µs, long
// enough for committers to park behind it.
type slowRing struct{ wal.Ring }

func (r slowRing) Sync(from, to uint64) uint64 {
	time.Sleep(200 * time.Microsecond)
	return to
}

// TestTruncateDrainsArchiveFirst is the regression test for the archive
// retention holder: a truncation past unarchived records drains them first
// (the holder's catch-up is DrainTo), a drain that fails leaves the head
// pinned at the archived-up-to LSN without failing the truncation, and the
// head never passes that LSN while a group-commit batch is in flight across
// the truncation point.
func TestTruncateDrainsArchiveFirst(t *testing.T) {
	log := wal.Open(slowRing{make(wal.Ring, 1<<20)}, 1<<20, wal.FirstLSN, wal.FirstLSN)
	blobs := &putFailer{MemBlobs: NewMemBlobs()}
	a, err := NewArchiver(log, disk.NewMemStore(), blobs, Options{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	cfg := server.Config{Log: log}
	Wire(&cfg, a)

	ends := appendRecords(t, log, 30)
	blobs.fail = true
	if err := log.Truncate(ends[14]); err != nil {
		t.Fatalf("a failed drain failed the truncation: %v", err)
	}
	if got := log.Head(); got != wal.FirstLSN {
		t.Fatalf("head %d passed unarchived records", got)
	}
	if pin := log.Holders().Holders; len(pin) != 1 || pin[0].Name != "archive" || pin[0].LSN != wal.FirstLSN {
		t.Fatalf("holders = %+v, want archive at %d", pin, wal.FirstLSN)
	}
	blobs.fail = false
	mid := ends[14]
	if err := log.Truncate(mid); err != nil {
		t.Fatal(err)
	}
	if got, upTo := log.Head(), a.ArchivedUpTo(); got != mid || upTo != mid {
		t.Fatalf("after truncation: head=%d archived-up-to=%d, want both %d", got, upTo, mid)
	}

	// Group-commit batches in flight: committers park in CommitWait while a
	// slow sync spans the proposed truncation point; concurrent truncation
	// attempts must never pass the archived-up-to LSN.
	done := make(chan error, 2)
	for w := 0; w < 2; w++ {
		go func(w int) {
			for i := 0; i < 20; i++ {
				r := logrec.NewUpdate(logrec.TID(1000+100*w+i), page.ID(2), 64, make([]byte, 48), make([]byte, 48))
				lsn, err := log.Append(r)
				if err != nil {
					done <- err
					return
				}
				log.CommitWait(lsn + uint64(r.EncodedSize()))
			}
			done <- nil
		}(w)
	}
	for i := 0; i < 100; i++ {
		if err := log.Truncate(log.StableEnd()); err != nil {
			t.Fatal(err)
		}
		if head, upTo := log.Head(), a.ArchivedUpTo(); head > upTo {
			t.Fatalf("head %d passed archived-up-to %d with a batch in flight", head, upTo)
		}
		time.Sleep(50 * time.Microsecond)
	}
	for w := 0; w < 2; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Drain(); err != nil {
		t.Fatal(err)
	}
	end := log.StableEnd()
	if err := log.Truncate(end); err != nil {
		t.Fatal(err)
	}
	if got := log.Head(); got != end {
		t.Fatalf("truncation after final drain: head=%d, want %d", got, end)
	}
}

// --- end-to-end backup / restore over a live REDO server ---------------------

// valOff is where testPage stamps its value (past the page header fields).
const valOff = 512

func testPage(val byte) []byte {
	img := make([]byte, page.Size)
	for i := valOff; i < valOff+64; i++ {
		img[i] = val
	}
	return img
}

// redoWorld is a small live system: a REDO-mode server with a wired
// archiver, driven through a server session with page-image transactions.
type redoWorld struct {
	log   *wal.Log
	store *disk.MemStore
	blobs *MemBlobs
	arch  *Archiver
	srv   *server.Server
	sn    *server.Session
}

func newRedoWorld(t *testing.T, opts Options) *redoWorld {
	t.Helper()
	w := &redoWorld{
		log:   wal.New(4 << 20),
		store: disk.NewMemStore(),
		blobs: NewMemBlobs(),
	}
	var err error
	w.arch, err = NewArchiver(w.log, w.store, w.blobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := server.Config{
		Mode:            server.ModeREDO,
		Store:           w.store,
		Log:             w.log,
		LogCapacity:     4 << 20,
		PoolPages:       64,
		CheckpointEvery: 2,
	}
	Wire(&cfg, w.arch)
	w.srv = server.New(cfg)
	w.sn = w.srv.NewSession(nil, nil)
	return w
}

// commitPage allocates a page, fills it with val in one committed
// transaction, and returns its id.
func (w *redoWorld) commitPage(t *testing.T, val byte) page.ID {
	t.Helper()
	tid := w.sn.Begin()
	pid, err := w.sn.AllocPage(tid)
	if err != nil {
		t.Fatal(err)
	}
	r := logrec.NewPageImage(tid, pid, testPage(val))
	if err := w.sn.ShipLog(tid, r.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	if err := w.sn.Commit(tid); err != nil {
		t.Fatal(err)
	}
	return pid
}

// commitEnds returns the exclusive end LSN of every commit record in the
// archive, in order.
func (w *redoWorld) commitEnds(t *testing.T) []uint64 {
	t.Helper()
	segs, err := ListSegments(w.blobs, w.arch.Generation())
	if err != nil {
		t.Fatal(err)
	}
	var ends []uint64
	for _, s := range segs {
		for _, r := range segmentRecords(t, w.blobs, s) {
			if r.Type == logrec.TypeCommit {
				ends = append(ends, r.LSN+uint64(r.EncodedSize()))
			}
		}
	}
	return ends
}

// wantVal asserts pid's restored image carries val (0 = page absent or
// still zero at the stamp offset).
func wantVal(t *testing.T, st disk.Store, pid page.ID, val byte, why string) {
	t.Helper()
	buf := make([]byte, page.Size)
	err := st.ReadPage(pid, buf)
	if errors.Is(err, disk.ErrNotFound) {
		if val != 0 {
			t.Fatalf("%s: page %v absent, want val %d", why, pid, val)
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if buf[valOff] != val {
		t.Fatalf("%s: page %v has val %d, want %d", why, pid, buf[valOff], val)
	}
}

func TestBackupRestorePITR(t *testing.T) {
	w := newRedoWorld(t, Options{SegmentBytes: 2 << 10})
	p1 := w.commitPage(t, 1)
	p2 := w.commitPage(t, 2)
	backup, err := w.arch.Backup()
	if err != nil {
		t.Fatal(err)
	}
	p3 := w.commitPage(t, 3)
	// A loser: t4 overwrites p1's stamp but never commits.
	tid4 := w.sn.Begin()
	if err := w.sn.Lock(tid4, p1, lock.Exclusive); err != nil {
		t.Fatal(err)
	}
	r4 := logrec.NewUpdate(tid4, p1, valOff, testPage(1)[valOff:valOff+64], testPage(99)[valOff:valOff+64])
	if err := w.sn.ShipLog(tid4, r4.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	p5 := w.commitPage(t, 5)
	w.log.Force()
	if err := w.arch.Drain(); err != nil {
		t.Fatal(err)
	}

	// The volume is destroyed; restore to end of archive. Committed pages
	// are back, the loser's overwrite is rolled back.
	res, err := Restore(w.blobs, RestoreOptions{Mode: server.ModeREDO})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Server.Close()
	if res.Backup.End != backup.End {
		t.Fatalf("restore used backup ending %d, want %d", res.Backup.End, backup.End)
	}
	wantVal(t, res.Store, p1, 1, "end: committed page overwritten by loser")
	wantVal(t, res.Store, p2, 2, "end: committed page")
	wantVal(t, res.Store, p3, 3, "end: committed page after backup")
	wantVal(t, res.Store, p5, 5, "end: last committed page")

	// Point-in-time: cut at t3's commit record. t3 is in, t5 (and the
	// loser) are out.
	commits := w.commitEnds(t)
	if len(commits) != 4 {
		t.Fatalf("archive holds %d commits, want 4", len(commits))
	}
	cut := commits[2]
	res2, err := Restore(w.blobs, RestoreOptions{Mode: server.ModeREDO, TargetLSN: cut})
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Server.Close()
	if res2.CutLSN != cut {
		t.Fatalf("replayed to %d, want the cut %d", res2.CutLSN, cut)
	}
	wantVal(t, res2.Store, p1, 1, "pitr: committed page")
	wantVal(t, res2.Store, p3, 3, "pitr: last committed page at the cut")
	wantVal(t, res2.Store, p5, 0, "pitr: page committed after the cut")

	// A target inside the record after the cut restores to the cut: the
	// last whole record ending at or before the target.
	res3, err := Restore(w.blobs, RestoreOptions{Mode: server.ModeREDO, TargetLSN: cut + 1})
	if err != nil {
		t.Fatal(err)
	}
	defer res3.Server.Close()
	if res3.CutLSN != cut {
		t.Fatalf("target %d inside a record replayed to %d, want the cut %d", cut+1, res3.CutLSN, cut)
	}
	wantVal(t, res3.Store, p3, 3, "pitr inside a record: last committed page at the cut")
	wantVal(t, res3.Store, p5, 0, "pitr inside a record: page committed after the cut")

	// A cut inside the backup's fuzz window has no usable backup.
	if _, err := Restore(w.blobs, RestoreOptions{Mode: server.ModeREDO, TargetLSN: backup.End - 1}); !errors.Is(err, ErrNoBackup) {
		t.Fatalf("restore before the backup window closed: %v, want ErrNoBackup", err)
	}
}

// TestRestoreRerunnable: a restore that dies half-way (volume write errors,
// or a crash in the final handoff) leaves the archive untouched and a second
// run succeeds; Finish never runs on a failed restore.
func TestRestoreRerunnable(t *testing.T) {
	w := newRedoWorld(t, Options{SegmentBytes: 2 << 10})
	p1 := w.commitPage(t, 1)
	w.commitPage(t, 2)
	if _, err := w.arch.Backup(); err != nil {
		t.Fatal(err)
	}
	p3 := w.commitPage(t, 3)
	w.log.Force()
	if err := w.arch.Drain(); err != nil {
		t.Fatal(err)
	}

	// Attempt 1: every volume write fails.
	boom := faultinject.NewStore(disk.NewMemStore())
	boom.Arm(faultinject.Plan{WriteErrorRate: 1, Seed: 1})
	finished := false
	_, err := Restore(w.blobs, RestoreOptions{
		Mode:     server.ModeREDO,
		NewStore: func() (disk.Store, error) { return boom, nil },
		Finish:   func(disk.Store) error { finished = true; return nil },
	})
	if err == nil {
		t.Fatal("restore onto a failing volume reported success")
	}
	if finished {
		t.Fatal("Finish ran on a failed restore")
	}

	// Attempt 2: crash during the final handoff itself.
	_, err = Restore(w.blobs, RestoreOptions{
		Mode:   server.ModeREDO,
		Finish: func(disk.Store) error { return fmt.Errorf("crash before rename") },
	})
	if err == nil {
		t.Fatal("restore with crashing Finish reported success")
	}

	// Attempt 3: re-run cleanly; same cut, correct data.
	res, err := Restore(w.blobs, RestoreOptions{Mode: server.ModeREDO})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Server.Close()
	wantVal(t, res.Store, p1, 1, "rerun")
	wantVal(t, res.Store, p3, 3, "rerun")
}

// TestCorruptionDetected: a torn write or bit flip in an archive blob is
// caught by its checksum and surfaces as the typed error — a restore fails
// loudly rather than silently replaying damaged history.
func TestCorruptionDetected(t *testing.T) {
	setup := func(t *testing.T) (*redoWorld, SegmentInfo, BackupInfo) {
		w := newRedoWorld(t, Options{SegmentBytes: 1 << 10})
		w.commitPage(t, 1)
		w.commitPage(t, 2)
		if _, err := w.arch.Backup(); err != nil {
			t.Fatal(err)
		}
		w.commitPage(t, 3)
		w.log.Force()
		if err := w.arch.Drain(); err != nil {
			t.Fatal(err)
		}
		segs, err := ListSegments(w.blobs, w.arch.Generation())
		if err != nil {
			t.Fatal(err)
		}
		backups, err := ListBackups(w.blobs, w.arch.Generation())
		if err != nil {
			t.Fatal(err)
		}
		return w, segs[len(segs)/2], backups[0]
	}
	corrupt := func(t *testing.T, w *redoWorld, name string, plan faultinject.Plan) {
		t.Helper()
		data, err := w.blobs.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		fb := faultinject.NewBlobs(w.blobs, plan)
		if err := fb.Put(name, data); err != nil {
			t.Fatal(err)
		}
		if fb.Faults() == 0 {
			t.Fatal("injector did not fire")
		}
	}

	t.Run("segment bit flip", func(t *testing.T) {
		w, seg, _ := setup(t)
		corrupt(t, w, seg.Name, faultinject.Plan{BitFlipRate: 1, Seed: 3})
		if _, err := ReadSegment(w.blobs, seg); !errors.Is(err, ErrCorruptSegment) {
			t.Fatalf("ReadSegment: %v, want ErrCorruptSegment", err)
		}
		if _, err := Restore(w.blobs, RestoreOptions{Mode: server.ModeREDO}); !errors.Is(err, ErrCorruptSegment) {
			t.Fatalf("Restore: %v, want ErrCorruptSegment", err)
		}
	})
	t.Run("segment torn write", func(t *testing.T) {
		w, seg, _ := setup(t)
		corrupt(t, w, seg.Name, faultinject.Plan{TornWriteRate: 1, Seed: 5})
		if _, err := ReadSegment(w.blobs, seg); !errors.Is(err, ErrCorruptSegment) {
			t.Fatalf("ReadSegment: %v, want ErrCorruptSegment", err)
		}
	})
	t.Run("backup bit flip", func(t *testing.T) {
		w, _, bk := setup(t)
		corrupt(t, w, bk.Name, faultinject.Plan{BitFlipRate: 1, Seed: 7})
		if _, err := Restore(w.blobs, RestoreOptions{Mode: server.ModeREDO}); !errors.Is(err, ErrCorruptBackup) {
			t.Fatalf("Restore: %v, want ErrCorruptBackup", err)
		}
	})
}

// TestBackpressureBoundsLag: a committing session drains inline whenever the
// archiver falls more than MaxLagBytes behind (the archive holder's lag
// allowance), so commit traffic cannot outrun archiving without bound.
func TestBackpressureBoundsLag(t *testing.T) {
	const maxLag = 32 << 10
	w := newRedoWorld(t, Options{SegmentBytes: 8 << 10, MaxLagBytes: maxLag})
	for i := 0; i < 24; i++ {
		w.commitPage(t, byte(i+1)) // each ships a full page image: ~8 KB of log
		if lag := w.arch.Status().LagBytes; lag > maxLag {
			t.Fatalf("after commit %d: archiver lag %d exceeds MaxLagBytes %d", i, lag, maxLag)
		}
	}
	if w.arch.Status().Segments == 0 {
		t.Fatal("backpressure never sealed a segment")
	}
}

// TestArchiverFollowsRebasedLog: an archiver wired over a fresh log that
// Restart then re-bases above a reopened volume's checkpoint (wal.StartAt)
// archives from the new start instead of scanning LSNs that never existed.
func TestArchiverFollowsRebasedLog(t *testing.T) {
	log := wal.New(1 << 20)
	a, err := NewArchiver(log, disk.NewMemStore(), NewMemBlobs(), Options{SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	cfg := server.Config{Log: log}
	Wire(&cfg, a)
	const start = 3 << 20
	if err := log.StartAt(start); err != nil {
		t.Fatal(err)
	}
	ends := appendRecords(t, log, 10)
	if err := a.Drain(); err != nil {
		t.Fatalf("drain after the re-base: %v", err)
	}
	segs := a.Status().Segments
	if a.ArchivedUpTo() != ends[9] || segs == 0 {
		t.Fatalf("archived up to %d in %d segments, want %d", a.ArchivedUpTo(), segs, ends[9])
	}
	if err := log.Truncate(ends[9]); err != nil || log.Head() != ends[9] {
		t.Fatalf("archive holder still pins the head at %d: %v", log.Head(), err)
	}
}
