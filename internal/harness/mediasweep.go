package harness

// The media kind (DESIGN.md §2.3, §10): node + archiver; the volume is
// destroyed outright and recovery comes entirely from the archive — the
// fuzzy online backup plus the archived log segments — at every archive
// boundary event and at sampled point-in-time cuts in between.

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/archive"
	"repro/internal/client"
	"repro/internal/disk"
	"repro/internal/logrec"
	"repro/internal/page"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Media sizing: fewer stamps than the crash kinds (each cut pays a full
// restore), segments small enough that one run seals dozens.
const (
	mediaStamps     = 64
	archSegmentSize = 8 << 10         // also the scrub kind's
	archMaxLag      = 64 << 10        // also the scrub kind's
	mediaBackupAt   = mediaStamps / 3 // stamp index where the online backup starts
	mediaBackupTxns = 16              // stamps committed *inside* the backup's page scan
	mediaStepPages  = 2               // backup pages copied between stamp batches
	mediaStepTxns   = 4               // stamps committed per step (the volume is tiny)
)

// steppedStore interposes on the volume the archiver backs up: every
// stepPages pages handed to the backup's ForEachPage scan, it runs step().
// The media kind uses it to commit stamp transactions in the middle of the
// volume copy, deterministically producing the fuzzy backup the fuzz window
// [Start, End) exists for — some pages are copied before an update, some
// after, and replaying the window reconciles them.
type steppedStore struct {
	disk.Store
	stepPages int
	step      func() error
}

func (s *steppedStore) ForEachPage(fn func(id page.ID, data []byte) error) error {
	n := 0
	return s.Store.ForEachPage(func(id page.ID, data []byte) error {
		if s.step != nil && n > 0 && n%s.stepPages == 0 {
			if err := s.step(); err != nil {
				return err
			}
		}
		n++
		return fn(id, data)
	})
}

// archivedServer is the node + archiver topology of the media and scrub
// kinds: a server over store with a live archiver (tiny segments) wired in,
// the archiver backing up archStore — the same volume, possibly behind an
// interposer.
type archivedServer struct {
	srv   *server.Server
	log   *wal.Log
	blobs *archive.MemBlobs
	arch  *archive.Archiver
	cli   *client.Client
}

func newArchivedServer(sys SweepSystem, store, archStore disk.Store, poolPages int) (*archivedServer, error) {
	a := &archivedServer{log: wal.New(sweepLogCapacity), blobs: archive.NewMemBlobs()}
	var err error
	a.arch, err = archive.NewArchiver(a.log, archStore, a.blobs, archive.Options{
		SegmentBytes: archSegmentSize,
		MaxLagBytes:  archMaxLag,
	})
	if err != nil {
		return nil, err
	}
	cfg := server.Config{
		Mode:            sys.Mode,
		Store:           store,
		Log:             a.log,
		LogCapacity:     sweepLogCapacity,
		PoolPages:       poolPages,
		CheckpointEvery: sweepCkptEvery,
	}
	archive.Wire(&cfg, a.arch)
	a.srv = server.New(cfg)
	a.cli = sweepClient(sys, wire.NewDirect(a.srv, nil, nil))
	return a, nil
}

// drain makes the whole log stable and archived.
func (a *archivedServer) drain() error {
	a.log.Force()
	return a.arch.Drain()
}

// mediaRun is the archive one workload left behind and what it must restore
// to. The journal's positions are LSNs, each stamp's post the end of its
// commit record as read back from the archived log — so the durable set at
// a cut is derived from the archive itself and the check is self-validating
// even though the backup races the workload.
type mediaRun struct {
	sys       SweepSystem
	blobs     archive.BlobStore
	j         *journal
	cuts      []uint64 // every whole-record end in [backupEnd, archEnd]: the PITR candidates
	always    []int64  // the points whose cut is an archive boundary event
	segments  int      // archive segments the workload sealed
	backupEnd uint64   // where the online backup's fuzz window closes
	archEnd   uint64
}

func openMedia(sys SweepSystem, seed int64) (*pointSpace, error) {
	run, err := runMediaWorkload(sys, seed)
	if err != nil {
		return nil, err
	}
	if run.segments < 2 || len(run.cuts) < 3 {
		return nil, fmt.Errorf("only %d segments sealed and %d cuts: sweep too weak (segment size too large for the workload?)",
			run.segments, len(run.cuts))
	}
	return &pointSpace{
		n:      int64(len(run.cuts)),
		always: run.always,
		note:   fmt.Sprintf("segments=%d backupEnd=%d archEnd=%d", run.segments, run.backupEnd, run.archEnd),
		replay: run.replayCut,
	}, nil
}

// runMediaWorkload runs the stamp workload with a live archiver wired in and
// one online backup taken concurrently with running transactions, then reads
// the archive back.
func runMediaWorkload(sys SweepSystem, seed int64) (*mediaRun, error) {
	mem := disk.NewMemStore()
	stepped := &steppedStore{Store: mem, stepPages: mediaStepPages}
	a, err := newArchivedServer(sys, mem, stepped, sweepServerPool)
	if err != nil {
		return nil, err
	}
	j := newJournal(func() int64 { return int64(a.log.StableEnd()) })
	if err := j.build(a.cli, seed); err != nil {
		return nil, err
	}
	// Stamps before the backup, then the online backup with more stamps
	// committing in the middle of its page scan (a genuinely fuzzy copy — no
	// quiesce), then the rest.
	if err := j.stamps(a.cli, mediaBackupAt, nil); err != nil {
		return nil, err
	}
	stepped.step = func() error {
		upTo := len(j.txns) + mediaStepTxns
		if upTo > mediaBackupAt+mediaBackupTxns {
			upTo = mediaBackupAt + mediaBackupTxns
		}
		return j.stamps(a.cli, upTo, nil)
	}
	backup, err := a.arch.Backup()
	stepped.step = nil
	if err != nil {
		return nil, fmt.Errorf("online backup: %w", err)
	}
	if len(j.txns) == mediaBackupAt {
		return nil, fmt.Errorf("no stamp ran inside the backup scan (volume smaller than %d pages?)", mediaStepPages)
	}
	if err := j.stamps(a.cli, mediaStamps, nil); err != nil {
		return nil, err
	}
	if err := a.drain(); err != nil {
		return nil, err
	}

	// The volume is now destroyed: everything below reads only the archive.
	run := &mediaRun{sys: sys, blobs: a.blobs, j: j, backupEnd: backup.End, archEnd: a.arch.ArchivedUpTo()}
	segs, err := archive.ListSegments(a.blobs, a.arch.Generation())
	if err != nil {
		return nil, err
	}
	// Archive boundary events — each sealed segment end at or after the fuzz
	// window closes, the window's close and the end of the archive — are
	// exactly the states a media failure can strand the archive in, since
	// segments are written atomically: they are always restored.
	boundaries := []uint64{run.backupEnd, run.archEnd}
	commitEnd := make(map[logrec.TID]uint64)
	for _, seg := range segs {
		payload, err := archive.ReadSegment(a.blobs, seg)
		if err != nil {
			return nil, fmt.Errorf("reading archive: %w", err)
		}
		recs, err := logrec.DecodeAll(payload)
		if err != nil {
			return nil, fmt.Errorf("reading archive: %w", err)
		}
		for _, r := range recs {
			end := r.LSN + uint64(r.EncodedSize())
			if r.Type == logrec.TypeCommit {
				commitEnd[r.TID] = end
			}
			if end >= run.backupEnd && end <= run.archEnd {
				run.cuts = append(run.cuts, end)
			}
		}
		if seg.End >= run.backupEnd {
			boundaries = append(boundaries, seg.End)
		}
	}
	j.postFromLog(commitEnd)
	run.segments = len(segs)
	for _, b := range boundaries {
		i := sort.Search(len(run.cuts), func(i int) bool { return run.cuts[i] >= b })
		if i == len(run.cuts) || run.cuts[i] != b {
			return nil, fmt.Errorf("archive boundary %d is not a record end", b)
		}
		run.always = append(run.always, int64(i+1))
	}
	return run, nil
}

func (run *mediaRun) restore(target uint64) (*archive.RestoreResult, error) {
	return archive.Restore(run.blobs, archive.RestoreOptions{
		Mode:      run.sys.Mode,
		TargetLSN: target,
		PoolPages: sweepServerPool,
	})
}

// replayCut restores at one cut and checks committed-durable /
// uncommitted-absent / torn-free against the durable set the archived log
// defines. At the first and last cut the restore is performed twice and the
// two recovered volumes diffed (media recovery is re-runnable and
// deterministic); at the first, a target just before it must be refused.
func (run *mediaRun) replayCut(point int64) (string, error) {
	cut := run.cuts[point-1]
	var fails []string
	bad := func(format string, args ...interface{}) {
		fails = append(fails, fmt.Sprintf("cut %d: ", cut)+fmt.Sprintf(format, args...))
	}
	res, err := run.restore(cut)
	if err != nil {
		return fmt.Sprintf("cut %d: restore failed: %v", cut, err), nil
	}
	defer res.Server.Close()
	if res.CutLSN != cut {
		bad("restore replayed to %d, want exactly the cut (cuts are record boundaries)", res.CutLSN)
	}
	if d := run.j.verify(sweepClient(run.sys, wire.NewDirect(res.Server, nil, nil)), int64(cut), false); d != "" {
		bad("%s", d)
	}
	if cut == run.backupEnd && cut > wal.FirstLSN+1 {
		// A cut before the backup's fuzz window closes has no usable backup
		// and must say so, not hand back a volume missing backup pages.
		if _, err := run.restore(cut - 1); !errors.Is(err, archive.ErrNoBackup) {
			bad("restore before the backup window closed: got %v, want ErrNoBackup", err)
		}
	}
	if cut == run.backupEnd || cut == run.archEnd {
		res2, err := run.restore(cut)
		if err != nil {
			bad("second restore failed (restore must be re-runnable): %v", err)
			return strings.Join(fails, "; "), nil
		}
		defer res2.Server.Close()
		a, err := dumpStore(res.Store)
		if err != nil {
			return "", err
		}
		b, err := dumpStore(res2.Store)
		if err != nil {
			return "", err
		}
		if d := diffDumps(a, b); d != "" {
			bad("two restores at the same cut diverge: %s", d)
		}
	}
	return strings.Join(fails, "; "), nil
}
