package archive

import (
	"fmt"
	"sort"

	"repro/internal/disk"
	"repro/internal/page"
	"repro/internal/server"
	"repro/internal/wal"
)

// Wire connects an archiver to a server configuration:
//
//   - the "archive" retention holder on cfg.Log, at the archived-up-to LSN,
//     so the log can never reclaim unarchived records (even when a
//     group-commit batch spans the truncation point — Truncate takes its
//     minimum over the holders under the log mutex, after every batching
//     decision has resolved). Its catch-up function is DrainTo, so a
//     checkpoint's truncation drains the archive up to the computed head
//     first, and its lag allowance is MaxLagBytes, so a committer that finds
//     the archiver further behind than that drains inline, bounding lag. A
//     failed drain fails nothing: the holder simply keeps the head back;
//   - Config.RepairPage, so a corrupt page the live log cannot rebuild is
//     repaired from the newest backup plus per-page redo (RepairPage).
//
// Call before server.New with cfg.Mode already set; cfg.Log must be the same
// log the archiver drains.
func Wire(cfg *server.Config, a *Archiver) {
	if cfg.Log != a.log {
		panic("archive: Wire with a different log than the archiver drains")
	}
	a.mu.Lock()
	a.hold = a.log.Hold("archive", a.archivedUpTo.Load(), a.DrainTo, a.opts.MaxLagBytes)
	a.mu.Unlock()
	mode, log, blobs := cfg.Mode, a.log, a.blobs
	cfg.RepairPage = func(pid page.ID) ([]byte, error) {
		return RepairPage(blobs, RepairOptions{Mode: mode, Page: pid, Log: log})
	}
}

// RestoreOptions configures a media restore.
type RestoreOptions struct {
	// Mode is the recovery scheme the destroyed server ran (restart replay
	// differs per scheme; WPL restores install from the rebuilt WPL table).
	Mode server.Mode
	// TargetLSN, when non-zero, is the point-in-time recovery cut: replay
	// stops at the last whole record ending at or before it, and the restart
	// pass rolls back every transaction without a commit record in that
	// prefix. Zero means end of archive.
	TargetLSN uint64
	// PoolPages is forwarded to the restored server (default server pool
	// size if zero).
	PoolPages int
	// NewStore supplies the replacement volume (a fresh staging volume — the
	// old one is destroyed). Defaults to an in-memory store.
	NewStore func() (disk.Store, error)
	// Finish, when non-nil, is called with the fully recovered staging
	// volume after restart completes, and only then — a crash anywhere
	// earlier leaves the staging volume abandoned and the restore cleanly
	// re-runnable. qsctl restore uses it to atomically rename the staged
	// volume file over the destination. When Finish is set the restored
	// server is shut down before the handoff and Result.Server is nil.
	Finish func(disk.Store) error
}

// RestoreResult reports a completed restore: the recovered volume, its log,
// the base backup used, and the cut the log was replayed to.
type RestoreResult struct {
	BootstrapResult
	Server *server.Server // live recovered server (nil when Finish was used)
}

// restoreLogSlack is extra restored-log capacity beyond the archived span,
// for the restart pass's own records (loser CLRs, the closing checkpoint).
const restoreLogSlack = 8 << 20

// BootstrapOptions configures a volume bootstrap (the restore phase shared
// by media recovery and cold-standby seeding).
type BootstrapOptions struct {
	// TargetLSN, when non-zero, bounds replay as in RestoreOptions.TargetLSN.
	TargetLSN uint64
	// NewStore supplies the staging volume (in-memory store if nil).
	NewStore func() (disk.Store, error)
	// LogSlack is extra restored-log capacity beyond the archived span
	// (default 8 MB). A standby bootstrapping to follow a live primary
	// should size this for the ongoing stream, not just recovery's own
	// appends.
	LogSlack int
}

// BootstrapResult is a restored-but-not-recovered volume: the backup image
// plus a stable log that holds the archived bytes at their own LSNs, with no
// restart pass run. Media restore continues with Restart; a cold standby
// instead replays the restored log through the server's ApplyShipped and then
// follows the live stream — running Restart here would append loser CLRs the
// primary's log does not have, and the replica would diverge before it began.
type BootstrapResult struct {
	Store    disk.Store
	Log      *wal.Log
	Backup   BackupInfo // the base backup used
	CutLSN   uint64     // LSN the log was restored to: it holds [Backup.RedoStart, CutLSN)
	Segments int        // archive segments staged
}

// Bootstrap rebuilds a volume and its log from the newest usable backup plus
// the archived log, stopping short of any recovery pass.
//
// An LSN is a byte offset, and an archived segment's payload is the log's
// bytes [Start, End) as they were logged. So the restored log is a fresh ring
// holding the chain's payloads at their own LSNs, opened from the backup's
// RedoStart (wal.Open): every record sits at the LSN it had when first
// logged, and every LSN embedded elsewhere — page headers, checkpoint
// payloads, the superblock's master record — resolves against it unchanged.
//
// Bootstrap never writes to the archive and stages into a fresh volume, so
// it is idempotent: run it again after a crash and it performs the same work.
func Bootstrap(blobs BlobStore, opts BootstrapOptions) (*BootstrapResult, error) {
	target := opts.TargetLSN
	if target == 0 {
		target = ^uint64(0)
	}
	backup, pages, err := pickBackup(blobs, target)
	if err != nil {
		return nil, err
	}
	chain, end, err := segmentChain(blobs, backup, target)
	if err != nil {
		return nil, err
	}

	newStore := opts.NewStore
	if newStore == nil {
		newStore = func() (disk.Store, error) { return disk.NewMemStore(), nil }
	}
	store, err := newStore()
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*BootstrapResult, error) {
		store.Close()
		return nil, err
	}
	// Write in ascending page order: the staging volume's write sequence is
	// then identical run to run, which keeps restore fault-injection sweeps
	// reproducible.
	ids := make([]page.ID, 0, len(pages))
	for id := range pages {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if err := store.WritePage(id, pages[id]); err != nil {
			return fail(fmt.Errorf("archive: restoring page %v: %w", id, err))
		}
	}

	// RedoStart is a record boundary. Open keeps the whole records below the
	// cut: PITR's last whole record ending at or before the target.
	slack := opts.LogSlack
	if slack <= 0 {
		slack = restoreLogSlack
	}
	log, err := stageLog(blobs, chain, backup.RedoStart, end, min(target, end), slack)
	if err != nil {
		return fail(err)
	}
	cut := log.End()
	if cut < backup.End {
		return fail(fmt.Errorf("%w: replay reaches %d, backup fuzz window ends at %d",
			ErrArchiveGap, cut, backup.End))
	}
	return &BootstrapResult{
		Store:    store,
		Log:      log,
		Backup:   backup,
		CutLSN:   cut,
		Segments: len(chain),
	}, nil
}

// stageLog opens a stable log over the chain's archived bytes [redoStart,
// end), each at its own LSN, in a fresh ring with slack bytes to spare; the
// log ends at the last whole record ending at or before cut. redoStart must be
// a record boundary below end.
func stageLog(blobs BlobStore, chain []SegmentInfo, redoStart, end, cut uint64, slack int) (*wal.Log, error) {
	capacity := int(end-redoStart) + slack
	ring := make(wal.Ring, capacity)
	for _, seg := range chain {
		payload, err := ReadSegment(blobs, seg)
		if err != nil {
			return nil, err
		}
		from := max(seg.Start, redoStart)
		ring.WriteAt(payload[from-seg.Start:], from)
	}
	return wal.Open(ring, capacity, redoStart, cut), nil
}

// Restore rebuilds a destroyed volume from the newest usable backup plus the
// archived log (Bootstrap), then recovers it with the server's own Restart:
// one pass from the backed-up superblock's checkpoint (analysis, with redo as
// it goes for ESM/REDO; installs from the WPL table for WPL), then rollback of
// every transaction the replayed prefix does not commit — which is exactly
// prefix consistency at the cut LSN.
func Restore(blobs BlobStore, opts RestoreOptions) (*RestoreResult, error) {
	boot, err := Bootstrap(blobs, BootstrapOptions{
		TargetLSN: opts.TargetLSN,
		NewStore:  opts.NewStore,
	})
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{
		Mode:      opts.Mode,
		Store:     boot.Store,
		Log:       boot.Log,
		PoolPages: opts.PoolPages,
	})
	if err := srv.NewSession(nil, nil).Restart(); err != nil {
		srv.Close()
		boot.Store.Close()
		return nil, fmt.Errorf("archive: restart on restored volume: %w", err)
	}
	res := &RestoreResult{BootstrapResult: *boot, Server: srv}
	if opts.Finish != nil {
		srv.Close()
		res.Server = nil
		if err := opts.Finish(boot.Store); err != nil {
			return nil, fmt.Errorf("archive: finishing restore: %w", err)
		}
	}
	return res, nil
}

// pickBackup selects the newest backup usable for a restore to target: from
// the newest generation holding any backup with End ≤ target, the newest
// such backup. Its pages are decoded (and checksummed) here.
func pickBackup(blobs BlobStore, target uint64) (BackupInfo, map[page.ID][]byte, error) {
	gens, err := Generations(blobs)
	if err != nil {
		return BackupInfo{}, nil, err
	}
	for i := len(gens) - 1; i >= 0; i-- {
		backups, err := ListBackups(blobs, gens[i])
		if err != nil {
			return BackupInfo{}, nil, err
		}
		for j := len(backups) - 1; j >= 0; j-- {
			if backups[j].End > target {
				continue // the fuzz window must be wholly inside the replayed prefix
			}
			data, err := blobs.Get(backups[j].Name)
			if err != nil {
				return BackupInfo{}, nil, err
			}
			info, pages, err := decodeBackup(backups[j].Name, data)
			if err != nil {
				return BackupInfo{}, nil, err
			}
			info.Gen = gens[i]
			return info, pages, nil
		}
	}
	return BackupInfo{}, nil, fmt.Errorf("%w: target LSN %d", ErrNoBackup, target)
}

// segmentChain returns the contiguous run of backup-generation segments
// covering [backup.RedoStart, end): starting with the segment containing
// RedoStart, each following segment must begin where the previous ended.
func segmentChain(blobs BlobStore, backup BackupInfo, target uint64) (chain []SegmentInfo, end uint64, err error) {
	segs, err := ListSegments(blobs, backup.Gen)
	if err != nil {
		return nil, 0, err
	}
	next := backup.RedoStart
	for _, s := range segs {
		if s.End <= next {
			continue // wholly before the redo horizon
		}
		if s.Start > next {
			break // gap; anything beyond it is unreachable
		}
		chain = append(chain, s)
		next = s.End
		if next >= target {
			break
		}
	}
	if next < backup.End {
		return nil, 0, fmt.Errorf("%w: generation %d archived to %d, backup fuzz window ends at %d",
			ErrArchiveGap, backup.Gen, next, backup.End)
	}
	return chain, next, nil
}
