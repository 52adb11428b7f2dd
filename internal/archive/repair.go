package archive

// Single-page media repair: rebuild one corrupt page from the newest backup
// plus per-page redo over the archived log, continuing into the live log.
//
// This is Restore scoped to one page id. The base image comes from the
// newest backup (pickBackup with no target cut); the record stream is the
// backup generation's contiguous segment chain, staged into a log exactly as
// Bootstrap stages it (stageLog), followed by the live log records past the
// archived end, cut at the live log's stable end. Both logs are fed to a
// server.PageRebuilder, whose replay is restart redo's own — a
// record the backup already contains is skipped, and running the repair twice
// produces the identical image. By the truncation invariant every record
// newer than the archived end is still in the live log, so the stream has no
// gap.
//
// RepairPage never writes anywhere — the caller (internal/server/scrub.go,
// under the page's shard latch) installs the returned image — and never
// takes the archiver's own lock, so it is safe to call from a committing
// session while a drain is in progress.

import (
	"errors"
	"fmt"

	"repro/internal/page"
	"repro/internal/server"
	"repro/internal/wal"
)

// ErrPageUnrepairable means the archive (plus live log) cannot rebuild the
// requested page: no backup holds it and no whole-page image precedes its
// updates in the record stream.
var ErrPageUnrepairable = errors.New("archive: page not repairable from the archive")

// RepairOptions configures a single-page repair.
type RepairOptions struct {
	// Mode is the recovery scheme of the server whose page is being
	// repaired. ESM/REDO repair replays updates over a base image; WPL
	// repair installs the newest committed whole-page image (NO-STEAL: an
	// uncommitted image must never reach a permanent location).
	Mode server.Mode
	// Page is the page to rebuild.
	Page page.ID
	// Log, when non-nil, is the live log; per-page redo continues past the
	// archived end into it, cut at its stable end. The caller should force
	// the log first if it wants the freshest possible image.
	Log *wal.Log
}

// RepairPage rebuilds one page and returns its image (page.Size bytes).
func RepairPage(blobs BlobStore, opts RepairOptions) ([]byte, error) {
	backup, pages, err := pickBackup(blobs, ^uint64(0))
	if err != nil {
		return nil, fmt.Errorf("repairing page %v: %w", opts.Page, err)
	}
	chain, end, err := segmentChain(blobs, backup, ^uint64(0))
	if err != nil {
		return nil, fmt.Errorf("repairing page %v: %w", opts.Page, err)
	}

	b := server.NewPageRebuilder(opts.Mode, opts.Page, pages[opts.Page])
	err = func() error {
		// A chain with no bytes past RedoStart stages nothing.
		if end > backup.RedoStart {
			staged, err := stageLog(blobs, chain, backup.RedoStart, end, end, 0)
			if err != nil {
				return err
			}
			if err := b.FeedLog(staged, backup.RedoStart); err != nil {
				return err
			}
		}
		if opts.Log == nil {
			return nil
		}
		// Records below the archived end were already consumed from the chain.
		return b.FeedLog(opts.Log, end)
	}()
	switch {
	case errors.Is(err, server.ErrNoBaseImage):
		return nil, fmt.Errorf("%w: %v: %w", ErrPageUnrepairable, opts.Page, err)
	case err != nil:
		return nil, fmt.Errorf("repairing page %v: %w", opts.Page, err)
	}
	img := b.Image()
	if img == nil {
		return nil, fmt.Errorf("%w: %v: no backup holds it and no whole-page image is archived",
			ErrPageUnrepairable, opts.Page)
	}
	return img, nil
}
