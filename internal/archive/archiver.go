package archive

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/disk"
	"repro/internal/logrec"
	"repro/internal/page"
	"repro/internal/wal"
)

// Options tunes an Archiver. The zero value picks the defaults.
type Options struct {
	// SegmentBytes is the target payload size at which a segment is sealed
	// (default 1 MB). A segment may exceed it by one record.
	SegmentBytes int
	// MaxLagBytes bounds how far the stable log end may run ahead of the
	// archived-up-to LSN before a committing session drains inline
	// (default 8 MB): the lag allowance of the archive retention holder.
	MaxLagBytes uint64
}

const (
	defaultSegmentBytes = 1 << 20
	defaultMaxLagBytes  = 8 << 20
)

// Archiver drains a live WAL into immutable, checksummed archive segments
// and takes fuzzy online backups of the data volume. One archiver owns one
// *generation* of the archive: because the log's unarchived tail dies with
// the process that wrote it, one process's archived stream cannot continue
// another's, so blobs are namespaced by a generation number and each
// NewArchiver call begins a fresh generation, whose restores start from its
// own base backup. Within a generation
// the archived segments form one contiguous LSN range starting at the log
// head observed at creation.
//
// The archiver is glued to the log through the "archive" retention holder
// (wal.Log.Hold, registered by Wire) positioned at the archived-up-to LSN:
// the log head never passes it, so no record can be reclaimed before it is
// safely archived, and DrainTo is the holder's catch-up function, so a
// truncation that wants to go further drains first. The log calls DrainTo
// with its own mutex released: DrainTo holds the archiver mutex while
// scanning the log and moving the holder (log mutex inside archiver mutex).
type Archiver struct {
	log   *wal.Log
	store disk.Store
	blobs BlobStore
	opts  Options
	gen   uint64

	archivedUpTo atomic.Uint64 // all records below are archived; read lock-free by ArchivedUpTo

	mu       sync.Mutex
	hold     *wal.Holder // nil until Wire registers it
	segments []SegmentInfo
	backups  []BackupInfo
	segBytes int64 // cumulative archived payload bytes
}

// NewArchiver starts a new archive generation over log and store: one past
// the highest generation already in blobs, beginning at the current log
// head. The generation's begin marker is written immediately.
func NewArchiver(log *wal.Log, store disk.Store, blobs BlobStore, opts Options) (*Archiver, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if opts.MaxLagBytes == 0 {
		opts.MaxLagBytes = defaultMaxLagBytes
	}
	gens, err := Generations(blobs)
	if err != nil {
		return nil, err
	}
	gen := uint64(1)
	if n := len(gens); n > 0 {
		gen = gens[n-1] + 1
	}
	a := &Archiver{log: log, store: store, blobs: blobs, opts: opts, gen: gen}
	start := log.Head()
	a.archivedUpTo.Store(start)
	if err := blobs.Put(genName(gen), encodeGenMarker(start)); err != nil {
		return nil, fmt.Errorf("archive: writing generation marker: %w", err)
	}
	return a, nil
}

// Generation returns the archiver's generation number.
func (a *Archiver) Generation() uint64 { return a.gen }

// ArchivedUpTo returns the LSN below which every record is archived.
func (a *Archiver) ArchivedUpTo() uint64 { return a.archivedUpTo.Load() }

// Drain archives everything stable and not yet archived.
func (a *Archiver) Drain() error { return a.DrainTo(a.log.StableEnd()) }

// DrainTo archives all stable records in [ArchivedUpTo, target), sealing
// segments of roughly SegmentBytes. It is the archive holder's catch-up
// function: after DrainTo(newHead) succeeds the holder stands at newHead and
// no longer keeps Truncate from reaching it.
func (a *Archiver) DrainTo(target uint64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if stable := a.log.StableEnd(); target > stable {
		target = stable
	}
	if head := a.log.Head(); a.hold != nil && a.archivedUpTo.Load() < head {
		// The holder keeps the head behind this cursor, so a head above it
		// means the log was re-based while still empty (wal.StartAt, a fresh
		// log adopted over a used volume): nothing was skipped.
		a.archivedUpTo.Store(head)
	}
	for {
		from := a.archivedUpTo.Load()
		if from >= target {
			return nil
		}
		var payload []byte
		count := 0
		// ScanFrom (the shipping tail-follow scan) rather than Scan: it stops
		// at the stable end by construction — the archive must never contain a
		// volatile record — and it releases the log lock between records, so a
		// large drain does not stall committers behind the whole segment scan.
		// next is tracked explicitly because the target check rejects a record
		// without consuming it, while ScanFrom's own resume LSN counts every
		// record delivered to fn.
		next := from
		_, err := a.log.ScanFrom(from, func(r *logrec.Record) bool {
			if r.LSN >= target {
				return false
			}
			payload = r.Encode(payload)
			count++
			next = r.LSN + uint64(r.EncodedSize())
			return len(payload) < a.opts.SegmentBytes
		})
		if err != nil {
			return fmt.Errorf("archive: draining log: %w", err)
		}
		if count == 0 {
			// The stable end fell mid-record (page-grained ForceFull flushing
			// leaves a torn tail): everything whole is archived; the partial
			// record will be sealed once a later flush completes it. Truncation
			// heads are always whole-record boundaries, so a drain Truncate
			// asked for never ends up here short of its target.
			return nil
		}
		info := SegmentInfo{Name: segName(a.gen, from, next), Gen: a.gen, Start: from, End: next}
		if err := a.blobs.Put(info.Name, encodeSegment(from, next, count, payload)); err != nil {
			return fmt.Errorf("archive: writing segment %s: %w", info.Name, err)
		}
		a.segments = append(a.segments, info)
		a.segBytes += int64(len(payload))
		a.archivedUpTo.Store(next)
		if a.hold != nil {
			a.hold.Set(next)
		}
	}
}

// Backup takes a fuzzy online backup: every page of the data volume is
// copied while transactions keep running, with the log positions around the
// copy recorded as the fuzz window [Start, End). RedoStart is the log head
// at backup start; by the truncation invariant (the head never passes the
// last checkpoint, any active transaction's first record, or an uninstalled
// WPL copy) replaying the archive from RedoStart over the backup image
// reconstructs any later point, for every recovery scheme.
//
// Before the backup blob is written, the log is forced and the archive
// drained through End — a backup only becomes visible once its entire fuzz
// window is safely archived, so any backup a restore can see is usable.
func (a *Archiver) Backup() (BackupInfo, error) {
	redoStart := a.log.Head()
	start := a.log.End()
	var payload []byte
	pages := 0
	err := a.store.ForEachPage(func(id page.ID, data []byte) error {
		var idb [4]byte
		binary.LittleEndian.PutUint32(idb[:], uint32(id))
		payload = append(payload, idb[:]...)
		payload = append(payload, data...)
		pages++
		return nil
	})
	if err != nil {
		return BackupInfo{}, fmt.Errorf("archive: scanning volume: %w", err)
	}
	end := a.log.End()
	a.log.Force()
	if err := a.DrainTo(end); err != nil {
		return BackupInfo{}, err
	}
	info := BackupInfo{
		Name:      backupName(a.gen, end),
		Gen:       a.gen,
		RedoStart: redoStart,
		Start:     start,
		End:       end,
		Pages:     pages,
	}
	if err := a.blobs.Put(info.Name, encodeBackup(info, payload)); err != nil {
		return BackupInfo{}, fmt.Errorf("archive: writing backup %s: %w", info.Name, err)
	}
	a.mu.Lock()
	a.backups = append(a.backups, info)
	a.mu.Unlock()
	return info, nil
}

// Status is the archiver's observability snapshot, reported by qsctl stats.
type Status struct {
	Generation     uint64 `json:"generation"`
	Segments       int    `json:"segments"`
	SegmentBytes   int64  `json:"segment_bytes"`
	ArchivedUpTo   uint64 `json:"archived_up_to"`
	StableEnd      uint64 `json:"stable_end"`
	LagBytes       uint64 `json:"lag_bytes"`
	SegmentsBehind int    `json:"segments_behind"`
	Backups        int    `json:"backups"`
	LastBackupLSN  uint64 `json:"last_backup_lsn"`
}

// Status returns a snapshot of archiver progress and lag.
func (a *Archiver) Status() Status {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := Status{
		Generation:   a.gen,
		Segments:     len(a.segments),
		SegmentBytes: a.segBytes,
		ArchivedUpTo: a.archivedUpTo.Load(),
		StableEnd:    a.log.StableEnd(),
		Backups:      len(a.backups),
	}
	if st.StableEnd > st.ArchivedUpTo {
		st.LagBytes = st.StableEnd - st.ArchivedUpTo
		st.SegmentsBehind = int((st.LagBytes + uint64(a.opts.SegmentBytes) - 1) / uint64(a.opts.SegmentBytes))
	}
	if n := len(a.backups); n > 0 {
		st.LastBackupLSN = a.backups[n-1].End
	}
	return st
}
