// Package repl implements hot-standby replication: WAL shipping from a
// primary, continuous redo apply on a standby, and crash-consistent failover
// (DESIGN.md §14).
//
// The design leans entirely on two existing invariants. First, logrec
// encoding is deterministic, so a standby re-appending the shipped stream at
// the primary's LSNs holds a byte-identical log. Second, restart recovery is
// a pure function of the stable log and volume, so promoting a standby is
// literally crash-then-restart (server.Session.Promote): the promoted state
// is byte-equivalent to what the primary itself would recover to at the same
// log cut. Replication therefore adds no new recovery code path — the
// failover sweep (internal/harness/replsweep.go) checks exactly this
// equivalence at every record boundary, for all five schemes.
//
// Shipping is pull-based: the standby fetches batches of stable records from
// its cursor, and each fetch carries the standby's applied-and-forced
// watermark back to the primary. That watermark doubles as the semi-sync
// acknowledgement — under AckSemiSync, a committing session blocks after its
// local force until the standby's watermark covers the commit record, so a
// group-commit batch waits once for the batch-end LSN. A "standby" retention
// holder on the primary's log (wal.Log.Hold) keeps truncation behind the
// standby's cursor once one has connected; a standby arriving after reclamation gets
// ErrGap and must re-bootstrap from the archive (archive.Bootstrap).
package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrGap means the requested LSN has already been reclaimed on the primary:
// the standby's cursor predates the primary's log head, so the live log can
// no longer serve it. The standby must re-seed itself from the archive
// (archive.Bootstrap) and reconnect.
var ErrGap = errors.New("repl: requested LSN already reclaimed (re-bootstrap from archive)")

// AckMode selects what a primary commit waits for.
type AckMode int

const (
	// AckAsync: commits return after the local force; the standby applies at
	// its own pace and failover may lose the unshipped suffix (bounded by
	// the last fetch).
	AckAsync AckMode = iota
	// AckSemiSync: commits additionally wait until the standby reports the
	// commit record applied and forced, or AckTimeout passes — a timeout
	// degrades that commit to async (counted, never blocking durability on
	// a dead standby).
	AckSemiSync
)

func (m AckMode) String() string {
	if m == AckSemiSync {
		return "semi-sync"
	}
	return "async"
}

// Batch is one fetch response: every whole stable record in [from, Next),
// encoded back-to-back exactly as they appear in the primary's log.
type Batch struct {
	// Next is the cursor for the following fetch: just past the last record
	// in Records (equal to the requested LSN when Records is empty).
	Next uint64
	// StableEnd is the primary's stable log end at fetch time, for lag
	// accounting on the standby.
	StableEnd uint64
	// Records holds the encoded records, contiguous from the requested LSN.
	Records []byte
}

// FetchFunc is the standby's view of a primary: fetch stable records from
// `from`, reporting `applied` (the standby's applied-and-forced watermark —
// the semi-sync ack). It is the seam between repl and the transport:
// wire.Client.ReplFetch for a real link, Primary.Fetch directly for
// in-process tests and sweeps.
type FetchFunc func(from, applied uint64) (Batch, error)

// EncodeBatch flattens b for the wire.
func EncodeBatch(b Batch) []byte {
	out := make([]byte, 20+len(b.Records))
	binary.LittleEndian.PutUint64(out[0:], b.Next)
	binary.LittleEndian.PutUint64(out[8:], b.StableEnd)
	binary.LittleEndian.PutUint32(out[16:], uint32(len(b.Records)))
	copy(out[20:], b.Records)
	return out
}

// DecodeBatch parses an EncodeBatch payload.
func DecodeBatch(p []byte) (Batch, error) {
	if len(p) < 20 {
		return Batch{}, fmt.Errorf("repl: batch header truncated (%d bytes)", len(p))
	}
	n := binary.LittleEndian.Uint32(p[16:])
	if uint64(len(p)) != 20+uint64(n) {
		return Batch{}, fmt.Errorf("repl: batch payload length %d, header says %d", len(p)-20, n)
	}
	return Batch{
		Next:      binary.LittleEndian.Uint64(p[0:]),
		StableEnd: binary.LittleEndian.Uint64(p[8:]),
		Records:   p[20:],
	}, nil
}
