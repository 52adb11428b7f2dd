package wire

// The protocol in one place: the frame format, the op table and the status
// table. Every carrier moves these frames; nothing else in the package knows
// an op by anything but its row here (DESIGN.md §2.6).
//
// Request frame:  [u32 body-len][u8 op][u64 tid][u32 pid][u8 mode][payload]
// Response frame: [u32 body-len][u8 status][payload]
//
// status 0 means success with result payload; otherwise the payload is an
// error message and the status selects a sentinel so errors.Is works across
// the wire for the errors callers branch on.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/disk"
	"repro/internal/faultinject"
	"repro/internal/lock"
	"repro/internal/logrec"
	"repro/internal/page"
	"repro/internal/repl"
	"repro/internal/server"
)

// Op codes.
const (
	opBegin = iota + 1
	opLock
	opAllocPage
	opReadPage
	opShipLog
	opShipPage
	opCommit
	opAbort
	opFaults    // arm/disarm a fault plan (management, not part of Service)
	opStats     // fetch DaemonStats as JSON (management, not part of Service)
	opBackup    // take an online fuzzy backup (management, not part of Service)
	opRetired   // no op: archiver status rides opStats; held so later codes keep their values
	opScrub     // verify/repair stored pages now (management, not part of Service)
	opReplFetch // standby pull of stable WAL records (management, not part of Service)
	opPromote   // promote a standby to primary (management, not part of Service)
	// Two-phase commit (the TwoPC surface; Adopt rides opBegin with tid≠0).
	opPrepare        // force a PREPARE record and vote yes
	opDecide         // deliver the outcome; mode selects abort/commit/forget
	opResolveInDoubt // recovery resolution against the coordinator shard
)

// opDecide mode byte values.
const (
	decideAbort  = 0
	decideCommit = 1
	decideForget = 2
)

// resend is what the retry carrier may do with a request after a transient
// transport failure.
type resend uint8

const (
	// resendAlways: idempotent, re-sent after any transient failure.
	resendAlways resend = iota + 1
	// resendIfUndelivered: a second delivery would repeat an effect (a
	// double-appended log batch), so the request is re-sent only when the
	// failure guarantees it never arrived; otherwise the error surfaces.
	resendIfUndelivered
	// resendCommit: as resendIfUndelivered, but an ambiguous failure
	// surfaces as ErrCommitOutcomeUnknown (see retry.go).
	resendCommit
	// resendAbort: as resendAlways, and ErrNoTxn means done — the server's
	// disconnect handling already aborted the transaction, the outcome the
	// caller asked for.
	resendAbort
)

// opInfo is one op's row of the protocol table.
type opInfo struct {
	name   string // key of the per-op counters in DaemonStats.Ops
	resend resend
	dup    bool // a message fault may deliver it twice: doing it again is harmless
}

// ops is the protocol table, indexed by op code.
var ops = [...]opInfo{
	opBegin:     {"begin", resendAlways, false}, // also Adopt; a second Begin would leak a transaction
	opLock:      {"lock", resendAlways, true},   // re-granting a held lock is a no-op
	opAllocPage: {"alloc-page", resendAlways, false},
	opReadPage:  {"read-page", resendAlways, true},
	opShipLog:   {"ship-log", resendIfUndelivered, false},
	opShipPage:  {"ship-page", resendAlways, true}, // same bytes twice: last write wins
	opCommit:    {"commit", resendCommit, false},
	opAbort:     {"abort", resendAbort, false},
	opFaults:    {"faults", resendAlways, false}, // re-arming restarts the same schedule
	opStats:     {"stats", resendAlways, false},  // also InDoubt
	opBackup:    {"backup", resendIfUndelivered, false},
	opScrub:     {"scrub", resendAlways, false},
	opReplFetch: {"repl-fetch", resendAlways, false}, // a re-sent pull returns the same batch
	opPromote:   {"promote", resendIfUndelivered, false},
	// The server absorbs re-delivered votes, decisions (Decide and Forget
	// both ride opDecide) and resolutions: the forced PREPARE/DECIDE records
	// make the 2PC state machine re-entrant.
	opPrepare:        {"prepare", resendAlways, false},
	opDecide:         {"decide", resendAlways, false},
	opResolveInDoubt: {"resolve-in-doubt", resendAlways, false},
}

// rowOf returns op's row; an unknown code has the zero row.
func rowOf(op byte) opInfo {
	if int(op) < len(ops) {
		return ops[op]
	}
	return opInfo{}
}

// opName returns the stable human-readable name of an op code.
func opName(op byte) string {
	if name := rowOf(op).name; name != "" {
		return name
	}
	return fmt.Sprintf("op%d", op)
}

// opCounts counts frames served per op code, unknown codes included.
type opCounts [256]atomic.Int64

// snapshot returns the non-zero counters by op name. Consumers (qsctl stats)
// must sort the keys before printing.
func (c *opCounts) snapshot() map[string]int64 {
	out := make(map[string]int64)
	for op := range c {
		if n := c[op].Load(); n > 0 {
			out[opName(byte(op))] = n
		}
	}
	return out
}

// Status codes.
const (
	stOK = iota
	stError
	stDeadlock
	stNoTxn
	stFaultAbort // a disk fault hit this request; the transaction was aborted
	stCorrupt    // a corrupt page was detected and could not be repaired
	stReplGap    // repl fetch cursor below the primary's log head (re-bootstrap)
	stStandby    // this server is a standby; writes must go to the primary
	stInDoubt    // the transaction is prepared; only its coordinator's decision ends it
)

// ErrTxnAbortedByFault is the client-side form of stFaultAbort: the server
// hit a (typically injected) disk error serving this transaction and
// aborted it rather than failing the process. Not retryable — the
// transaction is gone; the application starts a new one.
var ErrTxnAbortedByFault = errors.New("wire: transaction aborted after server disk fault")

// statuses is the one sentinel↔status mapping: a server error travels as the
// status of the first row it matches and arrives wrapping that row's client
// error; any other error travels as stError and its message.
var statuses = [...]struct {
	code   byte
	server error
	client error
}{
	{stDeadlock, lock.ErrDeadlock, lock.ErrDeadlock},
	{stNoTxn, server.ErrNoTxn, server.ErrNoTxn},
	{stFaultAbort, faultinject.ErrInjected, ErrTxnAbortedByFault},
	{stCorrupt, disk.ErrCorruptPage, disk.ErrCorruptPage},
	{stReplGap, repl.ErrGap, repl.ErrGap},
	{stStandby, server.ErrStandby, server.ErrStandby},
	{stInDoubt, server.ErrInDoubt, server.ErrInDoubt},
}

// encodeErr is the server side of the mapping.
func encodeErr(err error) (byte, []byte) {
	for _, s := range statuses {
		if errors.Is(err, s.server) {
			return s.code, []byte(err.Error())
		}
	}
	return stError, []byte(err.Error())
}

// decodeErr is the client side of the mapping.
func decodeErr(status byte, msg []byte) error {
	for _, s := range statuses {
		if s.code == status {
			return fmt.Errorf("%w: %s", s.client, msg)
		}
	}
	return errors.New(string(msg))
}

// maxFrame bounds a frame body; pages plus headers fit comfortably.
const maxFrame = 1 << 20

type frame struct {
	op      byte
	tid     logrec.TID
	pid     page.ID
	mode    byte
	payload []byte
}

func writeFrame(w io.Writer, head []byte, payload []byte) error {
	var lenbuf [4]byte
	binary.LittleEndian.PutUint32(lenbuf[:], uint32(len(head)+len(payload)))
	if _, err := w.Write(lenbuf[:]); err != nil {
		return err
	}
	if _, err := w.Write(head); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func readBody(r io.Reader) ([]byte, error) {
	var lenbuf [4]byte
	if _, err := io.ReadFull(r, lenbuf[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(lenbuf[:])
	if n > maxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

func writeRequest(w io.Writer, f frame) error {
	var head [14]byte
	head[0] = f.op
	binary.LittleEndian.PutUint64(head[1:], uint64(f.tid))
	binary.LittleEndian.PutUint32(head[9:], uint32(f.pid))
	head[13] = f.mode
	return writeFrame(w, head[:], f.payload)
}

func parseRequest(body []byte) (frame, error) {
	if len(body) < 14 {
		return frame{}, errors.New("wire: short request")
	}
	return frame{
		op:      body[0],
		tid:     logrec.TID(binary.LittleEndian.Uint64(body[1:])),
		pid:     page.ID(binary.LittleEndian.Uint32(body[9:])),
		mode:    body[13],
		payload: body[14:],
	}, nil
}
