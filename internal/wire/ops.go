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
//
// A batch frame (opBatch) carries one transaction's frames, served in order:
// its tid is theirs and its payload is the members, each
// [u32 len][14-byte head][payload]. Every member but the last is deferred
// (status-only), and the last is deferred or carries (see batchRole).

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
	opBatch          // one transaction's deferred frames and the call that carries them
)

// opDecide mode byte values.
const (
	decideAbort  = 0
	decideCommit = 1
	decideForget = 2
)

// resend is what the retry carrier may do with a request after a transient
// transport failure. The first three are in order of strictness: a batch
// takes the largest of its members' rules (asOne), and Abort never rides one.
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

// batchRole is how an op travels beside its transaction's other frames.
type batchRole uint8

const (
	// alone: sent by itself, carrying nothing.
	alone batchRole = iota
	// deferred: a status-only frame. The client does not wait for its reply:
	// it waits in its transaction's pending batch for the next call that
	// carries, and an error it draws surfaces there.
	deferred
	// carries: a call whose answer the caller waits for. It takes its
	// transaction's pending frames along, itself last, in one batch frame.
	carries
)

// opInfo is one op's row of the protocol table.
type opInfo struct {
	name   string // key of the per-op counters in DaemonStats.Ops
	resend resend
	dup    bool // a message fault may deliver it twice: doing it again is harmless
	batch  batchRole
}

// ops is the protocol table, indexed by op code.
var ops = [...]opInfo{
	opBegin:     {"begin", resendAlways, false, alone}, // also Adopt; a second Begin would leak a transaction
	opLock:      {"lock", resendAlways, true, carries}, // re-granting a held lock is a no-op
	opAllocPage: {"alloc-page", resendAlways, false, carries},
	opReadPage:  {"read-page", resendAlways, true, carries},
	opShipLog:   {"ship-log", resendIfUndelivered, false, deferred},
	opShipPage:  {"ship-page", resendAlways, true, deferred}, // same bytes twice: last write wins
	opCommit:    {"commit", resendCommit, false, carries},
	opAbort:     {"abort", resendAbort, false, alone},   // drops its transaction's pending frames unsent
	opFaults:    {"faults", resendAlways, false, alone}, // re-arming restarts the same schedule
	opStats:     {"stats", resendAlways, false, alone},  // also InDoubt
	opBackup:    {"backup", resendIfUndelivered, false, alone},
	opScrub:     {"scrub", resendAlways, false, alone},
	opReplFetch: {"repl-fetch", resendAlways, false, alone}, // a re-sent pull returns the same batch
	opPromote:   {"promote", resendIfUndelivered, false, alone},
	// The server absorbs re-delivered votes, decisions (Decide and Forget
	// both ride opDecide) and resolutions: the forced PREPARE/DECIDE records
	// make the 2PC state machine re-entrant.
	opPrepare:        {"prepare", resendAlways, false, carries},
	opDecide:         {"decide", resendAlways, false, alone}, // an abort decision drops pending frames, as Abort does
	opResolveInDoubt: {"resolve-in-doubt", resendAlways, false, alone},
	// A batch's own re-send and duplicate rules are its members' (asOne).
	opBatch: {"batch", resendIfUndelivered, false, alone},
}

// rowOf returns op's row; an unknown code has the zero row.
func rowOf(op byte) opInfo {
	if int(op) < len(ops) {
		return ops[op]
	}
	return opInfo{}
}

// asOne is how the carriers that treat a frame as one message — retry,
// message faults, a daemon connection's bookkeeping — see f: a plain frame as
// itself under its op's row; a batch as its last member under the strictest
// re-send rule of its members, duplicable only if every member is. A batch
// that does not parse is itself under the batch row.
func asOne(f frame) (frame, opInfo) {
	row := rowOf(f.op)
	if f.op != opBatch {
		return f, row
	}
	members, err := subFrames(f)
	if err != nil {
		return f, row
	}
	row.resend, row.dup = resendAlways, true
	for _, m := range members {
		r := rowOf(m.op)
		row.resend = max(row.resend, r.resend)
		row.dup = row.dup && r.dup
	}
	return members[len(members)-1], row
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

// headSize is a request's header: op, tid, pid, mode.
const headSize = 14

func appendHead(b []byte, f frame) []byte {
	b = append(b, f.op)
	b = binary.LittleEndian.AppendUint64(b, uint64(f.tid))
	b = binary.LittleEndian.AppendUint32(b, uint32(f.pid))
	return append(b, f.mode)
}

func writeRequest(w io.Writer, f frame) error {
	var head [headSize]byte
	return writeFrame(w, appendHead(head[:0], f), f.payload)
}

func parseRequest(body []byte) (frame, error) {
	if len(body) < headSize {
		return frame{}, errors.New("wire: short request")
	}
	return frame{
		op:      body[0],
		tid:     logrec.TID(binary.LittleEndian.Uint64(body[1:])),
		pid:     page.ID(binary.LittleEndian.Uint32(body[9:])),
		mode:    body[13],
		payload: body[headSize:],
	}, nil
}

// memberSize is the number of bytes f adds to a batch's payload.
func memberSize(f frame) int { return 4 + headSize + len(f.payload) }

// appendMember appends f to a batch payload.
func appendMember(b []byte, f frame) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(headSize+len(f.payload)))
	return append(appendHead(b, f), f.payload...)
}

// subFrames splits a batch frame into its members, refusing any batch the
// client codec does not build: an empty one, a member for another
// transaction, and a member whose op may not ride where it stands — a nested
// batch, a management op, a carrying call before the last place.
func subFrames(b frame) ([]frame, error) {
	var members []frame
	for p := b.payload; len(p) > 0; {
		if len(p) < 4 {
			return nil, errors.New("wire: batch member without a length")
		}
		n := binary.LittleEndian.Uint32(p)
		if uint64(n) > uint64(len(p)-4) {
			return nil, errors.New("wire: batch member runs past the frame")
		}
		m, err := parseRequest(p[4 : 4+n])
		if err != nil {
			return nil, err
		}
		members = append(members, m)
		p = p[4+n:]
	}
	if len(members) == 0 {
		return nil, errors.New("wire: empty batch")
	}
	for i, m := range members {
		if m.tid != b.tid {
			return nil, fmt.Errorf("wire: batch of %v holds a frame of %v", b.tid, m.tid)
		}
		switch rowOf(m.op).batch {
		case deferred:
		case carries:
			if i < len(members)-1 {
				return nil, fmt.Errorf("wire: %s frame before the end of a batch", opName(m.op))
			}
		default:
			return nil, fmt.Errorf("wire: %s frame in a batch", opName(m.op))
		}
	}
	return members, nil
}
