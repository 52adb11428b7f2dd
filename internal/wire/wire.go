// Package wire defines the client↔server protocol: the Service and TwoPC
// interfaces the client programs against, the frame and op tables (ops.go),
// one client codec (Client) and the carriers that move its frames — in
// process with network costs charged to a meter (NewDirect, used by both real
// tests and the simulated testbed), over TCP to a standalone daemon (Dial),
// with bounded retry (WithRetry) and with injected message faults
// (WithFaults). DESIGN.md §2.6.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/archive"
	"repro/internal/costmodel"
	"repro/internal/lock"
	"repro/internal/logrec"
	"repro/internal/page"
	"repro/internal/repl"
	"repro/internal/server"
)

// Service is the storage server's RPC surface as seen by a client.
type Service interface {
	// Begin starts a transaction. Its open may travel with the
	// transaction's next call, and an error it draws may surface there.
	Begin() (logrec.TID, error)
	// Lock acquires a page lock. A Shared request blocks until granted. An
	// Exclusive one is for a page already in the caller's cache, so it need
	// not wait: it may travel with the transaction's next call, and an error
	// it draws — ErrDeadlock among them — may surface there; after it the
	// transaction must be aborted. The caller's writes stay in its cache
	// until their log records or pages ship, behind the request.
	Lock(tid logrec.TID, pid page.ID, mode lock.Mode) error
	// AllocPage reserves a fresh page id, exclusively locked by tid.
	AllocPage(tid logrec.TID) (page.ID, error)
	// ReadPage fetches a page after acquiring the given lock. The page is
	// in a buffer the Service owns and reuses: it is the caller's until the
	// next ReadPage on the same Service, and a caller that keeps it copies it.
	ReadPage(tid logrec.TID, pid page.ID, mode lock.Mode) ([]byte, error)
	// ShipLog delivers one page worth of encoded log records. The records
	// may travel with the transaction's next call instead, and an error they
	// draw may surface there; after it the transaction must be aborted.
	ShipLog(tid logrec.TID, data []byte) error
	// ShipPage delivers a dirty page. Like ShipLog, it may travel with the
	// transaction's next call, and its error may surface there; after it the
	// transaction must be aborted.
	ShipPage(tid logrec.TID, pid page.ID, data []byte) error
	// Commit commits the transaction (forcing the log at the server).
	Commit(tid logrec.TID) error
	// Abort rolls the transaction back.
	Abort(tid logrec.TID) error
}

// TwoPC is the two-phase-commit surface of a shard, driven by the router
// (internal/shard) for cross-shard transactions alongside the ordinary
// Service operations.
type TwoPC interface {
	// Adopt registers a coordinator-issued transaction id on this shard
	// (idempotent), creating an empty branch for it. Like Begin's, its open
	// may travel with the branch's next call.
	Adopt(tid logrec.TID) error
	// Prepare asks the shard to vote yes on tid, forcing a PREPARE record
	// carrying the coordinator identity and participant set.
	Prepare(tid logrec.TID, coordinator int, participants []int) error
	// Decide delivers the coordinator's outcome to tid's branch; on the
	// coordinator shard a commit decision forces the DECIDE record first.
	Decide(tid logrec.TID, commit bool) error
	// Forget retires tid's decided entry on the coordinator once every
	// participant has confirmed its commit.
	Forget(tid logrec.TID) error
	// Resolve answers a recovery-resolution request against the coordinator
	// shard: commit if the decision is on record, presumed abort otherwise.
	Resolve(tid logrec.TID) (commit bool, participants []int, err error)
	// InDoubt lists the shard's prepared-but-unresolved branches.
	InDoubt() ([]server.InDoubtTxn, error)
}

// carrier moves one request frame to a server and returns the reply payload,
// or the server's error (as the server returned it in process, decoded
// through the status table over TCP) or a transport failure. Carriers are
// the only thing transports differ in.
type carrier interface {
	roundTrip(f frame) ([]byte, error)
	// epoch names the connection the next frame rides. It changes whenever
	// the carrier drops its connection, so the transaction ids reserved on
	// the old one (which died with it) are not handed out again.
	epoch() uint64
}

// Client is the protocol's client side, written once: every Service, TwoPC
// and management call builds a frame, hands it to the client's carrier and
// decodes the reply. A status-only frame (open, an exclusive Lock, ShipLog,
// ShipPage) is not sent on its own: it waits, encoded, until its
// transaction's next call that needs an answer carries it along in one batch
// frame. Begin takes its id from a block the connection reserved, so a
// transaction's first frame is its first carrying call.
type Client struct {
	c carrier
	*connState
}

// connState is the transactions' side of a connection: a Client and every
// Client WithRetry or WithFaults wraps around it share one, as their frames
// share the connection at the end of the carrier chain.
type connState struct {
	// mu guards pending: shard.Router lets a management goroutine (Recover)
	// call in beside the transaction's own calls.
	mu      sync.Mutex
	pending map[logrec.TID][]byte // per transaction, its deferred frames as batch members
	// spare is the buffer of a batch whose carry has returned, emptied: the
	// next transaction's deferred frames are written into it.
	spare []byte
	tidMu sync.Mutex
	tids  tidRun // under tidMu
}

// newClient returns a client over c with a connection of its own.
func newClient(c carrier) *Client { return &Client{c: c, connState: &connState{}} }

// tidRun is what is left of the block of transaction ids a reserve frame
// set aside on one connection.
type tidRun struct {
	next   logrec.TID
	stride uint64
	left   int
	epoch  uint64 // the carrier's connection it was reserved on
}

var (
	_ Service = (*Client)(nil)
	_ TwoPC   = (*Client)(nil)
)

// Nominal per-message overheads used for network-cost accounting.
const (
	reqHeader  = 28 // op, tid, pid, mode, framing
	respHeader = 12 // status, framing
)

// direct carries frames in process: each is served on the client's own server
// session by the function a daemon connection runs, and charged to the meter
// as the paper's Ethernet would carry it — a batch's members one request and
// reply each, as the paper's protocol sends them. With a NopMeter this is the
// plain embedded configuration; with a SimMeter it models the network between
// a client workstation and the server.
type direct struct {
	s *session
	m costmodel.Meter
}

func (d *direct) roundTrip(f frame) ([]byte, error) { return d.s.each(f, d.one) }

// epoch is constant: an in-process session lives as long as its client, and
// an in-process crash keeps the server's allocation frontier.
func (d *direct) epoch() uint64 { return 0 }

func (d *direct) one(f frame) ([]byte, error) {
	d.m.Add(costmodel.MsgToServer, reqHeader+len(f.payload))
	out, err := d.s.serve(f)
	d.m.Add(costmodel.MsgToClient, respHeader+len(out))
	return out, err
}

// NewDirect connects to srv in process, reporting server-side work and
// message transfers to m (which may be nil for no accounting). The ignored
// *costmodel.Params is kept only because the frozen bench/ module calls
// NewDirect(srv, nil, nil).
func NewDirect(srv *server.Server, m costmodel.Meter, _ *costmodel.Params) *Client {
	if m == nil {
		m = costmodel.NopMeter{}
	}
	s := &session{d: &daemon{srv: srv}, sn: srv.NewSession(m, nil), page: make([]byte, page.Size)}
	return newClient(&direct{s: s, m: m})
}

// Close tears down the connection of a client from Dial or NewTCPClient. It
// is a no-op for an in-process client and for one WithRetry or WithFaults
// returned: close the client they wrapped.
func (c *Client) Close() error {
	if cl, ok := c.c.(io.Closer); ok {
		return cl.Close()
	}
	return nil
}

// call sends f as its op's row says: a deferred frame joins its
// transaction's pending frames and answers nil; a carrying one goes last in
// a batch frame of them, or alone when none are pending; any other goes
// alone. A frame that would push the batch past maxFrame first sends the
// pending frames as a batch of their own.
func (c *Client) call(f frame) ([]byte, error) {
	role := rowOf(f.op).batch
	if role == alone {
		return c.c.roundTrip(f)
	}
	buf := c.take(f.tid)
	if buf != nil && headSize+len(buf)+memberSize(f) > maxFrame {
		if _, err := c.carry(f.tid, buf); err != nil {
			return nil, err
		}
		buf = nil
	}
	switch {
	case role == deferred:
		if buf == nil {
			buf = c.fresh()
		}
		c.put(f.tid, appendMember(buf, f))
		return nil, nil
	case buf == nil:
		return c.c.roundTrip(f)
	}
	return c.carry(f.tid, appendMember(buf, f))
}

// carry sends tid's batch, and keeps its buffer (up to keepBuf) for the
// next transaction's frames once the carriers are done with it. An open in
// it that draws ErrNoTxn was refused where a fresh reservation opens — the
// server lost the block under a live connection, as a standby promoted under
// it does — so the next Begin reserves anew rather than hand out more ids of
// a dead block.
func (c *Client) carry(tid logrec.TID, payload []byte) ([]byte, error) {
	out, err := c.c.roundTrip(frame{op: opBatch, tid: tid, payload: payload})
	if unopened(payload) && errors.Is(err, server.ErrNoTxn) {
		c.tidMu.Lock()
		c.tids.left = 0
		c.tidMu.Unlock()
	}
	if cap(payload) <= keepBuf {
		c.mu.Lock()
		c.spare = payload[:0]
		c.mu.Unlock()
	}
	return out, err
}

// fresh returns the spare batch buffer, if a carry left one, for a
// transaction's first deferred frame.
func (c *Client) fresh() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	buf := c.spare
	c.spare = nil
	return buf
}

// put makes buf tid's pending frames.
func (c *Client) put(tid logrec.TID, buf []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pending == nil {
		c.pending = make(map[logrec.TID][]byte)
	}
	c.pending[tid] = buf
}

// take removes tid's pending frames and returns them; nil when none wait.
// Abort and an abort decision call it to drop them unsent: the server never
// saw them, so there is nothing to undo.
func (c *Client) take(tid logrec.TID) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	buf := c.pending[tid]
	delete(c.pending, tid)
	return buf
}

// send is a call whose reply carries nothing but its status.
func (c *Client) send(f frame) error {
	_, err := c.call(f)
	return err
}

// fetchJSON is a management call whose reply is a JSON document.
func (c *Client) fetchJSON(f frame, v any) error {
	out, err := c.call(f)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(out, v); err != nil {
		return fmt.Errorf("wire: bad %s response: %w", opName(f.op), err)
	}
	return nil
}

// Begin implements Service. The id comes from the block the connection
// reserved — one reserve frame per server.TIDBlock transactions, or after the
// carrier drops its connection — and the open waits for the transaction's
// first carrying call.
func (c *Client) Begin() (logrec.TID, error) {
	c.tidMu.Lock()
	defer c.tidMu.Unlock()
	if epoch := c.c.epoch(); c.tids.left == 0 || c.tids.epoch != epoch {
		// The epoch is read before the reserve: one that redials tags the
		// block with the old connection, so the next Begin reserves afresh.
		out, err := c.call(frame{op: opReserve})
		if err != nil {
			return 0, err
		}
		if len(out) != 16 || binary.LittleEndian.Uint64(out[8:]) == 0 {
			return 0, errors.New("wire: bad reserve response")
		}
		c.tids = tidRun{next: logrec.TID(binary.LittleEndian.Uint64(out)),
			stride: binary.LittleEndian.Uint64(out[8:]), left: server.TIDBlock, epoch: epoch}
	}
	tid := c.tids.next
	c.tids.next += logrec.TID(c.tids.stride)
	c.tids.left--
	// The open replaces whatever is pending under the id: a restarted
	// server may reserve it again, and frames left from its first use belong
	// to a transaction that died with the old connection.
	c.put(tid, appendMember(c.fresh(), frame{op: opOpen, tid: tid}))
	return tid, nil
}

// unopened reports whether pending frames begin with an open: their
// transaction has not reached the server.
func unopened(pending []byte) bool { return len(pending) > 4 && pending[4] == opOpen }

// Lock implements Service. An Exclusive request is a lock-x frame, deferred;
// a Shared one carries, because its caller reads the page next.
func (c *Client) Lock(tid logrec.TID, pid page.ID, mode lock.Mode) error {
	op := byte(opLock)
	if mode == lock.Exclusive {
		op = opLockX
	}
	return c.send(frame{op: op, tid: tid, pid: pid, mode: byte(mode)})
}

// AllocPage implements Service.
func (c *Client) AllocPage(tid logrec.TID) (page.ID, error) {
	out, err := c.call(frame{op: opAllocPage, tid: tid})
	if err != nil {
		return 0, err
	}
	if len(out) != 4 {
		return 0, errors.New("wire: bad AllocPage response")
	}
	return page.ID(binary.LittleEndian.Uint32(out)), nil
}

// ReadPage implements Service. The page is the carrier's: over TCP the
// connection's reply buffer, in process the session's.
func (c *Client) ReadPage(tid logrec.TID, pid page.ID, mode lock.Mode) ([]byte, error) {
	out, err := c.call(frame{op: opReadPage, tid: tid, pid: pid, mode: byte(mode)})
	if err != nil {
		return nil, err
	}
	if len(out) != page.Size {
		return nil, fmt.Errorf("wire: ReadPage returned %d bytes", len(out))
	}
	return out, nil
}

// ShipLog implements Service.
func (c *Client) ShipLog(tid logrec.TID, data []byte) error {
	return c.send(frame{op: opShipLog, tid: tid, payload: data})
}

// ShipPage implements Service.
func (c *Client) ShipPage(tid logrec.TID, pid page.ID, data []byte) error {
	return c.send(frame{op: opShipPage, tid: tid, pid: pid, payload: data})
}

// Commit implements Service.
func (c *Client) Commit(tid logrec.TID) error {
	return c.send(frame{op: opCommit, tid: tid})
}

// Abort implements Service. The transaction's pending frames are dropped
// unsent; if its open is among them the server never saw it, and no frame is
// sent at all.
func (c *Client) Abort(tid logrec.TID) error {
	if unopened(c.take(tid)) {
		return nil
	}
	return c.send(frame{op: opAbort, tid: tid})
}

// Adopt implements TwoPC: the branch's open waits, like a Begin's, for the
// first call that carries it, so joining a shard costs no frame.
func (c *Client) Adopt(tid logrec.TID) error {
	if tid == 0 {
		return errors.New("wire: Adopt of transaction id 0")
	}
	return c.send(frame{op: opOpen, tid: tid})
}

// Prepare implements TwoPC.
func (c *Client) Prepare(tid logrec.TID, coordinator int, participants []int) error {
	return c.send(frame{op: opPrepare, tid: tid, payload: logrec.EncodePrepareInfo(coordinator, participants)})
}

// Decide implements TwoPC. An abort decision is the router's Abort of a
// branch, and drops the branch's pending frames unsent as Abort does — with
// them an open, and then the frame too.
func (c *Client) Decide(tid logrec.TID, commit bool) error {
	mode := byte(decideAbort)
	if commit {
		mode = decideCommit
	} else if unopened(c.take(tid)) {
		return nil
	}
	return c.send(frame{op: opDecide, tid: tid, mode: mode})
}

// Forget implements TwoPC. Forget multiplexes onto opDecide with its own
// mode byte: it is the third and final delivery of an outcome in the forget
// protocol, and a dedicated op would buy nothing.
func (c *Client) Forget(tid logrec.TID) error {
	return c.send(frame{op: opDecide, tid: tid, mode: decideForget})
}

// Resolve implements TwoPC. Reply: [u8 commit][u32 n][u32 ×n participant
// shard ids].
func (c *Client) Resolve(tid logrec.TID) (bool, []int, error) {
	out, err := c.call(frame{op: opResolveInDoubt, tid: tid})
	if err != nil {
		return false, nil, err
	}
	if len(out) < 5 {
		return false, nil, errors.New("wire: short resolve response")
	}
	n := int(binary.LittleEndian.Uint32(out[1:]))
	if len(out) != 5+4*n {
		return false, nil, errors.New("wire: bad resolve response")
	}
	var parts []int
	for i := 0; i < n; i++ {
		parts = append(parts, int(binary.LittleEndian.Uint32(out[5+4*i:])))
	}
	return out[0] == 1, parts, nil
}

// InDoubt implements TwoPC over the stats management op: the in-doubt list
// is part of DaemonStats, so qsctl and the router's resolution driver share
// one code path.
func (c *Client) InDoubt() ([]server.InDoubtTxn, error) {
	ds, err := c.ServerStats()
	return ds.InDoubt, err
}

// Faults arms the named built-in fault plan with the given seed on the
// server (arm=true), or disarms injection (arm=false). It returns the name
// of the armed plan. The server must have been started with fault injection
// enabled (ServeOpts.Faults).
func (c *Client) Faults(arm bool, name string, seed int64) (string, error) {
	payload := make([]byte, 9+len(name))
	if arm {
		payload[0] = 1
	}
	binary.LittleEndian.PutUint64(payload[1:9], uint64(seed))
	copy(payload[9:], name)
	out, err := c.call(frame{op: opFaults, payload: payload})
	return string(out), err
}

// ServerStats fetches the daemon's extended counter snapshot (qsctl stats),
// including archiver progress when the daemon archives its log.
func (c *Client) ServerStats() (DaemonStats, error) {
	var x DaemonStats
	err := c.fetchJSON(frame{op: opStats}, &x)
	return x, err
}

// Backup asks the daemon to take a fuzzy online backup now (qsctl backup).
// The daemon must have been started with archiving enabled.
func (c *Client) Backup() (archive.BackupInfo, error) {
	var info archive.BackupInfo
	err := c.fetchJSON(frame{op: opBackup}, &info)
	return info, err
}

// Scrub asks the daemon to verify (and repair) stored pages now (qsctl
// scrub). limit 0 scans the whole volume; a positive limit scans the next
// batch from the daemon's scrub cursor. An unrepairable page surfaces as an
// error matching disk.ErrCorruptPage.
func (c *Client) Scrub(limit int) (server.ScrubReport, error) {
	var report server.ScrubReport
	err := c.fetchJSON(frame{op: opScrub, payload: binary.LittleEndian.AppendUint32(nil, uint32(limit))}, &report)
	return report, err
}

// ReplFetch pulls one batch of stable WAL records from a primary daemon —
// the wire form of repl.FetchFunc, so a standby daemon can feed
// repl.NewStandby with c.ReplFetch directly.
func (c *Client) ReplFetch(from, applied uint64) (repl.Batch, error) {
	var payload [16]byte
	binary.LittleEndian.PutUint64(payload[0:], from)
	binary.LittleEndian.PutUint64(payload[8:], applied)
	out, err := c.call(frame{op: opReplFetch, payload: payload[:]})
	if err != nil {
		return repl.Batch{}, err
	}
	return repl.DecodeBatch(out)
}

// Promote asks a standby daemon to fail over to primary (qsctl promote).
func (c *Client) Promote() error {
	return c.send(frame{op: opPromote})
}
