package wire

// The server side: one per-frame function, serve, that every carrier ends in
// — a daemon connection (serveConn) and the in-process carrier (NewDirect)
// alike.

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync/atomic"

	"repro/internal/archive"
	"repro/internal/faultinject"
	"repro/internal/lock"
	"repro/internal/logrec"
	"repro/internal/repl"
	"repro/internal/server"
)

// ServeOpts configures optional server-side transport features.
type ServeOpts struct {
	// Faults, when non-nil, lets clients arm and disarm fault plans through
	// the opFaults management op (qsctl faults): a plan's disk half on this
	// store, its message half on every frame the daemon serves.
	Faults *faultinject.Store
	// Archive, when non-nil, serves the opBackup management op (qsctl
	// backup) and adds archiver progress to opStats responses (qsctl stats
	// and archive-status).
	Archive *archive.Archiver
	// Repl, when non-nil, serves opReplFetch (a standby pulling this
	// primary's WAL) and adds shipping progress to opStats responses.
	Repl *repl.Primary
	// Standby, when non-nil, marks this daemon a hot standby: opPromote fails
	// it over to primary, and opStats responses carry apply progress.
	Standby *repl.Standby
}

// DaemonStats is the opStats response: the server's extended counters plus,
// when the daemon archives its log, the archiver's progress snapshot.
type DaemonStats struct {
	server.StatsX
	Archive *archive.Status `json:"archive,omitempty"`
	// Repl is the primary-side shipping snapshot when the daemon ships its
	// WAL to a standby; Standby is the apply snapshot when the daemon is one.
	Repl    *repl.PrimaryStatus `json:"repl,omitempty"`
	Standby *repl.StandbyStatus `json:"standby,omitempty"`
	// Ops counts frames served per wire op since the daemon started.
	Ops map[string]int64 `json:"ops,omitempty"`
	// InDoubt lists prepared-but-unresolved transaction branches on this
	// shard (qsctl 2pc-status and the router's recovery-resolution driver).
	InDoubt []server.InDoubtTxn `json:"in_doubt,omitempty"`
}

// daemon is what the sessions of one server endpoint share: every
// connection of one listener, or one in-process client on its own.
type daemon struct {
	srv  *server.Server
	opts ServeOpts
	ops  opCounts
	// msgs is the armed plan's message schedule; nil when none is armed.
	msgs atomic.Pointer[faultinject.Messages]
}

// session is one client's end of a daemon. It is the carrier every other
// carrier ends in: its roundTrip serves a frame.
type session struct {
	d  *daemon
	sn *server.Session
}

// Serve accepts connections on lis and dispatches requests to srv until the
// listener is closed. Each connection gets its own server session and
// goroutine, so multiple workstations can be served concurrently.
func Serve(lis net.Listener, srv *server.Server) error {
	return ServeWith(lis, srv, ServeOpts{})
}

// ServeWith is Serve with options.
func ServeWith(lis net.Listener, srv *server.Server, opts ServeOpts) error {
	d := &daemon{srv: srv, opts: opts}
	for {
		conn, err := lis.Accept()
		if err != nil {
			return err
		}
		go d.serveConn(conn)
	}
}

func (d *daemon) serveConn(conn net.Conn) {
	defer conn.Close()
	s := &session{d: d, sn: d.srv.NewSession(nil, nil)}
	r := bufio.NewReaderSize(conn, 64<<10)
	w := bufio.NewWriterSize(conn, 64<<10)
	// Transactions begun on this connection; a client crash (connection
	// drop) aborts whatever is still active so its locks release and the
	// server keeps serving other clients — the availability argument for
	// server-side logs in §6 of the paper.
	active := make(map[logrec.TID]bool)
	defer func() {
		// Abort in TID order: each abort appends log records, and the sweep's
		// replay diff depends on the log byte stream being identical run to
		// run — map order would shuffle it.
		tids := make([]logrec.TID, 0, len(active))
		for tid := range active {
			tids = append(tids, tid)
		}
		sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
		for _, tid := range tids {
			// A prepared branch refuses the abort (ErrInDoubt) and survives the
			// disconnect: a yes vote binds the shard until the coordinator's
			// decision arrives, client crash or no client crash.
			s.sn.Abort(tid)
		}
	}()
	for {
		body, err := readBody(r)
		if err != nil {
			return // connection closed
		}
		f, err := parseRequest(body)
		if err != nil {
			return
		}
		var reply []byte
		if msgs := d.msgs.Load(); msgs != nil {
			reply, err = perturb(msgs, s, f)
			if errors.Is(err, faultinject.ErrNotDelivered) || errors.Is(err, faultinject.ErrReplyLost) {
				return // dropped unserved, or served with the reply lost: the connection dies
			}
		} else {
			reply, err = s.roundTrip(f)
		}
		status := byte(stOK)
		if err != nil {
			status, reply = encodeErr(err)
		}
		// A batch is booked as its last member: it is one transaction's.
		last, _ := asOne(f)
		switch status {
		case stOK:
			switch last.op {
			case opBegin:
				if last.tid != 0 {
					// An Adopt's reply echoes the adopted id, as a Begin's names
					// the new one.
					reply = binary.LittleEndian.AppendUint64(nil, uint64(last.tid))
				}
				active[logrec.TID(binary.LittleEndian.Uint64(reply))] = true
			case opCommit, opAbort:
				delete(active, last.tid)
			case opDecide:
				if last.mode != decideForget {
					delete(active, last.tid)
				}
			}
		case stFaultAbort:
			// Graceful degradation: a disk fault failed this request, not the
			// process. Abort the affected transaction so its locks release
			// and every other client keeps running.
			if active[last.tid] {
				s.sn.Abort(last.tid)
				delete(active, last.tid)
			}
		}
		if err := writeFrame(w, []byte{status}, reply); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// roundTrip serves one request frame: the reply payload, or the server's
// error as it is.
func (s *session) roundTrip(f frame) ([]byte, error) { return s.each(f, s.serve) }

// each serves f through one, a batch member by member in order: the first
// error stops the batch and is its reply, and otherwise its last member's
// reply is.
func (s *session) each(f frame, one func(frame) ([]byte, error)) ([]byte, error) {
	if f.op != opBatch {
		return one(f)
	}
	s.d.ops[opBatch].Add(1)
	members, err := subFrames(f)
	if err != nil {
		return nil, err
	}
	var out []byte
	for _, m := range members {
		if out, err = one(m); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// serve serves one frame that is not a batch.
func (s *session) serve(f frame) ([]byte, error) {
	d, sn := s.d, s.sn
	d.ops[f.op].Add(1)
	switch f.op {
	case opBegin:
		// A non-zero tid is an Adopt: the router registering a
		// coordinator-issued transaction id on this shard.
		if f.tid != 0 {
			return nil, sn.Adopt(f.tid)
		}
		return binary.LittleEndian.AppendUint64(nil, uint64(sn.Begin())), nil
	case opLock:
		return nil, sn.Lock(f.tid, f.pid, lock.Mode(f.mode))
	case opAllocPage:
		pid, err := sn.AllocPage(f.tid)
		return binary.LittleEndian.AppendUint32(nil, uint32(pid)), err
	case opReadPage:
		return sn.ReadPage(f.tid, f.pid, lock.Mode(f.mode))
	case opShipLog:
		return nil, sn.ShipLog(f.tid, f.payload)
	case opShipPage:
		return nil, sn.ShipPage(f.tid, f.pid, f.payload)
	case opCommit:
		return nil, sn.Commit(f.tid)
	case opAbort:
		return nil, sn.Abort(f.tid)
	case opPrepare:
		coord, parts, err := logrec.DecodePrepareInfo(f.payload)
		if err != nil {
			return nil, err
		}
		return nil, sn.Prepare(f.tid, coord, parts)
	case opDecide:
		switch f.mode {
		case decideAbort, decideCommit:
			return nil, sn.Decide(f.tid, f.mode == decideCommit)
		case decideForget:
			return nil, sn.Forget(f.tid)
		}
		return nil, fmt.Errorf("wire: unknown decide mode %d", f.mode)
	case opResolveInDoubt:
		// Reply: [u8 commit][u32 n][u32 ×n participant shard ids].
		commit, parts, err := sn.ResolveInDoubt(f.tid)
		out := make([]byte, 5+4*len(parts))
		if commit {
			out[0] = 1
		}
		binary.LittleEndian.PutUint32(out[1:], uint32(len(parts)))
		for i, p := range parts {
			binary.LittleEndian.PutUint32(out[5+4*i:], uint32(p))
		}
		return out, err
	case opFaults:
		return d.faults(f.payload)
	case opStats:
		return d.stats()
	case opBackup:
		if d.opts.Archive == nil {
			return nil, ErrNoArchive
		}
		info, err := d.opts.Archive.Backup()
		if err != nil {
			return nil, err
		}
		return json.Marshal(info)
	case opScrub:
		// Payload: [u32 limit]; limit 0 scans the whole volume, a positive
		// limit scans the next batch from the daemon's scrub cursor.
		limit := 0
		if len(f.payload) >= 4 {
			limit = int(binary.LittleEndian.Uint32(f.payload))
		}
		report, err := sn.Scrub(limit)
		if err != nil {
			return nil, err
		}
		return json.Marshal(report)
	case opReplFetch:
		return d.replFetch(f.payload)
	case opPromote:
		if d.opts.Standby == nil {
			return nil, errors.New("wire: this server is not a standby (start with -replica-of)")
		}
		return nil, d.opts.Standby.Promote()
	}
	return nil, fmt.Errorf("wire: unknown op %d", f.op)
}

// ErrNoArchive: the daemon was started without archiving, so it takes no
// backups and its DaemonStats carry no archiver status.
var ErrNoArchive = errors.New("wire: archiving not enabled on this server (start with -archive-dir)")

// faults serves opFaults. Payload: [u8 arm][i64 seed][plan name]; the reply
// is the name of the plan now armed, or empty when disarmed. Arming installs
// the plan's disk half on the store and its message half on every frame this
// daemon serves.
func (d *daemon) faults(payload []byte) ([]byte, error) {
	fs := d.opts.Faults
	if fs == nil {
		return nil, errors.New("wire: fault injection not enabled on this server")
	}
	if len(payload) < 9 {
		return nil, errors.New("wire: short faults request")
	}
	if payload[0] != 1 {
		d.msgs.Store(nil)
		return nil, fs.Disarm()
	}
	seed := int64(binary.LittleEndian.Uint64(payload[1:9]))
	name := string(payload[9:])
	plan, ok := faultinject.Plans()[name]
	if !ok {
		return nil, fmt.Errorf("wire: unknown fault plan %q (have %v)", name, faultinject.PlanNames())
	}
	plan.Seed = seed
	fs.Arm(plan)
	d.msgs.Store(faultinject.NewMessages(plan))
	return []byte(plan.Name), nil
}

// stats serves opStats: the server's extended counter snapshot,
// JSON-encoded (a management op, so a self-describing format beats another
// hand-rolled binary layout).
func (d *daemon) stats() ([]byte, error) {
	ds := DaemonStats{StatsX: d.srv.ExtendedStats(), Ops: d.ops.snapshot(), InDoubt: d.srv.InDoubt()}
	if d.opts.Archive != nil {
		st := d.opts.Archive.Status()
		ds.Archive = &st
	}
	if d.opts.Repl != nil {
		st := d.opts.Repl.Status()
		ds.Repl = &st
	}
	if d.opts.Standby != nil {
		st := d.opts.Standby.Status()
		ds.Standby = &st
	}
	return json.Marshal(ds)
}

// replFetch serves opReplFetch: one standby pull. Payload: [u64 from][u64
// applied][u32 maxBytes]; the reply is repl.EncodeBatch. A cursor the primary
// has already reclaimed is repl.ErrGap, so the standby re-bootstraps.
func (d *daemon) replFetch(payload []byte) ([]byte, error) {
	if d.opts.Repl == nil {
		return nil, errors.New("wire: replication not enabled on this server (start with -repl)")
	}
	if len(payload) < 20 {
		return nil, errors.New("wire: short repl-fetch request")
	}
	from := binary.LittleEndian.Uint64(payload)
	applied := binary.LittleEndian.Uint64(payload[8:])
	maxBytes := int(binary.LittleEndian.Uint32(payload[16:]))
	b, err := d.opts.Repl.Fetch(from, applied, maxBytes)
	if err != nil {
		return nil, err
	}
	return repl.EncodeBatch(b), nil
}
