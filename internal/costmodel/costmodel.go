// Package costmodel captures the performance characteristics of the paper's
// testbed (§4.4): a Sun IPX server with separate raw data (Sun1.3G) and log
// (Sun0424) disks, five 20 MIPS SPARC ELC client workstations with 24 MB of
// memory, and an isolated 10 Mbit Ethernet.
//
// The engine reports its work to a Meter as events, each with a count — a
// page diffed, a message of n bytes, n log pages forced — and never prices
// it. In real executions the meter is a no-op; in simulated performance runs
// (internal/harness) a SimMeter charges each event's service time from
// Params to its queueing resource in a discrete-event simulation. Absolute
// values are calibrated so that single-client OO7 response times land in the
// paper's range; the shapes of the multi-client results come from the
// resource ratios, not the absolute numbers. EXPERIMENTS.md records the
// calibration.
package costmodel

import (
	"time"

	"repro/internal/sim"
)

// Params holds every service-time constant used by the simulation.
type Params struct {
	// Network: one message costs Fixed + PerByte*len on the shared Ethernet
	// segment, plus per-message protocol CPU at the sender and receiver.
	NetFixed    time.Duration // media access + latency per message
	NetPerByte  time.Duration // wire time per byte (10 Mbit/s effective)
	NetCPUSend  time.Duration // protocol stack cost at the sending CPU
	NetCPURecv  time.Duration // protocol stack cost at the receiving CPU
	NetCPUPerKB time.Duration // copy cost per KB at each end

	// Disks. The data disk sees random page reads and background installs;
	// the log disk sees sequential page writes (and reads during WPL
	// reclaim/restart).
	DataDiskRead  time.Duration // random 8 KB page read
	DataDiskWrite time.Duration // 8 KB page write (install, lazy flush)
	LogDiskWrite  time.Duration // sequential 8 KB log page write
	LogDiskRead   time.Duration // 8 KB log page read (WPL reclaim)

	// Client CPU costs for the recovery machinery (§3).
	Fault       time.Duration // protection fault + the paper's descriptor-tree search (simulated: vmem keeps a map) + mprotect
	CopyPage    time.Duration // copy 8 KB into the recovery buffer
	DiffPage    time.Duration // diff 8 KB before/after images
	CopyBlock   time.Duration // copy one sub-page block (SD/SL)
	DiffBlock   time.Duration // diff one sub-page block
	UpdateCall  time.Duration // software update-function overhead per update (SD/SL)
	LogRecCPU   time.Duration // build + marshal one log record
	Deref       time.Duration // object dereference (descriptor check) on a cached page
	VisitCPU    time.Duration // application CPU per object visit in a traversal
	ServerPage  time.Duration // server CPU to process one shipped/served page
	ServerApply time.Duration // server CPU to apply one log record (REDO)
	LockReqCPU  time.Duration // server CPU per lock/unlock request
}

// Default1995 returns parameters calibrated to the paper's testbed.
func Default1995() *Params {
	return &Params{
		NetFixed:    500 * time.Microsecond,
		NetPerByte:  650 * time.Nanosecond, // ~1.25 MB/s effective on 10 Mbit Ethernet
		NetCPUSend:  300 * time.Microsecond,
		NetCPURecv:  300 * time.Microsecond,
		NetCPUPerKB: 60 * time.Microsecond,

		DataDiskRead:  20 * time.Millisecond,
		DataDiskWrite: 8 * time.Millisecond,  // write-behind, head-scheduled
		LogDiskWrite:  18 * time.Millisecond, // 3600 rpm Sun0424, forced sequential
		LogDiskRead:   16 * time.Millisecond,

		Fault:       500 * time.Microsecond,
		CopyPage:    700 * time.Microsecond,
		DiffPage:    1800 * time.Microsecond,
		CopyBlock:   6 * time.Microsecond,
		DiffBlock:   5 * time.Microsecond,
		UpdateCall:  25 * time.Microsecond,
		LogRecCPU:   30 * time.Microsecond,
		Deref:       0,
		VisitCPU:    25 * time.Microsecond,
		ServerPage:  700 * time.Microsecond,
		ServerApply: 300 * time.Microsecond,
		LockReqCPU:  1200 * time.Microsecond,
	}
}

// NetMsgTime returns the wire occupancy of one message of n bytes.
func (p *Params) NetMsgTime(n int) time.Duration {
	return p.NetFixed + time.Duration(n)*p.NetPerByte
}

// NetCPUTime returns the per-end protocol CPU cost of a message of n bytes.
func (p *Params) netCPUTime(base time.Duration, n int) time.Duration {
	return base + time.Duration(n/1024)*p.NetCPUPerKB
}

// Event names one kind of work the engine does. The first twelve are CPU
// work, each priced by its Params field (LogRec by LogRecCPU, Visit by
// VisitCPU, LockReq by LockReqCPU); the rest are messages and disk I/O.
type Event uint8

// The events. A CPU event's count is how many times the work was done; a
// message event's is its size in bytes; a disk event's is a page count.
const (
	Fault       Event = iota // client: protection fault handled
	CopyPage                 // client: page copied into the recovery buffer
	DiffPage                 // client: page diffed
	CopyBlock                // client: block copied into the recovery buffer
	DiffBlock                // client: block diffed
	UpdateCall               // client: software update call (SD/SL)
	LogRec                   // client: log record built
	Deref                    // client: object dereferenced on a cached page
	Visit                    // client: application object visit
	ServerPage               // server: page shipped or served
	ServerApply              // server: log record applied to a page
	LockReq                  // server: lock request

	MsgToServer    // one client→server message of n bytes
	MsgToClient    // one server→client message of n bytes
	DataRead       // n random data-disk page reads, waited for
	DataWriteAsync // n background data-disk page writes
	// LogForce forces the log: n sequential log-disk page writes, then a
	// wait for every asynchronous log write issued earlier (the write-ahead
	// durability barrier). n may be zero; the barrier still applies.
	LogForce
	LogWriteAsync // n log-disk page writes; a later LogForce queues behind them
	LogRead       // n log-disk page reads, waited for
	LogReadAsync  // n background log-disk page reads (WPL reclaim)

	NumEvents
)

// cpuTime returns the service time of one CPU event: an event before
// MsgToServer, on the server from ServerPage on.
func (p *Params) cpuTime(e Event) time.Duration {
	return [MsgToServer]time.Duration{
		Fault: p.Fault, CopyPage: p.CopyPage, DiffPage: p.DiffPage,
		CopyBlock: p.CopyBlock, DiffBlock: p.DiffBlock, UpdateCall: p.UpdateCall,
		LogRec: p.LogRecCPU, Deref: p.Deref, Visit: p.VisitCPU,
		ServerPage: p.ServerPage, ServerApply: p.ServerApply, LockReq: p.LockReqCPU,
	}[e]
}

// Meter is the sink for the engine's work. Engine code reports what it did,
// as an event and a count; the meter decides what that costs.
type Meter interface {
	Add(e Event, n int)
}

// NopMeter is the Meter used by real (non-simulated) executions.
type NopMeter struct{}

// Add implements Meter.
func (NopMeter) Add(Event, int) {}

// Testbed is the simulated hardware: the shared resources plus one CPU per
// client workstation.
type Testbed struct {
	K         *sim.Kernel
	P         *Params
	Net       *sim.Resource
	ServerCPU *sim.Resource
	DataDisk  *sim.Resource
	LogDisk   *sim.Resource
}

// NewTestbed builds the simulated hardware on k.
func NewTestbed(k *sim.Kernel, p *Params) *Testbed {
	return &Testbed{
		K:         k,
		P:         p,
		Net:       k.NewResource("ethernet"),
		ServerCPU: k.NewResource("server-cpu"),
		DataDisk:  k.NewResource("data-disk"),
		LogDisk:   k.NewResource("log-disk"),
	}
}

// SimMeter charges a specific client process; create one per client with
// Testbed.Meter.
//
// Two forms of laziness keep the simulation both fast and deadlock-free:
//
//   - Client CPU time is accumulated and charged in one block at the next
//     synchronization point. The client CPU is private, so coalescing is
//     exact and avoids a kernel round-trip per charge (a traversal reports
//     hundreds of thousands of object visits).
//   - Blocking charges against shared resources (server CPU, disks) are
//     queued and drained at the next message boundary or Flush. The server
//     issues these while holding its real mutex; parking the goroutine in
//     the simulation kernel at that point would block every other simulated
//     client on the mutex. Draining at the message boundary applies the same
//     total service demand at the same process time, outside the critical
//     section.
//
// Asynchronous reservations (background installs, lazy flushes) never park
// the goroutine, so they are applied immediately.
type SimMeter struct {
	tb      *Testbed
	proc    *sim.Proc
	cpu     *sim.Resource // this client's CPU
	pending time.Duration
	queue   []deferredOp
}

type deferredKind uint8

const (
	opServerCPU deferredKind = iota
	opDataRead
	opLogForce
	opLogRead
)

// opLogForce entries always end with a barrier: the force returns only when
// the log disk has completed everything issued so far.

type deferredOp struct {
	kind  deferredKind
	pages int
	d     time.Duration
}

// Meter returns a Meter that charges work performed by proc, whose
// workstation CPU is cpu.
func (tb *Testbed) Meter(proc *sim.Proc, cpu *sim.Resource) *SimMeter {
	return &SimMeter{tb: tb, proc: proc, cpu: cpu}
}

// Flush applies all accumulated charges: private CPU first, then the queued
// shared-resource operations in order. Call before reading the simulation
// clock as a response-time stamp.
func (m *SimMeter) Flush() {
	if m.pending > 0 {
		m.cpu.Use(m.proc, m.pending)
		m.pending = 0
	}
	for _, op := range m.queue {
		switch op.kind {
		case opServerCPU:
			m.tb.ServerCPU.Use(m.proc, op.d)
		case opDataRead:
			for i := 0; i < op.pages; i++ {
				m.tb.DataDisk.Use(m.proc, m.tb.P.DataDiskRead)
			}
		case opLogForce:
			for i := 0; i < op.pages; i++ {
				m.tb.LogDisk.Use(m.proc, m.tb.P.LogDiskWrite)
			}
			m.tb.LogDisk.Sync(m.proc)
		case opLogRead:
			for i := 0; i < op.pages; i++ {
				m.tb.LogDisk.Use(m.proc, m.tb.P.LogDiskRead)
			}
		}
	}
	m.queue = m.queue[:0]
}

// Add implements Meter: each event is charged to its resource with its
// service time from the testbed's Params.
func (m *SimMeter) Add(e Event, n int) {
	p := m.tb.P
	switch {
	case e < ServerPage:
		m.pending += time.Duration(n) * p.cpuTime(e)
		return
	case e < MsgToServer:
		m.queue = append(m.queue, deferredOp{kind: opServerCPU, d: time.Duration(n) * p.cpuTime(e)})
		return
	}
	switch e {
	case MsgToServer:
		m.pending += p.netCPUTime(p.NetCPUSend, n)
		m.Flush()
		m.tb.Net.Use(m.proc, p.NetMsgTime(n))
		m.tb.ServerCPU.Use(m.proc, p.netCPUTime(p.NetCPURecv, n))
	case MsgToClient:
		m.Flush()
		m.tb.ServerCPU.Use(m.proc, p.netCPUTime(p.NetCPUSend, n))
		m.tb.Net.Use(m.proc, p.NetMsgTime(n))
		m.cpu.Use(m.proc, p.netCPUTime(p.NetCPURecv, n))
	case DataRead:
		if n > 0 {
			m.queue = append(m.queue, deferredOp{kind: opDataRead, pages: n})
		}
	case DataWriteAsync:
		for i := 0; i < n; i++ {
			m.tb.DataDisk.Reserve(m.proc, p.DataDiskWrite)
		}
	case LogForce:
		m.queue = append(m.queue, deferredOp{kind: opLogForce, pages: n})
	case LogWriteAsync:
		for i := 0; i < n; i++ {
			m.tb.LogDisk.Reserve(m.proc, p.LogDiskWrite)
		}
	case LogRead:
		if n > 0 {
			m.queue = append(m.queue, deferredOp{kind: opLogRead, pages: n})
		}
	case LogReadAsync:
		for i := 0; i < n; i++ {
			m.tb.LogDisk.Reserve(m.proc, p.LogDiskRead)
		}
	}
}

var (
	_ Meter = NopMeter{}
	_ Meter = (*SimMeter)(nil)
)
