package main

import (
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"runtime/debug"
	"sync/atomic"

	"repro/internal/client"
	"repro/internal/disk"
	"repro/internal/faultinject"
	"repro/internal/page"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
)

// logCapacity is quickstored's default -log (256 MB).
const logCapacity = 256 << 20

// stack is one storage server wired as `quickstored -data <file>` wires it by
// default and served on a loopback TCP listener: FileStore under the fault
// injector under the checksum envelope, an in-memory WAL ring, sharp
// checkpoints every 64 commits, group commit with no delay, asynchronous WPL
// installs, no write delay, no Serialize. Flush policy: a log force is the
// in-memory stable-watermark advance the engine implements, data-page writes
// are WriteAt with no fsync, reads come from the OS cache.
type stack struct {
	srv    *server.Server
	store  disk.Store // the checksummed volume, for page dumps
	lis    net.Listener
	served chan error
}

// liveServers counts the open stacks of this process. A daemon is one server
// in a process: its 256 MB log ring is live heap, so the collector lets it
// make about that much garbage between cycles. A workload here holds up to
// six servers in one process, and at the default setting the collector would
// wait for 1.5 GB of garbage, which oo7-update's 15 s never collected twice:
// its resident set was 2.3 GB, most of it memory touched once. The VM this
// runs on backs guest memory lazily — a page the guest has never touched
// costs ten times as much to fault in as a recycled one (230 MB/s against
// 2.3 GB/s measured) — so a run whose footprint reached new guest memory
// took twice as long as the next. The collector therefore keeps one daemon's
// allowance: GOGC is 100 divided by the number of servers.
var liveServers atomic.Int32

func paceCollector(delta int32) {
	if n := liveServers.Add(delta); n > 0 {
		debug.SetGCPercent(100 / int(n))
	}
}

// openStack opens (creating if absent) the volume at path. Like the daemon, a
// non-empty volume is recovered before the listener opens.
func openStack(path string, mode server.Mode, poolPages int) (*stack, error) {
	fs, err := disk.OpenFileStore(path)
	if err != nil {
		return nil, fmt.Errorf("opening volume: %w", err)
	}
	faults := faultinject.NewStore(fs)
	store := disk.NewChecksummed(faults)
	cfg := server.Config{
		Mode:            mode,
		Store:           store,
		PoolPages:       poolPages,
		LogCapacity:     logCapacity,
		Log:             wal.New(logCapacity),
		WPLInstallAsync: true,
	}
	srv := server.New(cfg)
	if fs.Pages() > 0 {
		if err := srv.NewSession(nil, nil).Restart(); err != nil {
			srv.Close()
			store.Close()
			return nil, fmt.Errorf("recovering volume: %w", err)
		}
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		store.Close()
		return nil, err
	}
	paceCollector(1)
	st := &stack{srv: srv, store: store, lis: lis, served: make(chan error, 1)}
	go func() { st.served <- wire.ServeWith(lis, srv, wire.ServeOpts{Faults: faults}) }()
	return st, nil
}

// close shuts the server down the way the daemon's SIGTERM handler does:
// stop accepting, drain the WPL installer, checkpoint, close the volume.
// Client connections must already be closed.
func (st *stack) close() error {
	defer paceCollector(-1)
	st.lis.Close()
	<-st.served
	st.srv.Close()
	err := st.srv.NewSession(nil, nil).Checkpoint()
	if cerr := st.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// digest returns a CRC over every stored page but the superblock, which a
// restart legitimately rewrites (checkpoint pointer and counters).
func (st *stack) digest() (uint32, error) {
	h := crc32.New(crc32.MakeTable(crc32.Castagnoli))
	err := st.store.ForEachPage(func(id page.ID, data []byte) error {
		if id != 0 {
			h.Write(data)
		}
		return nil
	})
	return h.Sum32(), err
}

// benchClient is one closed-loop client: a client.Client over a TCPClient
// over a byte-counting loopback connection, with the span recorder (nil when
// tracing is off) its tracedService writes to.
type benchClient struct {
	*client.Client
	conn *countConn
	tcp  *wire.TCPClient
	rec  *recorder
}

// dial connects a new client to st. rec is nil on untraced runs, and the
// client then talks to the TCPClient with no decorator in between.
func (st *stack) dial(cfg client.Config, rec *recorder) (*benchClient, error) {
	raw, err := net.Dial("tcp", st.lis.Addr().String())
	if err != nil {
		return nil, err
	}
	conn := &countConn{Conn: raw}
	tcp := wire.NewTCPClient(conn)
	var svc wire.Service = tcp
	if rec != nil {
		svc = &tracedService{inner: tcp, rec: rec}
	}
	return &benchClient{Client: client.New(cfg, svc), conn: conn, tcp: tcp, rec: rec}, nil
}

// close closes the connection; a wire.NewDirect client has none.
func (c *benchClient) close() {
	if c.tcp != nil {
		c.tcp.Close()
	}
}

// scheme is one of the paper's five software versions (Table 3).
type scheme struct {
	name string
	cs   client.Scheme
	mode server.Mode
}

var schemes = []scheme{
	{"pd-esm", client.PD, server.ModeESM},
	{"sd-esm", client.SD, server.ModeESM},
	{"sl-esm", client.SL, server.ModeESM},
	{"pd-redo", client.PD, server.ModeREDO},
	{"wpl", client.WPL, server.ModeWPL},
}

// clientConfig returns sc's client configuration with the given memory split.
func (sc scheme) clientConfig(poolPages, recoveryBytes int) client.Config {
	return client.Config{
		Scheme:         sc.cs,
		PoolPages:      poolPages,
		RecoveryBytes:  recoveryBytes,
		ShipDirtyPages: sc.mode != server.ModeREDO,
	}
}

// copyFile copies src to dst.
func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
