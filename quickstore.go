// Package quickstore is a client-server persistent object store for Go,
// reproducing QuickStore [White94] and the crash-recovery study of White &
// DeWitt (SIGMOD 1995, "Implementing Crash Recovery in QuickStore: A
// Performance Study").
//
// Objects are untyped byte records up to ~8 KB, addressed by stable OIDs and
// clustered onto 8 KB pages. Transactions give full ACID semantics: updates
// are isolated by page locks, batched into recovery log records at commit
// time by one of four selectable recovery schemes, and survive server
// crashes via write-ahead logging (or whole-page logging) and restart
// recovery.
//
// # Quick start
//
//	store, _ := quickstore.Open(quickstore.Options{})   // embedded, in-memory
//	defer store.Close()
//
//	var oid quickstore.OID
//	_ = store.Update(func(tx *quickstore.Tx) error {
//		oid, _ = tx.Allocate(64)
//		return tx.Write(oid, 0, []byte("hello, crash recovery"))
//	})
//
//	_ = store.View(func(tx *quickstore.Tx) error {
//		data, _ := tx.ReadObject(oid)
//		fmt.Printf("%s\n", data)
//		return nil
//	})
//
// A store can be embedded (Open, one process) or remote (Dial, speaking to a
// quickstored server over TCP). The recovery scheme is chosen at open time;
// see Scheme. The paper's performance study of these schemes is reproduced
// by cmd/oo7bench.
package quickstore

import (
	"errors"
	"fmt"

	"repro/internal/client"
	"repro/internal/disk"
	"repro/internal/page"
	"repro/internal/server"
	"repro/internal/wire"
)

// OID identifies a persistent object.
type OID = page.OID

// NilOID is the null object reference.
var NilOID = page.NilOID

// PageSize is the store's page size; objects cannot exceed
// PageSize minus a small header (MaxObjectSize).
const PageSize = page.Size

// MaxObjectSize is the largest allocatable object.
const MaxObjectSize = page.MaxObjectSize

// OIDSize is the encoded size of an OID, for storing persistent references
// inside objects.
const OIDSize = page.OIDSize

// EncodeOID writes oid into dst (at least OIDSize bytes), for embedding
// persistent references in object data.
func EncodeOID(dst []byte, oid OID) { page.EncodeOID(dst, oid) }

// DecodeOID reads a reference written by EncodeOID.
func DecodeOID(src []byte) OID { return page.DecodeOID(src) }

// Scheme selects how updates are captured for crash recovery (Table 3 of
// the paper).
type Scheme int

// Recovery schemes.
const (
	// PDESM is page differencing over ARIES-style logging: the best
	// all-rounder in the paper when client memory is plentiful.
	PDESM Scheme = iota
	// SDESM is sub-page (64-byte block) differencing: wins when the memory
	// available for recovery copies is very tight.
	SDESM
	// SLESM is sub-page logging without diffing (for comparison; strictly
	// more log traffic than SDESM).
	SLESM
	// PDREDO is page differencing with redo-at-server: clients never ship
	// dirty pages. Simple and fast until the server becomes the bottleneck.
	PDREDO
	// WPL is whole-page logging, the ObjectStore approach: no client-side
	// recovery work at all, entire dirty pages logged at the server.
	WPL
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case PDESM:
		return "PD-ESM"
	case SDESM:
		return "SD-ESM"
	case SLESM:
		return "SL-ESM"
	case PDREDO:
		return "PD-REDO"
	case WPL:
		return "WPL"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

func (s Scheme) split() (client.Scheme, server.Mode, error) {
	switch s {
	case PDESM:
		return client.PD, server.ModeESM, nil
	case SDESM:
		return client.SD, server.ModeESM, nil
	case SLESM:
		return client.SL, server.ModeESM, nil
	case PDREDO:
		return client.PD, server.ModeREDO, nil
	case WPL:
		return client.WPL, server.ModeWPL, nil
	default:
		return 0, 0, fmt.Errorf("quickstore: unknown scheme %v", s)
	}
}

// Options configures Open.
type Options struct {
	// Scheme is the recovery scheme (default PDESM).
	Scheme Scheme
	// Path, when set, backs the data volume with a file that survives
	// process restarts; empty means in-memory.
	Path string
	// ClientCacheMB is the client buffer pool size (default 8).
	ClientCacheMB int
	// RecoveryBufferMB is the recovery buffer for the diffing schemes
	// (default 4; ignored for WPL).
	RecoveryBufferMB int
	// ServerCacheMB is the embedded server's buffer pool (default 36).
	ServerCacheMB int
	// LogMB is the transaction log capacity (default 256).
	LogMB int
}

// Store is an open QuickStore: either an embedded server plus client, or a
// client connected to a remote server.
type Store struct {
	cli    *client.Client
	srv    *server.Server // nil for remote stores
	store  disk.Store     // nil for remote stores
	tcp    *wire.TCPClient
	scheme Scheme
	opts   Options // defaulted options, for rebuilding the client after Crash
}

// ErrTxDone is returned when a transaction is used after Commit or Abort.
var ErrTxDone = client.ErrNoTxn

// Open creates or opens an embedded store. With Options.Path set, an
// existing volume is recovered (restart recovery runs if the previous
// process crashed).
func Open(o Options) (*Store, error) {
	cs, mode, err := o.Scheme.split()
	if err != nil {
		return nil, err
	}
	if o.ClientCacheMB == 0 {
		o.ClientCacheMB = 8
	}
	if o.RecoveryBufferMB == 0 {
		o.RecoveryBufferMB = 4
	}
	if o.ServerCacheMB == 0 {
		o.ServerCacheMB = 36
	}
	if o.LogMB == 0 {
		o.LogMB = 256
	}
	var vol disk.Store
	existing := false
	if o.Path != "" {
		fs, err := disk.OpenFileStore(o.Path)
		if err != nil {
			return nil, err
		}
		existing = fs.Pages() > 0
		vol = fs
	} else {
		vol = disk.NewMemStore()
	}
	srv := server.New(server.Config{
		Mode:        mode,
		Store:       vol,
		PoolPages:   o.ServerCacheMB << 20 / PageSize,
		LogCapacity: o.LogMB << 20,
	})
	if existing {
		// The volume may hold state from a crashed process; note that the
		// in-memory log does not survive process exit, so recovery here
		// replays only what the superblock's checkpoint reached. See
		// DESIGN.md on durability scope.
		if err := srv.NewSession(nil, nil).Restart(); err != nil {
			return nil, fmt.Errorf("quickstore: recovering %s: %w", o.Path, err)
		}
	}
	cli := client.New(client.Config{
		Scheme:         cs,
		PoolPages:      o.ClientCacheMB << 20 / PageSize,
		RecoveryBytes:  o.RecoveryBufferMB << 20,
		ShipDirtyPages: mode != server.ModeREDO,
	}, wire.NewDirect(srv, nil, nil))
	return &Store{cli: cli, srv: srv, store: vol, scheme: o.Scheme, opts: o}, nil
}

// Dial connects to a quickstored server. The scheme must match the server's
// recovery mode (PDESM/SDESM/SLESM against an ESM server, PDREDO against a
// REDO server, WPL against a WPL server).
func Dial(addr string, o Options) (*Store, error) {
	cs, mode, err := o.Scheme.split()
	if err != nil {
		return nil, err
	}
	if o.ClientCacheMB == 0 {
		o.ClientCacheMB = 8
	}
	if o.RecoveryBufferMB == 0 {
		o.RecoveryBufferMB = 4
	}
	tcp, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	cli := client.New(client.Config{
		Scheme:         cs,
		PoolPages:      o.ClientCacheMB << 20 / PageSize,
		RecoveryBytes:  o.RecoveryBufferMB << 20,
		ShipDirtyPages: mode != server.ModeREDO,
	}, tcp)
	return &Store{cli: cli, tcp: tcp, scheme: o.Scheme, opts: o}, nil
}

// Scheme returns the store's recovery scheme.
func (s *Store) Scheme() Scheme { return s.scheme }

// Close releases resources. Embedded stores flush buffered pages to the
// volume first so a file-backed store reopens without recovery work.
func (s *Store) Close() error {
	if s.tcp != nil {
		return s.tcp.Close()
	}
	sn := s.srv.NewSession(nil, nil)
	if err := sn.Checkpoint(); err != nil {
		return err
	}
	if s.store != nil {
		return s.store.Close()
	}
	return nil
}

// Tx is an open transaction.
type Tx struct {
	inner *client.Tx
}

// Begin starts a transaction. At most one transaction may be open per Store.
func (s *Store) Begin() (*Tx, error) {
	inner, err := s.cli.Begin()
	if err != nil {
		return nil, err
	}
	return &Tx{inner: inner}, nil
}

// Update runs fn in a transaction, committing on nil and rolling back on
// error or panic.
func (s *Store) Update(fn func(*Tx) error) error {
	tx, err := s.Begin()
	if err != nil {
		return err
	}
	done := false
	defer func() {
		if !done {
			tx.Abort()
		}
	}()
	if err := fn(tx); err != nil {
		done = true
		if aerr := tx.Abort(); aerr != nil {
			return errors.Join(err, aerr)
		}
		return err
	}
	done = true
	return tx.Commit()
}

// View runs fn in a transaction that is rolled back afterwards; use it for
// read-only work (QuickStore has no read-only optimization beyond not
// logging, so View is Update that never commits).
func (s *Store) View(fn func(*Tx) error) error {
	tx, err := s.Begin()
	if err != nil {
		return err
	}
	defer tx.Abort()
	return fn(tx)
}

// Crash simulates a server crash on an embedded store: all volatile server
// state is lost and restart recovery runs. Committed transactions survive;
// anything uncommitted is rolled back. The client's cache is discarded.
// Remote stores return an error (crash the server process instead).
func (s *Store) Crash() error {
	if s.srv == nil {
		return errors.New("quickstore: Crash on a remote store")
	}
	s.srv.Crash()
	if err := s.srv.NewSession(nil, nil).Restart(); err != nil {
		return err
	}
	// The client's cached pages and any open transaction are gone.
	cs, mode, _ := s.scheme.split()
	s.cli = client.New(client.Config{
		Scheme:         cs,
		PoolPages:      s.opts.ClientCacheMB << 20 / PageSize,
		RecoveryBytes:  s.opts.RecoveryBufferMB << 20,
		ShipDirtyPages: mode != server.ModeREDO,
	}, wire.NewDirect(s.srv, nil, nil))
	return nil
}

// Stats reports operation counts since the store was opened.
type Stats struct {
	Commits           int64
	Aborts            int64
	Faults            int64 // write-protection faults handled
	Updates           int64
	LogRecords        int64
	LogBytesShipped   int64
	DirtyPagesShipped int64
	PagesFetched      int64
}

// Stats returns a snapshot of client-side counters.
func (s *Store) Stats() Stats {
	c := s.cli.Stats()
	return Stats{
		Commits:           c.Commits,
		Aborts:            c.Aborts,
		Faults:            c.Faults,
		Updates:           c.Updates,
		LogRecords:        c.LogRecords,
		LogBytesShipped:   c.LogBytesShipped,
		DirtyPagesShipped: c.DirtyPagesShipped,
		PagesFetched:      c.PagesFetched,
	}
}

// --- transaction operations -------------------------------------------------

// Allocate creates a zero-filled object of the given size and returns its OID.
func (t *Tx) Allocate(size int) (OID, error) { return t.inner.Allocate(size) }

// AllocateOnFreshPage starts a new page and allocates on it, giving the
// caller clustering control (objects allocated afterwards share the page
// until it fills).
func (t *Tx) AllocateOnFreshPage(size int) (OID, error) {
	if _, err := t.inner.NewPage(); err != nil {
		return NilOID, err
	}
	return t.inner.Allocate(size)
}

// Free releases an object. Its OID may be reused by later allocations.
func (t *Tx) Free(oid OID) error { return t.inner.Free(oid) }

// Size returns an object's size.
func (t *Tx) Size(oid OID) (int, error) { return t.inner.Size(oid) }

// Read copies len(dst) bytes from the object at offset off.
func (t *Tx) Read(oid OID, off int, dst []byte) error { return t.inner.Read(oid, off, dst) }

// ReadObject returns a copy of the object's contents.
func (t *Tx) ReadObject(oid OID) ([]byte, error) { return t.inner.ReadObject(oid) }

// Write stores data into the object at offset off, routed through the
// store's recovery scheme.
func (t *Tx) Write(oid OID, off int, data []byte) error { return t.inner.Write(oid, off, data) }

// Commit makes the transaction durable.
func (t *Tx) Commit() error { return t.inner.Commit() }

// Abort rolls the transaction back.
func (t *Tx) Abort() error { return t.inner.Abort() }
