package wire

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/lock"
	"repro/internal/logrec"
	"repro/internal/page"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/wal"
)

// crashableListener tracks accepted connections so a test can crash the
// daemon abruptly: stop accepting and reset every live connection at once.
type crashableListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *crashableListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.conns = append(l.conns, conn)
	l.mu.Unlock()
	return conn, nil
}

func (l *crashableListener) crash() {
	l.Listener.Close()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
}

// TestClientFailoverResolvesInDoubtCommit is the end-to-end failover story
// over real sockets: a semi-sync primary/standby pair, a client whose retry
// policy names the standby, a primary crash that leaves one commit in doubt,
// and the resolution protocol — the ambiguous commit surfaces as
// ErrCommitOutcomeUnknown, the client is redirected, a blind re-send of the
// commit draws ErrNoTxn (the transaction is finished one way or the other,
// exactly once), and a re-read against the promoted standby tells which way.
func TestClientFailoverResolvesInDoubtCommit(t *testing.T) {
	// Primary daemon: replication wired, semi-sync acks.
	plog := wal.New(16 << 20)
	p := repl.NewPrimary(plog, repl.PrimaryOptions{Mode: repl.AckSemiSync, AckTimeout: 5 * time.Second})
	pcfg := server.Config{
		Mode:            server.ModeESM,
		Log:             plog,
		PoolPages:       64,
		LockTimeout:     time.Second,
		CheckpointEvery: 1 << 30,
	}
	p.Wire(&pcfg)
	psrv := server.New(pcfg)
	defer psrv.Close()
	rawLis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	plis := &crashableListener{Listener: rawLis}
	go ServeWith(plis, psrv, ServeOpts{Repl: p})

	// Standby daemon: pulls the primary's WAL over the wire (ReplFetch is
	// the FetchFunc), serves its own clients read-only until promoted.
	slog := wal.New(16 << 20)
	ssrv := server.New(server.Config{
		Mode:            server.ModeESM,
		Log:             slog,
		Standby:         true,
		PoolPages:       64,
		LockTimeout:     time.Second,
		CheckpointEvery: 1 << 30,
	})
	defer ssrv.Close()
	feed, err := Dial(plis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer feed.Close()
	sb := repl.NewStandby(slog, ssrv.NewSession(nil, nil), feed.ReplFetch)
	go sb.Run()
	slis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer slis.Close()
	go ServeWith(slis, ssrv, ServeOpts{Standby: sb})
	// Semi-sync acks start with the standby's first fetch; a commit before it
	// proceeds asynchronously by design.
	for deadline := time.Now().Add(5 * time.Second); !p.Status().Connected; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("standby never fetched: %+v", p.Status())
		}
	}

	// The application client: retries with the standby as failover target.
	cli, err := Dial(plis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	svc := WithRetry(cli, RetryPolicy{
		MaxAttempts:  3,
		BaseDelay:    time.Millisecond,
		FailoverAddr: slis.Addr().String(),
	})

	// A semi-sync-acked commit before the crash: must survive failover.
	tid, err := svc.Begin()
	if err != nil {
		t.Fatal(err)
	}
	pid, err := svc.AllocPage(tid)
	if err != nil {
		t.Fatal(err)
	}
	pg := page.New(pid)
	slot, _ := pg.Allocate(8)
	pg.WriteAt(slot, 0, []byte("durable!"))
	img := logrec.NewPageImage(tid, pid, pg.Bytes())
	if err := svc.ShipLog(tid, img.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	if err := svc.ShipPage(tid, pid, pg.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := svc.Commit(tid); err != nil {
		t.Fatal(err)
	}
	if st := p.Status(); st.AckTimeouts != 0 || st.AckedLSN < plog.StableEnd() {
		t.Fatalf("semi-sync commit not replicated before crash: %+v", st)
	}

	// A second transaction updates the page and is about to commit when the
	// primary dies: the in-doubt commit.
	tid2, err := svc.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.ReadPage(tid2, pid, lock.Exclusive); err != nil {
		t.Fatal(err)
	}
	upd := logrec.NewUpdate(tid2, pid, page.HeaderSize, []byte("durable!"), []byte("halfdone"))
	if err := svc.ShipLog(tid2, upd.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	pg.WriteAt(slot, 0, []byte("halfdone"))
	if err := svc.ShipPage(tid2, pid, pg.Bytes()); err != nil {
		t.Fatal(err)
	}

	plis.crash()
	if err := sb.Promote(); err != nil {
		t.Fatal(err)
	}

	// The commit is ambiguous — it may or may not have reached the dead
	// primary — so it must NOT be blindly re-sent anywhere; the client is
	// redirected for the operations that follow.
	if err := svc.Commit(tid2); !errors.Is(err, ErrCommitOutcomeUnknown) {
		t.Fatalf("commit against crashed primary = %v, want ErrCommitOutcomeUnknown", err)
	}

	// Resolution, step 1: re-sending the commit draws ErrNoTxn from the
	// promoted standby — the transaction is finished exactly once (here:
	// rolled back at promotion, like any transaction a crash cuts off).
	if err := svc.Commit(tid2); !errors.Is(err, server.ErrNoTxn) {
		t.Fatalf("commit re-send after failover = %v, want ErrNoTxn", err)
	}

	// Resolution, step 2: re-read. The acked commit's value is there, the
	// in-doubt update is not.
	tid3, err := svc.Begin()
	if err != nil {
		t.Fatal(err)
	}
	data, err := svc.ReadPage(tid3, pid, lock.Shared)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	page.Wrap(data).ReadAt(slot, 0, got)
	if string(got) != "durable!" {
		t.Fatalf("value after failover = %q, want the acked commit", got)
	}
	if err := svc.Commit(tid3); err != nil {
		t.Fatal(err)
	}

	// The promoted standby accepts new writes through the same client.
	tid4, err := svc.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Lock(tid4, pid, lock.Exclusive); err != nil {
		t.Fatal(err)
	}
	upd2 := logrec.NewUpdate(tid4, pid, page.HeaderSize, []byte("durable!"), []byte("restored"))
	if err := svc.ShipLog(tid4, upd2.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	pg.WriteAt(slot, 0, []byte("restored"))
	if err := svc.ShipPage(tid4, pid, pg.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := svc.Commit(tid4); err != nil {
		t.Fatal(err)
	}
}

// TestStandbyRejectsWritesOverWire: before promotion a standby daemon serves
// reads but refuses writes with the typed ErrStandby across the wire, and
// its stats advertise apply progress.
func TestStandbyRejectsWritesOverWire(t *testing.T) {
	plog := wal.New(16 << 20)
	p := repl.NewPrimary(plog, repl.PrimaryOptions{})
	pcfg := server.Config{
		Mode:            server.ModeESM,
		Log:             plog,
		PoolPages:       64,
		LockTimeout:     time.Second,
		CheckpointEvery: 1 << 30,
	}
	p.Wire(&pcfg)
	psrv := server.New(pcfg)
	defer psrv.Close()
	plis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer plis.Close()
	go ServeWith(plis, psrv, ServeOpts{Repl: p})

	// One committed page on the primary.
	psn := psrv.NewSession(nil, nil)
	tid := psn.Begin()
	pid, err := psn.AllocPage(tid)
	if err != nil {
		t.Fatal(err)
	}
	pg := page.New(pid)
	slot, _ := pg.Allocate(8)
	pg.WriteAt(slot, 0, []byte("readme!!"))
	img := logrec.NewPageImage(tid, pid, pg.Bytes())
	if err := psn.ShipLog(tid, img.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	if err := psn.ShipPage(tid, pid, pg.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := psn.Commit(tid); err != nil {
		t.Fatal(err)
	}

	slog := wal.New(16 << 20)
	ssrv := server.New(server.Config{
		Mode:            server.ModeESM,
		Log:             slog,
		Standby:         true,
		PoolPages:       64,
		LockTimeout:     time.Second,
		CheckpointEvery: 1 << 30,
	})
	defer ssrv.Close()
	feed, err := Dial(plis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer feed.Close()
	sb := repl.NewStandby(slog, ssrv.NewSession(nil, nil), feed.ReplFetch)
	go sb.Run()
	defer sb.Stop()
	slis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer slis.Close()
	go ServeWith(slis, ssrv, ServeOpts{Standby: sb})

	deadline := time.Now().Add(5 * time.Second)
	for sb.Status().AppliedLSN < plog.StableEnd() {
		if time.Now().After(deadline) {
			t.Fatalf("standby never caught up: %+v", sb.Status())
		}
		time.Sleep(time.Millisecond)
	}

	cli, err := Dial(slis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	rtid, err := cli.Begin()
	if err != nil {
		t.Fatal(err)
	}
	data, err := cli.ReadPage(rtid, pid, lock.Shared)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	page.Wrap(data).ReadAt(slot, 0, got)
	if string(got) != "readme!!" {
		t.Fatalf("standby read over wire = %q", got)
	}
	if _, err := cli.AllocPage(rtid); !errors.Is(err, server.ErrStandby) {
		t.Fatalf("standby write over wire = %v, want ErrStandby", err)
	}
	if err := cli.Commit(rtid); err != nil {
		t.Fatal(err)
	}

	ds, err := cli.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Standby == nil || ds.Standby.AppliedLSN == 0 {
		t.Fatalf("standby stats missing apply progress: %+v", ds.Standby)
	}
	pcli, err := Dial(plis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer pcli.Close()
	pds, err := pcli.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if pds.Repl == nil || !pds.Repl.Connected {
		t.Fatalf("primary stats missing shipping progress: %+v", pds.Repl)
	}
}

// TestPromotionRetiresAStandbysBlock: the ids a connection reserved on a
// standby come from its read-only range, and none opens once the standby is
// promoted under the connection. The open that draws ErrNoTxn retires the
// client's block, so its next Begin reserves from the promoted server.
func TestPromotionRetiresAStandbysBlock(t *testing.T) {
	srv := server.New(server.Config{Mode: server.ModeESM, Standby: true, PoolPages: 64,
		LogCapacity: 16 << 20, LockTimeout: time.Second, CheckpointEvery: 1 << 30})
	defer srv.Close()
	cli := dialTest(t, serveTCP(t, srv, ServeOpts{}))
	tid, err := cli.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Lock(tid, 1, lock.Shared); err != nil {
		t.Fatal(err)
	}
	if err := cli.Commit(tid); err != nil {
		t.Fatal(err)
	}
	if err := srv.NewSession(nil, nil).Promote(); err != nil {
		t.Fatal(err)
	}
	if tid, err = cli.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := cli.Lock(tid, 1, lock.Shared); !errors.Is(err, server.ErrNoTxn) {
		t.Fatalf("a read-only id opened after promotion: %v, want ErrNoTxn", err)
	}
	if tid, err = cli.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.AllocPage(tid); err != nil {
		t.Fatalf("the first transaction after the refused open, %v: %v", tid, err)
	}
	if err := cli.Commit(tid); err != nil {
		t.Fatal(err)
	}
}

// TestReplFetchRefusesOldPayload: a repl-fetch request is [u64 from][u64
// applied], 16 bytes. The 20-byte form that carried a size cap draws an error
// reply, and the connection goes on serving.
func TestReplFetchRefusesOldPayload(t *testing.T) {
	plog := wal.New(16 << 20)
	p := repl.NewPrimary(plog, repl.PrimaryOptions{})
	cfg := server.Config{Mode: server.ModeESM, Log: plog, PoolPages: 64,
		LockTimeout: time.Second, CheckpointEvery: 1 << 30}
	p.Wire(&cfg)
	srv := server.New(cfg)
	defer srv.Close()
	if err := srv.NewSession(nil, nil).Checkpoint(); err != nil {
		t.Fatal(err)
	}
	cli := dialTest(t, serveTCP(t, srv, ServeOpts{Repl: p}))

	var old [20]byte
	binary.LittleEndian.PutUint64(old[0:], plog.Head())
	binary.LittleEndian.PutUint32(old[16:], 1<<20)
	if _, err := cli.call(frame{op: opReplFetch, payload: old[:]}); err == nil {
		t.Fatal("a 20-byte repl-fetch request was served")
	}
	b, err := cli.ReplFetch(plog.Head(), 0)
	if err != nil {
		t.Fatalf("repl-fetch after the refused request: %v", err)
	}
	if len(b.Records) == 0 || b.Next != plog.StableEnd() {
		t.Fatalf("fetch after the refusal = %d bytes to %d, want the log up to %d", len(b.Records), b.Next, plog.StableEnd())
	}
}
