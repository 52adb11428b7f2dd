package wire

// The TCP carrier: frames over a stream connection to a standalone daemon
// (cmd/quickstored), whose end is serveConn.

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/internal/page"
)

// TCPClient is the Client Dial and NewTCPClient return: the one client codec
// over the TCP carrier.
type TCPClient = Client

// tcpConn carries frames over a TCP (or any stream) connection. Calls are
// serialized; one client workstation issues one request at a time, as in the
// paper's page-server protocol. A carrier created by Dial remembers its
// address and transparently reconnects on the next call after a broken
// connection, so a retry carrier above it gets a fresh socket per attempt;
// one wrapped around a raw connection cannot redial.
type tcpConn struct {
	mu    sync.Mutex
	addr  string // non-empty when created by Dial: enables redial
	conn  net.Conn
	drops uint64 // connections dropped or closed so far: the epoch
	r     *bufio.Reader
	w     *bufio.Writer
	// page is where a ReadPage reply lands, status byte first: the page a
	// ReadPage returns is this buffer's tail until the next ReadPage.
	page []byte
}

// Dial connects to a quickstored server.
func Dial(addr string) (*TCPClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	t := newTCPConn(conn)
	t.addr = addr
	return newClient(t), nil
}

// NewTCPClient wraps an established connection.
func NewTCPClient(conn net.Conn) *TCPClient {
	return newClient(newTCPConn(conn))
}

func newTCPConn(conn net.Conn) *tcpConn {
	return &tcpConn{
		conn: conn,
		r:    bufio.NewReaderSize(conn, 64<<10),
		w:    bufio.NewWriterSize(conn, 64<<10),
		page: make([]byte, 1+page.Size),
	}
}

// Close tears down the connection.
func (t *tcpConn) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.conn == nil {
		return nil
	}
	err := t.conn.Close()
	t.conn = nil
	t.drops++
	return err
}

// dropConnLocked discards a connection after a transport error so the next
// call redials instead of reusing a stream with unknown framing state.
func (t *tcpConn) dropConnLocked() {
	if t.conn != nil {
		t.conn.Close()
		t.conn = nil
		t.drops++
	}
}

func (t *tcpConn) epoch() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.drops
}

// redirect points the carrier at a different server address — the failover
// hook (RetryPolicy.FailoverAddr): the broken connection is dropped and the
// next call dials addr instead.
func (t *tcpConn) redirect(addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dropConnLocked()
	t.addr = addr
}

func (t *tcpConn) roundTrip(f frame) ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.conn == nil {
		if t.addr == "" {
			return nil, fmt.Errorf("%w: connection closed", net.ErrClosed)
		}
		conn, err := net.Dial("tcp", t.addr)
		if err != nil {
			return nil, err
		}
		t.conn = conn
		t.r = bufio.NewReaderSize(conn, 64<<10)
		t.w = bufio.NewWriterSize(conn, 64<<10)
	}
	if err := writeRequest(t.w, f); err != nil {
		t.dropConnLocked()
		return nil, err
	}
	if err := t.w.Flush(); err != nil {
		t.dropConnLocked()
		return nil, err
	}
	var into []byte
	if carried(f) == opReadPage {
		into = t.page
	}
	body, err := readBody(t.r, into)
	if err != nil {
		t.dropConnLocked()
		return nil, err
	}
	if len(body) < 1 {
		return nil, errors.New("wire: empty response")
	}
	if body[0] != stOK {
		return nil, decodeErr(body[0], body[1:])
	}
	return body[1:], nil
}
