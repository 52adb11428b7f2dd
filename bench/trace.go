package main

import (
	"bufio"
	"net"
	"os"
	"sort"
	"strconv"
	"time"

	"repro/internal/lock"
	"repro/internal/logrec"
	"repro/internal/page"
	"repro/internal/wire"
)

// Tracing records spans from the benchmark's own files only, at two
// boundaries: around each client API call the harness makes (the op itself,
// Begin, Write, Commit, a traversal) and, beneath those, around each
// wire.Service call the client issues, through tracedService. Nothing inside
// the engine is instrumented. One recorder belongs to one client goroutine, so
// recording takes no lock; recorders are merged when the run ends.

// span is one timed interval. Parent is the index of the enclosing span in the
// same recorder, or -1 for an op's root span. All spans of one op share Op.
type span struct {
	Op     int64
	Parent int32
	Name   string
	Start  int64 // ns since the recorder's epoch
	End    int64
}

// recorder keeps one client's spans in memory.
type recorder struct {
	epoch  time.Time
	spans  []span
	stack  []int32 // open spans, innermost last
	op     int64   // id stamped on new spans
	paused bool    // set around untimed work (warm-up, checks) on a traced client
}

func newRecorder(epoch time.Time) *recorder {
	return &recorder{epoch: epoch, spans: make([]span, 0, 1<<16)}
}

// begin opens a span under the innermost open span and returns its index.
// A nil or paused recorder records nothing and returns -1, so call sites need
// no tracing-off branch.
func (r *recorder) begin(name string) int32 {
	if r == nil || r.paused {
		return -1
	}
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{Op: r.op, Parent: parent, Name: name, Start: int64(time.Since(r.epoch))})
	r.stack = append(r.stack, id)
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int32) {
	if id < 0 {
		return
	}
	r.spans[id].End = int64(time.Since(r.epoch))
	r.stack = r.stack[:len(r.stack)-1]
}

// pause stops recording until the returned function is called.
func (r *recorder) pause() (resume func()) {
	if r == nil {
		return func() {}
	}
	r.paused = true
	return func() { r.paused = false }
}

// selfTimes returns, for every span, its duration minus the part of that
// interval its direct children cover (choosing-metrics §4). Children of one
// client never overlap: the client is single-threaded and calls are nested.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// selfByName groups self times by span name.
func selfByName(spans []span) map[string][]int64 {
	out := make(map[string][]int64)
	for i, v := range selfTimes(spans) {
		out[spans[i].Name] = append(out[spans[i].Name], v)
	}
	return out
}

// writeTrace writes every recorder's spans to path as one JSON document:
// {"names":[...],"spans":[[client,op,id,parent,name,start_ns,end_ns],...]}.
// Spans are rows, not objects, because a small-commit slice holds several
// hundred thousand of them.
func writeTrace(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	nameIdx := make(map[string]int)
	var names []string
	for _, r := range recs {
		for _, s := range r.spans {
			if _, ok := nameIdx[s.Name]; !ok {
				nameIdx[s.Name] = 0
				names = append(names, s.Name)
			}
		}
	}
	sort.Strings(names)
	for i, n := range names {
		nameIdx[n] = i
	}
	w.WriteString(`{"names":[`)
	for i, n := range names {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString(strconv.Quote(n))
	}
	w.WriteString(`],"spans":[`)
	var buf []byte
	first := true
	for c, r := range recs {
		for id, s := range r.spans {
			buf = buf[:0]
			if !first {
				buf = append(buf, ',')
			}
			first = false
			buf = append(buf, '\n', '[')
			for i, v := range [...]int64{int64(c), s.Op, int64(id), int64(s.Parent), int64(nameIdx[s.Name]), s.Start, s.End} {
				if i > 0 {
					buf = append(buf, ',')
				}
				buf = strconv.AppendInt(buf, v, 10)
			}
			buf = append(buf, ']')
			w.Write(buf)
		}
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedService decorates a wire.Service with one span per call. It is handed
// to client.New only on traced runs.
type tracedService struct {
	inner wire.Service
	rec   *recorder
}

func (t *tracedService) Begin() (logrec.TID, error) {
	defer t.rec.end(t.rec.begin("wire.begin"))
	return t.inner.Begin()
}

func (t *tracedService) Lock(tid logrec.TID, pid page.ID, mode lock.Mode) error {
	defer t.rec.end(t.rec.begin("wire.lock"))
	return t.inner.Lock(tid, pid, mode)
}

func (t *tracedService) AllocPage(tid logrec.TID) (page.ID, error) {
	defer t.rec.end(t.rec.begin("wire.allocpage"))
	return t.inner.AllocPage(tid)
}

func (t *tracedService) ReadPage(tid logrec.TID, pid page.ID, mode lock.Mode) ([]byte, error) {
	defer t.rec.end(t.rec.begin("wire.readpage"))
	return t.inner.ReadPage(tid, pid, mode)
}

func (t *tracedService) ShipLog(tid logrec.TID, data []byte) error {
	defer t.rec.end(t.rec.begin("wire.shiplog"))
	return t.inner.ShipLog(tid, data)
}

func (t *tracedService) ShipPage(tid logrec.TID, pid page.ID, data []byte) error {
	defer t.rec.end(t.rec.begin("wire.shippage"))
	return t.inner.ShipPage(tid, pid, data)
}

func (t *tracedService) Commit(tid logrec.TID) error {
	defer t.rec.end(t.rec.begin("wire.commit"))
	return t.inner.Commit(tid)
}

func (t *tracedService) Abort(tid logrec.TID) error {
	defer t.rec.end(t.rec.begin("wire.abort"))
	return t.inner.Abort(tid)
}

// countConn counts the bytes a client sends and receives. One client
// goroutine owns the connection, and the counts are read after it has
// finished, so they are plain integers.
type countConn struct {
	net.Conn
	tx, rx int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.rx += int64(n)
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.tx += int64(n)
	return n, err
}
