package main

import (
	"bytes"
	"errors"
	"io"
	"net"
	"regexp"
	"testing"
	"time"

	"repro/internal/lock"
	"repro/internal/logrec"
	"repro/internal/page"
)

// smokeLim sizes the smoke runs at 1/200 of a 15 s run.
const smokeLim = defaultSeconds * time.Second / 200

var nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkDeclared fails unless got holds exactly the declared names, each with
// the declared unit.
func checkDeclared(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: declared metric %s not emitted", what, name)
		} else if m.Unit != unit || unit == "" {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json declares %q", what, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: emitted metric %s is not declared in BENCHMARK.json", what, name)
		}
		if !nameRe.MatchString(name) {
			t.Errorf("%s: metric name %q is outside [A-Za-z0-9_.-]", what, name)
		}
	}
}

// TestSmoke runs all four workloads untraced and traced at 1/200 of their
// work, and checks that each emits exactly what BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	d, err := readDeclared("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	endToEnd := make(map[string]string)
	for _, m := range d.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	perLayer := make(map[string]string)
	for _, m := range d.PerLayer {
		if _, dup := perLayer[m.Name]; dup {
			t.Errorf("BENCHMARK.json declares %s twice", m.Name)
		}
		perLayer[m.Name] = m.Unit
	}
	if len(d.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(d.Workloads), len(workloadNames))
	}
	for i, w := range d.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("BENCHMARK.json workload %d is %s, the program's is %s", i, w.Name, workloadNames[i])
		}
	}
	for _, name := range workloadNames {
		res, err := runEndToEnd(name, 7, smokeLim, t.TempDir(), 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
		}
		checkDeclared(t, name, res.Metrics, endToEnd)
		for n, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", name, n, m.Value)
			}
		}
		res, err = runTraced(name, 7, 5*smokeLim, t.TempDir(), "")
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if !res.Correct {
			t.Errorf("%s traced: %d of %d failed", name, res.Failed, res.Attempted)
		}
		checkDeclared(t, name+" traced", res.Metrics, perLayer)
	}
}

// TestSelfTimesSumToSpan checks, on a traced small-commit slice, that within
// every op the self times of all spans add up to the root span, and that
// every child lies inside its parent.
func TestSelfTimesSumToSpan(t *testing.T) {
	w, _, err := setUp("small-commit", 3, 5*smokeLim, overTraced, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sec, err := w.run(limit{ops: 200, duration: time.Minute})
	w.disconnect()
	if cerr := w.close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(sec.recs) != nClients {
		t.Fatalf("%d recorders, want %d", len(sec.recs), nClients)
	}
	for c, r := range sec.recs {
		self := selfTimes(r.spans)
		sum := make(map[int64]int64)
		root := make(map[int64]int64)
		for i, s := range r.spans {
			sum[s.Op] += self[i]
			if s.Parent < 0 {
				if s.Name != "op" {
					t.Fatalf("client %d: root span %q outside an op", c, s.Name)
				}
				root[s.Op] = s.End - s.Start
				continue
			}
			p := r.spans[s.Parent]
			if s.Start < p.Start || s.End > p.End || s.Op != p.Op {
				t.Fatalf("client %d: span %s [%d,%d] op %d escapes its parent %s [%d,%d] op %d",
					c, s.Name, s.Start, s.End, s.Op, p.Name, p.Start, p.End, p.Op)
			}
		}
		if len(root) != 200 {
			t.Errorf("client %d: %d traced ops, want 200", c, len(root))
		}
		for op, d := range root {
			if diff := sum[op] - d; diff > d/20 || diff < -d/20 {
				t.Errorf("client %d op %d: self times sum to %d ns, the op span is %d ns", c, op, sum[op], d)
			}
		}
	}
}

func TestTopPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		p, v float64
	}{
		{5, 50, 3},          // too few for anything but the median
		{19, 50, 10},        // 9 beyond the median: still the median
		{40, 75, 30},        // 10 beyond p75
		{100, 90, 90},       // 10 beyond p90, 5 beyond p95
		{200, 95, 190},      // 10 beyond p95, 2 beyond p99
		{1000, 99, 990},     // 10 beyond p99, 1 beyond p99.9
		{10000, 99.9, 9990}, // 10 beyond p99.9
	} {
		p, v := topPercentile(seq(tc.n))
		if p != tc.p || v != tc.v {
			t.Errorf("n=%d: topPercentile = p%g %g, want p%g %g", tc.n, p, v, tc.p, tc.v)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	// = [3.5, 24.0, 160.0]
	q1, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q3 != 160 {
		t.Errorf("quartiles = %g, %g, want 3.5, 160", q1, q3)
	}
}

func TestBetterQuartile(t *testing.T) {
	xs := make([]float64, 20)
	for i := range xs {
		xs[i] = float64((i*7)%20 + 1) // 1..20, shuffled
	}
	if v := betterQuartile(xs, false); v != 5 {
		t.Errorf("lower is better: %g, want 5, the fifth best", v)
	}
	if v := betterQuartile(xs, true); v != 16 {
		t.Errorf("higher is better: %g, want 16, the fifth best", v)
	}
	if v := betterQuartile([]float64{3}, true); v != 3 {
		t.Errorf("one window: %g, want 3", v)
	}
}

// fakeService records the calls it receives and returns fixed values.
type fakeService struct {
	calls []string
	data  []byte
	err   error
}

func (f *fakeService) Begin() (logrec.TID, error) {
	f.calls = append(f.calls, "begin")
	return 42, f.err
}
func (f *fakeService) Lock(tid logrec.TID, pid page.ID, mode lock.Mode) error {
	f.calls = append(f.calls, "lock")
	if tid != 42 || pid != 7 || mode != lock.Exclusive {
		return errors.New("lock arguments changed in transit")
	}
	return f.err
}
func (f *fakeService) AllocPage(tid logrec.TID) (page.ID, error) {
	f.calls = append(f.calls, "allocpage")
	return 9, f.err
}
func (f *fakeService) ReadPage(tid logrec.TID, pid page.ID, mode lock.Mode) ([]byte, error) {
	f.calls = append(f.calls, "readpage")
	return f.data, f.err
}
func (f *fakeService) ShipLog(tid logrec.TID, data []byte) error {
	f.calls = append(f.calls, "shiplog")
	f.data = data
	return f.err
}
func (f *fakeService) ShipPage(tid logrec.TID, pid page.ID, data []byte) error {
	f.calls = append(f.calls, "shippage")
	f.data = data
	return f.err
}
func (f *fakeService) Commit(tid logrec.TID) error {
	f.calls = append(f.calls, "commit")
	return f.err
}
func (f *fakeService) Abort(tid logrec.TID) error {
	f.calls = append(f.calls, "abort")
	return f.err
}

func TestTracedServicePassesThrough(t *testing.T) {
	boom := errors.New("boom")
	inner := &fakeService{err: boom}
	rec := newRecorder(time.Now())
	svc := &tracedService{inner: inner, rec: rec}
	payload := []byte("log page")
	if tid, err := svc.Begin(); tid != 42 || err != boom {
		t.Errorf("Begin = %v, %v", tid, err)
	}
	if err := svc.Lock(42, 7, lock.Exclusive); err != boom {
		t.Errorf("Lock = %v", err)
	}
	if pid, err := svc.AllocPage(42); pid != 9 || err != boom {
		t.Errorf("AllocPage = %v, %v", pid, err)
	}
	if err := svc.ShipLog(42, payload); err != boom || &inner.data[0] != &payload[0] {
		t.Errorf("ShipLog = %v, or the payload was copied", err)
	}
	if data, err := svc.ReadPage(42, 7, lock.Shared); err != boom || &data[0] != &payload[0] {
		t.Errorf("ReadPage = %v, or the page was copied", err)
	}
	if err := svc.ShipPage(42, 7, payload); err != boom {
		t.Errorf("ShipPage = %v", err)
	}
	if err := svc.Commit(42); err != boom {
		t.Errorf("Commit = %v", err)
	}
	if err := svc.Abort(42); err != boom {
		t.Errorf("Abort = %v", err)
	}
	want := []string{"begin", "lock", "allocpage", "shiplog", "readpage", "shippage", "commit", "abort"}
	if len(inner.calls) != len(want) || len(rec.spans) != len(want) {
		t.Fatalf("inner saw %v, %d spans; want %v", inner.calls, len(rec.spans), want)
	}
	for i, name := range want {
		if inner.calls[i] != name || rec.spans[i].Name != "wire."+name {
			t.Errorf("call %d: inner saw %s, span %s, want %s", i, inner.calls[i], rec.spans[i].Name, name)
		}
		if rec.spans[i].End < rec.spans[i].Start || rec.spans[i].Parent != -1 {
			t.Errorf("span %d = %+v", i, rec.spans[i])
		}
	}
	if len(rec.stack) != 0 {
		t.Errorf("%d spans left open", len(rec.stack))
	}
}

func TestCountConnPassesThrough(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	conn := &countConn{Conn: a}
	msg := []byte("sixteen byte msg")
	go func() {
		buf := make([]byte, len(msg))
		if _, err := io.ReadFull(b, buf); err == nil {
			b.Write(append(buf, buf...)) // echo it twice
		}
	}()
	if n, err := conn.Write(msg); n != len(msg) || err != nil {
		t.Fatalf("Write = %d, %v", n, err)
	}
	got := make([]byte, 2*len(msg))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append(append([]byte(nil), msg...), msg...)) {
		t.Errorf("read %q", got)
	}
	if conn.tx != int64(len(msg)) || conn.rx != int64(2*len(msg)) {
		t.Errorf("counted tx=%d rx=%d, want %d and %d", conn.tx, conn.rx, len(msg), 2*len(msg))
	}
	if err := conn.Close(); err != nil {
		t.Errorf("Close = %v", err)
	}
}
