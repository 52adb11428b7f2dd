package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/page"
)

// tracedShare is the part of an untraced run's work a traced run repeats in
// each of its three sections (traced, untraced, direct).
const tracedShare = 5

// runTraced produces the per-layer metrics of one workload. After one set-up
// it runs the same fixed slice of work three times, each on fresh warmed-up
// clients: traced over TCP (spans and counts), untraced over TCP (the
// baseline for trace.overhead_frac and the tail latencies), and untraced over
// wire.NewDirect (the baseline for wire.tcp_minus_direct_us_per_op). Then the
// isolated probes run on pages and records sampled from the workload, the
// state is verified, and the spans are written to tracePath.
func runTraced(name string, seed int64, lim time.Duration, tmp, tracePath string) (*result, error) {
	w, _, err := setUp(name, seed, lim, overTraced, tmp)
	if err != nil {
		return nil, err
	}
	slice := sized(w.rate(), lim/tracedShare)
	traced, err := w.run(slice)
	w.disconnect()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: traced section: operation failed: %v\n", name, err)
	}
	// baseline reruns the slice untraced on fresh, warmed-up clients.
	baseline := func(kind connKind, what string) (*section, error) {
		if err := connectWarm(w, kind, lim, time.Time{}); err != nil {
			return nil, fmt.Errorf("%s section: %w", what, err)
		}
		sec, err := w.run(slice)
		w.disconnect()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %s section: operation failed: %v\n", name, what, err)
		}
		if len(sec.ops) == 0 {
			return nil, fmt.Errorf("%s section: no operation completed", what)
		}
		return sec, nil
	}
	plain, err := baseline(overTCP, "untraced")
	if err != nil {
		return nil, err
	}
	direct, err := baseline(overDirect, "direct")
	if err != nil {
		return nil, err
	}
	probes, err := runProbes(w.stacks()[0], tmp)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	checks, bad, err := w.verify()
	if err != nil {
		return nil, fmt.Errorf("verification: %w", err)
	}
	if err := w.close(); err != nil {
		return nil, err
	}
	if tracePath != "" {
		if err := writeTrace(tracePath, traced.recs); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	res := &result{
		Attempted: traced.attempted + plain.attempted + direct.attempted + checks,
		Failed:    traced.failed + plain.failed + direct.failed + bad,
		Metrics:   layerMetrics(name, traced, plain, direct, probes),
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// layerNames is every per-layer metric with its unit, in the order of
// README.md's layer list. Every traced run emits all of them; a metric that
// does not apply to a workload reads 0.
var layerNames = []struct{ name, unit string }{
	// client: client, vmem, recbuf, diff
	{"client.write_self_us_p50", "us"}, {"client.commit_self_us_p50", "us"}, {"client.traverse_self_ms_p50", "ms"},
	{"client.faults_per_op", "count/op"}, {"client.pages_fetched_per_op", "count/op"}, {"client.evictions_per_op", "count/op"},
	{"client.recbuf_spills_per_op", "count/op"}, {"client.log_bytes_shipped_per_op", "B/op"},
	{"client.dirty_pages_shipped_per_op", "count/op"}, {"client.pool_hit_ratio", "ratio"},
	{"probe.diff.sparse_ns_page", "ns"}, {"probe.diff.dense_ns_page", "ns"},
	// wire
	{"wire.begin_us_p50", "us"}, {"wire.lock_us_p50", "us"}, {"wire.readpage_us_p50", "us"}, {"wire.shiplog_us_p50", "us"},
	{"wire.shippage_us_p50", "us"}, {"wire.commit_us_p50", "us"}, {"wire.calls_per_op", "count/op"},
	{"wire.bytes_tx_per_op", "B/op"}, {"wire.bytes_rx_per_op", "B/op"}, {"wire.tcp_minus_direct_us_per_op", "us"},
	// server: session, commit, checkpoint
	{"server.commits", "count"}, {"server.log_pages_received", "count"}, {"server.dirty_pages_received", "count"},
	{"server.pages_served", "count"}, {"server.log_records_applied", "count"}, {"server.wpl_installs", "count"},
	{"server.wpl_log_reloads", "count"}, {"server.checkpoints", "count"}, {"server.ckpt_stall_ms", "ms"},
	{"server.direct_commit_us_p50", "us"},
	// wal, logrec
	{"wal.bytes_per_op", "B/op"}, {"wal.forces", "count"}, {"wal.log_pages_written", "count"}, {"wal.group_mean_batch", "ratio"},
	{"wal.flushes_avoided", "count"}, {"probe.wal.append_ns", "ns"}, {"probe.wal.append_allocs", "allocs/op"},
	{"probe.wal.commitwait_ns", "ns"}, {"probe.wal.scan_mb_s", "MB/s"}, {"probe.logrec.encode_ns", "ns"},
	{"probe.logrec.encode_allocs", "allocs/op"}, {"probe.logrec.decode_ns", "ns"},
	// buffer
	{"buffer.server_hit_ratio", "ratio"}, {"buffer.latch_contention", "count"}, {"probe.buffer.hit_ns", "ns"},
	{"probe.buffer.miss_evict_ns", "ns"},
	// lock
	{"lock.waits", "count"}, {"lock.timeouts", "count"}, {"probe.lock.grant_release_ns", "ns"},
	// disk, page
	{"disk.data_reads", "count"}, {"disk.data_writes", "count"}, {"disk.data_bytes_written_per_op", "B/op"},
	{"probe.disk.file_write_us", "us"}, {"probe.disk.file_read_us", "us"}, {"probe.disk.checksum_ns_page", "ns"},
	// restart (crash-restart only), per server mode where it says so
	{"restart.log_bytes_scanned", "B"}, {"restart.log_bytes_appended", "B"}, {"restart.records_redone", "count"},
	{"restart.redo_worker_skew", "ratio"}, {"restart.data_reads", "count"}, {"restart.data_writes", "count"},
	{"restart.loser_records", "count"}, {"restart.first_commit_ms_p50", "ms"},
	{"restart.ms_p50.esm", "ms"}, {"restart.ms_p50.redo", "ms"}, {"restart.ms_p50.wpl", "ms"},
	// harness
	{"trace.overhead_frac", "ratio"}, {"gen.client_count", "count"}, {"e2e.op_p90_ms", "ms"}, {"e2e.op_p95_ms", "ms"},
	{"e2e.op_p99_ms", "ms"}, {"e2e.op_max_ms", "ms"}, {"e2e.write_amp", "ratio"},
	{"oo7.round_p50_ms.pd-esm", "ms"}, {"oo7.round_p50_ms.sd-esm", "ms"}, {"oo7.round_p50_ms.sl-esm", "ms"},
	{"oo7.round_p50_ms.pd-redo", "ms"}, {"oo7.round_p50_ms.wpl", "ms"},
	{"oo7.t2a_ms_p50", "ms"}, {"oo7.t2b_ms_p50", "ms"}, {"oo7.t2c_ms_p50", "ms"},
}

// p50of returns the median of ns in the given unit (nanoseconds per unit).
func p50of(ns []int64, per float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = float64(v) / per
	}
	sort.Float64s(xs)
	return percentile(xs, 50)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerMetrics derives every per-layer metric. Span timings and counts come
// from the traced section; tails, write amplification and both baselines from
// the untraced ones.
func layerMetrics(name string, traced, plain, direct *section, probes map[string]metric) map[string]metric {
	out := make(map[string]metric, len(layerNames))
	set := func(name string, v float64) { out[name] = metric{Value: v} }
	for n, m := range probes {
		set(n, m.Value)
	}
	for n, m := range traced.extra {
		set(n, m.Value)
	}

	// Spans: self time of the client API calls, duration of the wire calls.
	var wireCalls int64
	self := make(map[string][]int64)
	dur := make(map[string][]int64)
	// Self times are computed per recorder: parent indexes are local to one.
	for _, r := range traced.recs {
		for n, v := range selfByName(r.spans) {
			self[n] = append(self[n], v...)
		}
		for _, s := range r.spans {
			if strings.HasPrefix(s.Name, "wire.") {
				wireCalls++
				dur[s.Name] = append(dur[s.Name], s.End-s.Start)
			}
		}
	}
	set("client.write_self_us_p50", p50of(self["client.write"], 1e3))
	set("client.commit_self_us_p50", p50of(self["client.commit"], 1e3))
	var traverse []int64
	for _, n := range []string{"client.t1", "client.t2a", "client.t2b", "client.t2c"} {
		traverse = append(traverse, self[n]...)
	}
	set("client.traverse_self_ms_p50", p50of(traverse, 1e6))
	for _, op := range []string{"begin", "lock", "readpage", "shiplog", "shippage", "commit"} {
		set("wire."+op+"_us_p50", p50of(dur["wire."+op], 1e3))
	}

	// Counts, over the traced section.
	d := traced.delta
	n := int64(len(traced.ops))
	perOp := func(v int64) float64 { return ratio(v, n) }
	set("client.faults_per_op", perOp(d.Faults))
	set("client.pages_fetched_per_op", perOp(d.PagesFetched))
	set("client.evictions_per_op", perOp(d.Evictions))
	set("client.recbuf_spills_per_op", perOp(d.RecbufSpills))
	set("client.log_bytes_shipped_per_op", perOp(d.LogBytesShipped))
	set("client.dirty_pages_shipped_per_op", perOp(d.DirtyPagesShipped))
	set("client.pool_hit_ratio", ratio(d.ClientPoolHits, d.ClientPoolHits+d.ClientPoolMisses))
	set("wire.calls_per_op", perOp(wireCalls))
	set("wire.bytes_tx_per_op", perOp(d.BytesTx))
	set("wire.bytes_rx_per_op", perOp(d.BytesRx))
	set("server.commits", float64(d.Commits))
	set("server.log_pages_received", float64(d.LogPagesReceived))
	set("server.dirty_pages_received", float64(d.DirtyPagesReceived))
	set("server.pages_served", float64(d.PagesServed))
	set("server.log_records_applied", float64(d.LogRecordsApplied))
	set("server.wpl_installs", float64(d.WPLInstalls))
	set("server.wpl_log_reloads", float64(d.WPLLogReloads))
	set("server.checkpoints", float64(d.Checkpoints))
	set("server.ckpt_stall_ms", float64(d.CkptStallNs)/1e6)
	set("wal.bytes_per_op", perOp(d.WALBytes))
	set("wal.forces", float64(d.LogForces))
	set("wal.log_pages_written", float64(d.LogPagesWritten))
	set("wal.group_mean_batch", ratio(d.GroupCommits, d.GroupBatches))
	set("wal.flushes_avoided", float64(d.GroupFlushesAvoided))
	set("buffer.server_hit_ratio", ratio(d.PoolHits, d.PoolHits+d.PoolMisses))
	set("buffer.latch_contention", float64(d.LatchContention))
	set("lock.waits", float64(d.LockWaits))
	set("lock.timeouts", float64(traced.lockTimeouts))
	set("disk.data_reads", float64(d.DataReads))
	set("disk.data_writes", float64(d.DataWrites))
	set("disk.data_bytes_written_per_op", perOp(d.DataWrites*page.Size))

	// Baselines.
	opsPerSec := func(s *section) float64 { return float64(len(s.ops)) / s.wall.Seconds() }
	meanUs := func(s *section) float64 {
		var sum int64
		for _, o := range s.ops {
			sum += o.ns
		}
		return ratio(sum, int64(len(s.ops))) / 1e3
	}
	set("trace.overhead_frac", 1-opsPerSec(traced)/opsPerSec(plain))
	set("wire.tcp_minus_direct_us_per_op", meanUs(plain)-meanUs(direct))
	set("gen.client_count", nClients)
	lat := latenciesMs(plain.ops)
	set("e2e.op_p90_ms", percentile(lat, 90))
	set("e2e.op_p95_ms", percentile(lat, 95))
	set("e2e.op_p99_ms", percentile(lat, 99))
	set("e2e.op_max_ms", lat[len(lat)-1])
	set("e2e.write_amp", ratio(plain.delta.writtenBytes(), plain.appBytes))

	// oo7-update: rounds per software version and traversals per kind.
	if name == "oo7-update" {
		byScheme := make([][]int64, len(schemes))
		var parts [3][]int64
		for _, o := range traced.ops {
			byScheme[o.kind] = append(byScheme[o.kind], o.ns)
			for i := range parts {
				parts[i] = append(parts[i], o.part[i])
			}
		}
		for k, sc := range schemes {
			set("oo7.round_p50_ms."+sc.name, p50of(byScheme[k], 1e6))
		}
		for i, n := range []string{"oo7.t2a_ms_p50", "oo7.t2b_ms_p50", "oo7.t2c_ms_p50"} {
			set(n, p50of(parts[i], 1e6))
		}
	}

	// Every declared name, with its unit; nothing undeclared.
	final := make(map[string]metric, len(layerNames))
	for _, ln := range layerNames {
		final[ln.name] = metric{Value: out[ln.name].Value, Unit: ln.unit}
	}
	return final
}
