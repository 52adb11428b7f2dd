// Command bench is the repository's benchmark: four workloads driven through
// the stack a user runs (client → wire TCP → server.Session → lock → wal →
// checksummed disk.FileStore), each followed by a correctness check. See
// README.md in this directory.
//
//	bash bench/run.sh                             every workload, untraced
//	bash bench/run.sh -workload small-commit      one workload
//	bash bench/run.sh -trace 1                    per-layer numbers and span files
//	bash bench/run.sh -selfcheck                  do two runs of this code agree?
//	bash bench/run.sh -compare old.jsonl new.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// defaultSeconds is run_seconds in BENCHMARK.json.
const defaultSeconds = 15

// setupReps is how many times an untraced run sets the workload up, once in
// this process and the rest each in a child; setup_s is the median, so one
// slow database build does not decide it.
const setupReps = 3

// buildDir holds everything a run creates besides its reports: volumes go to
// a per-process directory under it that is removed when the run ends.
const buildDir = ".bench_build"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload, printed as the last line of standard
// output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runLine is one line of <out>/runs.jsonl: a result and what produced it.
type runLine struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all four, one child process each)")
		seed         = flag.Int64("seed", 1, "workload generator seed")
		seconds      = flag.Float64("seconds", defaultSeconds, "length of the timed section")
		trace        = flag.Int("trace", 0, "1 = traced run: per-layer metrics, span file in -out")
		selfcheck    = flag.Bool("selfcheck", false, "run the untraced suite twice with -seed and once with seed+1; fail if a same-seed pair disagrees by more than a bound")
		compare      = flag.Bool("compare", false, "compare two runs.jsonl files given as arguments: old new")
		out          = flag.String("out", "bench/out", "directory for runs.jsonl and trace-<workload>.json")
		setupChild   = flag.Bool("setup-only", false, "internal: set -workload up once, print the seconds it took, exit")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two files: old new")
		} else {
			err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	case *selfcheck:
		err = selfCheck(*seed, *seconds)
	case *setupChild:
		err = setupOnly(*workloadName, *seed, time.Duration(*seconds*float64(time.Second)))
	case *workloadName == "":
		_, err = runSuite(*seed, *seconds, *trace, *out)
	default:
		err = runAndReport(*workloadName, *seed, *seconds, *trace, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runAndReport runs one workload in this process, prints every metric by name
// with its unit, appends the result to <out>/runs.jsonl and prints it as the
// last line. A failed operation or check is an error after the line is out.
func runAndReport(name string, seed int64, seconds float64, trace int, out string) error {
	tmp, cleanup, err := scratchDir()
	if err != nil {
		return err
	}
	defer cleanup()
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	lim := time.Duration(seconds * float64(time.Second))
	var res *result
	if trace != 0 {
		res, err = runTraced(name, seed, lim, tmp, filepath.Join(out, "trace-"+name+".json"))
	} else {
		res, err = runEndToEnd(name, seed, lim, tmp, setupReps-1)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	run := runLine{Workload: name, Seed: seed, Trace: trace, result: *res}
	printMetrics(run)
	line, err := json.Marshal(run)
	if err != nil {
		return err
	}
	if err := appendLine(filepath.Join(out, "runs.jsonl"), line); err != nil {
		return err
	}
	if line, err = json.Marshal(res); err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations and checks failed", name, res.Failed, res.Attempted)
	}
	return nil
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printMetrics prints one "name value unit" row per metric, sorted by name.
func printMetrics(res runLine) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %s seed=%d trace=%d attempted=%d failed=%d\n", res.Workload, res.Seed, res.Trace, res.Attempted, res.Failed)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-36s %16.6g %s\n", n, m.Value, m.Unit)
	}
}

// runEndToEnd measures the end-to-end metrics of one workload with tracing
// off: set up, run the timed section sized for lim, verify. setup_s is the
// median of this process's set-up and of childSetups more, each in a process
// of its own so that none inherits another's heap.
func runEndToEnd(name string, seed int64, lim time.Duration, tmp string, childSetups int) (*result, error) {
	var setups []float64
	for i := 0; i < childSetups; i++ {
		s, err := childSetup(name, seed, lim)
		if err != nil {
			return nil, fmt.Errorf("set-up in a child process: %w", err)
		}
		setups = append(setups, s)
	}
	w, setupS, err := setUp(name, seed, lim, overTCP, tmp)
	if err != nil {
		return nil, err
	}
	setups = append(setups, setupS)
	sec, runErr := w.run(sized(w.rate(), lim))
	w.disconnect()
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: operation failed: %v\n", name, runErr)
	}
	checks, bad, err := w.verify()
	if err != nil {
		return nil, fmt.Errorf("verification: %w", err)
	}
	rss := peakRSSMB()
	if err := w.close(); err != nil {
		return nil, err
	}
	if len(sec.ops) == 0 {
		return nil, fmt.Errorf("no operation completed")
	}
	res := &result{
		Attempted: sec.attempted + checks,
		Failed:    sec.failed + bad,
		Metrics:   endToEndMetrics(sec, median(setups), rss),
	}
	res.Correct = res.Failed == 0
	printTail(name, sec)
	return res, nil
}

// warmUpShare is the part of a run's work its clients first do as discarded
// ops, one second's worth on a 15 s run: caches fill, and a box that was
// idle reaches its working speed.
const warmUpShare = 15

// setUp does everything that precedes a timed section — volume creation,
// database build, servers, clients, warm-up — under dir, and times it.
func setUp(name string, seed int64, lim time.Duration, kind connKind, dir string) (workload, float64, error) {
	start := time.Now()
	w, err := newWorkload(name, seed)
	if err != nil {
		return nil, 0, err
	}
	if err := w.open(dir); err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	if err := connectWarm(w, kind, lim, start); err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return w, time.Since(start).Seconds(), nil
}

// connectWarm dials w's clients and runs the warm-up share of a run of
// length lim, discarded.
func connectWarm(w workload, kind connKind, lim time.Duration, epoch time.Time) error {
	if err := w.connect(kind, epoch); err != nil {
		return err
	}
	sec, err := w.run(sized(w.rate(), lim/warmUpShare))
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	for _, r := range sec.recs {
		r.spans = r.spans[:0]
	}
	return nil
}

// childSetup runs this binary with -setup-only and returns the set-up time
// it prints.
func childSetup(name string, seed int64, lim time.Duration) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(lim.Seconds()), "-setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	var s float64
	if _, err := fmt.Sscan(strings.TrimSpace(string(out)), &s); err != nil {
		return 0, fmt.Errorf("child printed %q: %w", out, err)
	}
	return s, nil
}

// setupOnly is the child side of childSetup.
func setupOnly(name string, seed int64, lim time.Duration) error {
	tmp, cleanup, err := scratchDir()
	if err != nil {
		return err
	}
	defer cleanup()
	w, s, err := setUp(name, seed, lim, overTCP, tmp)
	if err != nil {
		return err
	}
	w.disconnect()
	if err := w.close(); err != nil {
		return err
	}
	fmt.Println(s)
	return nil
}

// scratchDir creates this process's directory for volumes under buildDir.
func scratchDir() (string, func(), error) {
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		return "", nil, fmt.Errorf("run from the repository root (bash bench/run.sh does): %w", err)
	}
	tmp := filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", nil, err
	}
	return tmp, func() { os.RemoveAll(tmp) }, nil
}

// endToEndMetrics derives the gated metrics from one untraced section. The
// two timings are taken over windows of the section — each client's ops cut
// into equal consecutive shares — and the value reported is the quartile of
// the windows on the better side: the box this runs on has stretches of
// several seconds in which everything is a tenth to a third slower (a spin
// loop shows them too), nothing ever makes a window faster than the program
// is, and a median flips between the two speeds once such stretches cover
// half a run. The better quartile needs a quarter of the run undisturbed.
func endToEndMetrics(sec *section, setupS, rssMB float64) map[string]metric {
	thr, p50 := windowed(sec.ops)
	return map[string]metric{
		"setup_s":           {setupS, "s"},
		"throughput_ops_s":  {betterQuartile(thr, true), "op/s"},
		"op_p50_ms":         {betterQuartile(p50, false), "ms"},
		"written_kb_per_op": {float64(sec.delta.writtenBytes()) / 1024 / float64(len(sec.ops)), "KB/op"},
		"rss_peak_mb":       {rssMB, "MB"},
	}
}

// maxWindows is how many windows a full-size section is cut into.
const maxWindows = 20

// windowed cuts every client's ops, in order, into the same number of
// consecutive shares and returns each window's throughput (ops per second of
// client time, summed over clients: a closed-loop client is always inside an
// op) and median latency in ms. A window holds at least 40 ops, and there are
// at most maxWindows.
func windowed(ops []opSample) (thr, p50 []float64) {
	byClient := make(map[int][]float64)
	for _, o := range ops {
		byClient[o.client] = append(byClient[o.client], float64(o.ns)/1e6)
	}
	n := len(ops) / 40
	if n < 1 {
		n = 1
	}
	if n > maxWindows {
		n = maxWindows
	}
	for w := 0; w < n; w++ {
		var rate float64
		var pool []float64
		for _, ms := range byClient {
			share := ms[w*len(ms)/n : (w+1)*len(ms)/n]
			var busy float64
			for _, v := range share {
				busy += v
			}
			if busy > 0 {
				rate += float64(len(share)) / busy * 1000
			}
			pool = append(pool, share...)
		}
		if len(pool) == 0 {
			continue
		}
		pool = sortedCopy(pool)
		thr = append(thr, rate)
		p50 = append(p50, percentile(pool, 50))
	}
	return thr, p50
}

// printTail prints the highest percentile the sample supports — the one with
// at least ten samples beyond it — and the sample count.
func printTail(name string, sec *section) {
	lat := latenciesMs(sec.ops)
	p, v := topPercentile(lat)
	fmt.Printf("# %s: %d ops in %.2f s; highest supported percentile p%g = %.4f ms\n",
		name, len(lat), sec.wall.Seconds(), p, v)
}

// latenciesMs returns the op latencies in ascending milliseconds.
func latenciesMs(ops []opSample) []float64 {
	ms := make([]float64, len(ops))
	for i, o := range ops {
		ms[i] = float64(o.ns) / 1e6
	}
	sort.Float64s(ms)
	return ms
}

// peakRSSMB returns this process's peak resident set (VmHWM), or 0 where
// /proc is not available.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%f", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
