package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
)

// declared is BENCHMARK.json as far as this program reads it.
type declared struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// readDeclared loads BENCHMARK.json; the program runs from the repository
// root, where it is.
func readDeclared(path string) (*declared, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &d, nil
}

// runSuite runs every workload, each in a child process of its own so that
// rss_peak_mb is that workload's, and returns the children's results. The
// children print their own metric tables.
func runSuite(seed int64, seconds float64, trace int, out string) ([]result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var results []result
	var failed []string
	for _, name := range workloadNames {
		cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-out", out)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		var last string
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			if last != "" {
				fmt.Println(last)
			}
			last = sc.Text()
		}
		werr := cmd.Wait()
		var res result
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			fmt.Println(last)
			return nil, fmt.Errorf("%s printed no result (%v)", name, werr)
		}
		results = append(results, res)
		if werr != nil || !res.Correct {
			failed = append(failed, name)
		}
	}
	if len(failed) > 0 {
		return results, fmt.Errorf("failed: %v", failed)
	}
	return results, nil
}

// worseBy returns how much worse b is than a as a share of a, negative when
// b is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// selfCheck runs the untraced suite twice with seed and once with seed+1 and
// prints, per workload, every end-to-end metric in a row of its own: the
// three values, each later run's difference from the first as a share of the
// first, and the bound. It fails if a same-seed pair differs by more than
// the bound in either direction.
func selfCheck(seed int64, seconds float64) error {
	d, err := readDeclared("BENCHMARK.json")
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(buildDir, "selfcheck-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var runs [3][]result
	for i, s := range []int64{seed, seed, seed + 1} {
		fmt.Printf("## selfcheck run %d of 3 (seed %d)\n", i+1, s)
		if runs[i], err = runSuite(s, seconds, 0, dir); err != nil {
			return err
		}
	}
	var over []string
	for w, name := range workloadNames {
		fmt.Printf("\n%s\n  %-20s %-6s %14s %14s %9s %14s %9s %7s\n", name, "metric", "unit",
			fmt.Sprintf("seed %d", seed), fmt.Sprintf("seed %d", seed), "worse by", fmt.Sprintf("seed %d", seed+1), "worse by", "bound")
		for _, m := range d.EndToEnd {
			a, b, c := runs[0][w].Metrics[m.Name].Value, runs[1][w].Metrics[m.Name].Value, runs[2][w].Metrics[m.Name].Value
			same, next := worseBy(a, b, m.Better), worseBy(a, c, m.Better)
			flag := ""
			if same > m.Bound || same < -m.Bound {
				flag = "  over the bound"
				over = append(over, name+"/"+m.Name)
			}
			fmt.Printf("  %-20s %-6s %14.6g %14.6g %+8.1f%% %14.6g %+8.1f%% %6.0f%%%s\n",
				m.Name, m.Unit, a, b, 100*same, c, 100*next, 100*m.Bound, flag)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("two runs of the same code and seed disagree by more than the bound on %v", over)
	}
	return nil
}

// readRuns loads a runs.jsonl file and groups the untraced results' values by
// workload and metric.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r runLine
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace != 0 {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for n, m := range r.Metrics {
			out[r.Workload][n] = append(out[r.Workload][n], m.Value)
		}
	}
	return out, sc.Err()
}

// compareFiles prints, per workload, one row per end-to-end metric with each
// side's median and quartiles and the change of the median as a ratio with
// its base. A metric is "regressed" when the new median is worse than the old
// by more than the bound, and "unresolved" when either side's own spread —
// the distance between its quartiles — is wider than the bound, so that the
// runs cannot tell. It returns an error if anything regressed.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	d, err := readDeclared("BENCHMARK.json")
	if err != nil {
		return err
	}
	oldRuns, err := readRuns(oldPath)
	if err != nil {
		return err
	}
	newRuns, err := readRuns(newPath)
	if err != nil {
		return err
	}
	var regressed []string
	for _, name := range workloadNames {
		if oldRuns[name] == nil && newRuns[name] == nil {
			continue
		}
		fmt.Fprintf(w, "%s\n  %-20s %-6s %36s %36s  %s\n", name, "metric", "unit",
			"old median [q1, q3] (n)", "new median [q1, q3] (n)", "new/old, verdict")
		for _, m := range d.EndToEnd {
			a, b := oldRuns[name][m.Name], newRuns[name][m.Name]
			if len(a) < 2 || len(b) < 2 {
				fmt.Fprintf(w, "  %-20s %-6s needs at least two untraced runs on each side (old %d, new %d)\n", m.Name, m.Unit, len(a), len(b))
				continue
			}
			ma, mb := median(a), median(b)
			a1, a3 := quartiles(a)
			b1, b3 := quartiles(b)
			verdict := "within the bound"
			switch worse := worseBy(ma, mb, m.Better); {
			case (a3-a1)/ma > m.Bound || (b3-b1)/mb > m.Bound:
				verdict = "unresolved: the run-to-run spread is wider than the bound"
			case worse > m.Bound:
				verdict = "regressed"
				regressed = append(regressed, name+"/"+m.Name)
			case worse < -m.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(w, "  %-20s %-6s %36s %36s  %.4g/%.4g = %.3f, %s (bound %.0f%%)\n", m.Name, m.Unit,
				fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", ma, a1, a3, len(a)),
				fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", mb, b1, b3, len(b)),
				mb, ma, mb/ma, verdict, 100*m.Bound)
		}
	}
	if len(regressed) > 0 {
		return fmt.Errorf("regressed: %v", regressed)
	}
	return nil
}
