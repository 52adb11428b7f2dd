// Command qslint runs the project's static invariant suite (internal/lint)
// over the whole module: latch order (DESIGN.md §S9), WAL write-ahead and
// layering discipline, sweep determinism, stable-storage error handling,
// and the dataflow protocol analyzers (force-before-ack, latch-io,
// goroutine-lifecycle, sentinel-errors), all described in DESIGN.md §11.
// It exits nonzero if any unsuppressed, non-baselined diagnostic remains,
// so `make lint` (part of `make check`) gates every change.
//
// Usage:
//
//	qslint [-json] [-tests] [-baseline file] [-write-baseline file] [dir]
//
// dir defaults to "." and may be anywhere inside the module.
//
// -baseline applies a checked-in suppression baseline: findings covered by
// it are accepted debt, findings not covered fail the build, and baseline
// entries that no longer match anything fail too (stale entries must be
// deleted when their debt is paid). -write-baseline regenerates the file
// from the current findings. -tests additionally loads internal/harness's
// in-package test files, so the determinism analyzer covers the sweep
// repro helpers that must replay exactly like the sweeps.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

// harnessPath is the one package whose _test.go files carry sweep-replay
// invariants worth linting (-tests).
const harnessPath = "repro/internal/harness"

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array (machine-readable)")
	list := flag.Bool("list", false, "list the analyzer suite and exit")
	baseline := flag.String("baseline", "", "suppression baseline file: fail only on findings it does not cover, and on stale entries")
	writeBaseline := flag.String("write-baseline", "", "write the current findings to this baseline file and exit")
	tests := flag.Bool("tests", false, "also lint internal/harness's in-package test files")
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-19s %s\n", a.Name(), a.Doc())
		}
		return
	}

	dir := "."
	if flag.NArg() > 0 {
		dir = flag.Arg(0)
	}
	m, err := lint.LoadModule(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qslint: %v\n", err)
		os.Exit(2)
	}
	if *tests {
		m.IncludeTests(harnessPath)
	}
	pkgs, err := m.LoadAll()
	if err != nil {
		fmt.Fprintf(os.Stderr, "qslint: %v\n", err)
		os.Exit(2)
	}
	diags := lint.Run(m, pkgs, lint.All())

	if *writeBaseline != "" {
		if err := lint.WriteBaseline(*writeBaseline, diags); err != nil {
			fmt.Fprintf(os.Stderr, "qslint: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "qslint: wrote %d baseline entr%s to %s\n",
			len(diags), plural(len(diags), "y", "ies"), *writeBaseline)
		return
	}

	var stale []lint.BaselineEntry
	if *baseline != "" {
		entries, err := lint.LoadBaseline(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qslint: %v\n", err)
			os.Exit(2)
		}
		diags, stale = lint.ApplyBaseline(entries, diags)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(os.Stderr, "qslint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	for _, e := range stale {
		fmt.Fprintf(os.Stderr, "qslint: stale baseline entry (fixed? delete it): [%s] %s: %s\n",
			e.Analyzer, e.File, e.Message)
	}
	if len(diags) > 0 || len(stale) > 0 {
		fmt.Fprintf(os.Stderr, "qslint: %d finding(s), %d stale baseline entr%s\n",
			len(diags), len(stale), plural(len(stale), "y", "ies"))
		os.Exit(1)
	}
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}
