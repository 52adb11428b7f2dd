// Command qslint runs the project's static invariant suite (internal/lint)
// over the whole module: latch order (DESIGN.md §S9), WAL write-ahead and
// layering discipline, sweep determinism, stable-storage error handling,
// and the dataflow protocol analyzers (force-before-ack, latch-io,
// goroutine-lifecycle, sentinel-errors), all described in DESIGN.md §11.
// It exits nonzero if any diagnostic remains that no `//qslint:allow` with a
// reason suppresses, so `make lint` (part of `make check`) gates every
// change.
//
// Usage:
//
//	qslint [-json] [-tests] [dir]
//
// dir defaults to "." and may be anywhere inside the module. -tests
// additionally loads internal/harness's in-package test files, so the
// determinism analyzer covers the sweep repro helpers that must replay
// exactly like the sweeps.
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
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "qslint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
