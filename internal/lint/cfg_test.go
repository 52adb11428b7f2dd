package lint

// CFG construction sanity: the exit-reachability and merge behaviors the
// §11 analyzers lean on, checked on small parsed bodies rather than
// through full analyzer runs.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseBody parses `func f() { <src> }` and returns the body.
func parseBody(t *testing.T, src string) *ast.BlockStmt {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "x.go", "package x\nfunc f() {\n"+src+"\n}\n", 0)
	if err != nil {
		t.Fatal(err)
	}
	return file.Decls[len(file.Decls)-1].(*ast.FuncDecl).Body
}

func TestCFGExitReachability(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		reaches bool
	}{
		{"straight line", "x := 1\n_ = x", true},
		{"bare infinite loop", "for {\n}", false},
		{"infinite loop with return", "for {\nreturn\n}", true},
		{"infinite loop with break", "for {\nbreak\n}", true},
		{"conditional loop", "for i := 0; i < 3; i++ {\n}", true},
		{"nested bare loop", "if true {\nfor {\n}\n} else {\nfor {\n}\n}", false},
		{"select with returning case", "ch := make(chan int)\nfor {\nselect {\ncase <-ch:\nreturn\n}\n}", true},
		{"select without escape", "ch := make(chan int)\nfor {\nselect {\ncase <-ch:\n}\n}", false},
		// Terminating calls edge to Exit by design: a panic does end the
		// goroutine, and the analyzers still need to observe facts there.
		{"unconditional panic", "panic(\"x\")", true},
		{"panic on one branch", "if true {\npanic(\"x\")\n}", true},
		{"labeled break", "outer:\nfor {\nfor {\nbreak outer\n}\n}", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := buildCFG(parseBody(t, tc.src))
			if got := cfg.ReachesExit()[cfg.Entry]; got != tc.reaches {
				t.Fatalf("entry reaches exit = %v, want %v", got, tc.reaches)
			}
		})
	}
}

// TestCFGMergeJoins checks that an if/else diamond really joins: a fact
// seeded differently per branch must merge at the block after the if.
// Exercised through the generic dataflow engine with a simple
// all-paths boolean fact ("saw the call on every path").
func TestCFGMergeJoins(t *testing.T) {
	body := parseBody(t, `
if cond {
	mark()
} else {
	other()
}
after()
`)
	cfg := buildCFG(body)
	sawMark := func(n ast.Node) bool {
		found := false
		ast.Inspect(n, func(x ast.Node) bool {
			if c, ok := x.(*ast.CallExpr); ok {
				if id, ok := c.Fun.(*ast.Ident); ok && id.Name == "mark" {
					found = true
				}
			}
			return true
		})
		return found
	}
	var atAfter []bool
	fl := flow[bool]{
		bottom: func() bool { return false },
		clone:  func(b bool) bool { return b },
		merge: func(dst, src bool) (bool, bool) {
			merged := dst && src
			return merged, merged != dst
		},
		transfer: func(n ast.Node, fact bool, rep bool) bool {
			if rep {
				if c, ok := n.(*ast.ExprStmt); ok {
					if call, ok := c.X.(*ast.CallExpr); ok {
						if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "after" {
							atAfter = append(atAfter, fact)
						}
					}
				}
			}
			if sawMark(n) {
				return true
			}
			return fact
		},
	}
	in := runFlow(cfg, fl)
	replayFlow(cfg, fl, in)
	if len(atAfter) != 1 || atAfter[0] {
		t.Fatalf("must-merge at the join should AND the branches (mark only on one): got %v", atAfter)
	}
}
