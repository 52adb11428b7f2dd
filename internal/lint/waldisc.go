package lint

// wal-discipline: the storage protocol owns the pages.
//
// Rule A (layering): only the storage-protocol packages — server, wal,
// archive, recbuf, faultinject, disk, buffer — may call WritePage on a
// disk.Store or mutate buffer-pool frames. Everything else (harness, wire,
// client, tools) must go through a Session, so every page image that reaches
// stable storage is covered by the WAL protocol the sweeps verify.
//
// Inside internal/server rule A is tighter: the write-back module (DESIGN.md
// §2.4) is the one path from a page image to the volume, so WritePage is
// legal only in its two store-write functions, by name.
//
// The logging step (DESIGN.md §2.5) is fenced the same way: inside
// internal/server a record enters the log through logAndNote — which also
// advances the recovery tables, in the same attMu section — or, for a
// checkpoint record, through checkpointCore; wal.Append anywhere else is a
// record the tables never saw. And the two table facts a crash must not find
// half-written, a branch's prepared flag and a decided entry, are assigned
// only in replay.go, where note lives.
//
// Rule B (write-ahead order within a function): a page write followed on
// some path by a wal.Append, with no log force between them, is the classic
// inverted ordering — the log record describing (or following) the write
// could be lost in a crash that survives the page. It is a flow over the
// body's CFG with two facts: "forced before any write", a must fact, and
// "unforced write pending", a may fact, so a loop that appends after the
// previous pass's write is caught. Bodies that append and force before they
// write (checkpointCore: Append → Force → master-record write) are fine;
// a body that writes pages no log describes by design carries a
// //qslint:allow wal-discipline annotation.

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// WALDiscipline is the page-write layering / write-ahead-order analyzer.
type WALDiscipline struct{}

func (WALDiscipline) Name() string { return "wal-discipline" }
func (WALDiscipline) Doc() string {
	return "only protocol packages may write pages, and a page write must not precede wal.Append without a log force"
}

// poolMutators are the buffer-pool frame mutations rule A fences in.
var poolMutators = map[string]bool{
	"Insert": true, "Remove": true, "MarkDirty": true, "MarkClean": true,
	"Clear": true, "SetCapacity": true,
}

// serverStoreWriters are the functions of internal/server that may call
// WritePage: the data-page write and the one page-0 write of writeback.go.
var serverStoreWriters = map[string]bool{"storeWrite": true, "writeSuperblockLocked": true}

// serverLogAppenders are the functions of internal/server that may call
// wal.Append or wal.AppendRun: the logging step of replay.go (logAndNote is a
// precondition-free call of logAndNoteIf, which holds the append;
// logAndNoteRun is its form for a shipped log page), and the checkpoint
// record's own append.
var serverLogAppenders = map[string]bool{"logAndNoteIf": true, "logAndNoteRun": true, "checkpointCore": true}

// noteFile is the file of internal/server that may assign txn.prepared and
// insert into a decided map.
const noteFile = "replay.go"

func (WALDiscipline) Check(m *Module, pkgs []*Package, report Reporter) {
	store := storeInterface(m)
	bufPath := m.Path + "/internal/buffer"
	serverPath := m.Path + "/internal/server"
	writeAllow := []string{
		serverPath,
		m.Path + "/internal/wal",
		m.Path + "/internal/archive",
		m.Path + "/internal/recbuf",
		m.Path + "/internal/faultinject",
		m.Path + "/internal/disk",
		m.Path + "/internal/buffer",
	}
	// The client runs its own page cache (client caching is the point of the
	// architecture), so it may mutate its own pool; it still may not touch a
	// disk.Store directly.
	poolAllow := []string{
		m.Path + "/internal/server",
		m.Path + "/internal/buffer",
		m.Path + "/internal/client",
	}

	for _, pkg := range pkgs {
		storeOK := pathIn(pkg.Path, writeAllow)
		inServer := pathIn(pkg.Path, []string{serverPath})
		poolOK := pathIn(pkg.Path, poolAllow)
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || pkg.FuncAllowed("wal-discipline", fd) {
					continue
				}
				inNoteFile := filepath.Base(m.Fset.Position(file.Pos()).Filename) == noteFile
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if as, ok := n.(*ast.AssignStmt); ok && inServer && !inNoteFile {
						// txn and decidedTxn are the analysed package's own types.
						for _, lhs := range as.Lhs {
							switch l := lhs.(type) {
							case *ast.SelectorExpr:
								if xt := pkg.Info.TypeOf(l.X); l.Sel.Name == "prepared" && xt != nil && namedIn(xt, pkg.Path, "txn") {
									report(pkg, l.Pos(), "assignment to txn.prepared in %s: a branch's prepared flag changes only in tables.note (%s), inside the critical section of the record that changes it — a flag cleared on its own is the Decide window (DESIGN.md §2.5)", fd.Name.Name, noteFile)
								}
							case *ast.IndexExpr:
								if xt := pkg.Info.TypeOf(l.X); xt != nil {
									if mt, ok := xt.Underlying().(*types.Map); ok && namedIn(mt.Elem(), pkg.Path, "decidedTxn") {
										report(pkg, l.Pos(), "insert into the decided map in %s: a commit decision is entered only by tables.note (%s), with its DECIDE record", fd.Name.Name, noteFile)
									}
								}
							}
						}
						return true
					}
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					recvT := pkg.Info.TypeOf(sel.X)
					switch name := sel.Sel.Name; {
					case storeCall(pkg, store, call, "WritePage"):
						switch {
						case !storeOK:
							report(pkg, call.Pos(), "WritePage on a disk.Store from package %s: page writes are reserved to the storage-protocol packages (server/wal/archive/recbuf/faultinject); go through a Session so the WAL protocol covers the write", pkg.Path)
						case inServer && !serverStoreWriters[fd.Name.Name]:
							report(pkg, call.Pos(), "WritePage on a disk.Store in %s: inside the server a page reaches the volume only through the write-back module (storeWrite under writeHome or installWPLLocked, writeSuperblockLocked), which carries the write-ahead test", fd.Name.Name)
						}
					case walCall(m, pkg, call, walAppends...):
						if inServer && !serverLogAppenders[fd.Name.Name] {
							report(pkg, call.Pos(), "wal.Append in %s: inside the server a record enters the log only through the logging step (logAndNote, which advances the recovery tables in the same attMu section) or checkpointCore", fd.Name.Name)
						}
					case poolMutators[name] && !poolOK &&
						(isNamedType(recvT, bufPath, "Pool") || isNamedType(recvT, bufPath, "Sharded") || isNamedType(recvT, bufPath, "PoolShard")):
						report(pkg, call.Pos(), "%s mutates buffer-pool frames from package %s: frame state is owned by the server's fix/unfix protocol", name, pkg.Path)
					}
					return true
				})
				for _, body := range funcBodies(fd.Body) {
					writeAhead(m, pkg, store, body, report)
				}
			}
		}
	}
}

// writeAheadFact is rule B's fact at one point of a body.
type writeAheadFact struct {
	forced bool      // must: the log was forced on every path, before any page write
	write  token.Pos // may: a page write no force has covered yet, on some path
}

// writeAhead runs rule B over one body. A force before the first write
// covers the whole body (Force → flush dirty pages → append a summary
// record is the canonical legitimate write-then-append body); after that, a
// force clears the pending write and an append reports it.
func writeAhead(m *Module, pkg *Package, store *types.Interface, body *ast.BlockStmt, report Reporter) {
	fl := flow[writeAheadFact]{
		bottom: func() writeAheadFact { return writeAheadFact{} },
		clone:  func(f writeAheadFact) writeAheadFact { return f },
		merge: func(dst, src writeAheadFact) (writeAheadFact, bool) {
			out := writeAheadFact{forced: dst.forced && src.forced, write: dst.write}
			if !out.write.IsValid() {
				out.write = src.write
			}
			return out, out != dst
		},
		transfer: func(n ast.Node, f writeAheadFact, rep bool) writeAheadFact {
			nodeCalls(n, func(call *ast.CallExpr) {
				switch {
				case walCall(m, pkg, call, "Force", "ForceFull", "CommitWait"):
					f = writeAheadFact{forced: true}
				case storeCall(pkg, store, call, "WritePage"):
					if !f.forced && !f.write.IsValid() {
						f.write = call.Pos()
					}
				case walCall(m, pkg, call, walAppends...) && f.write.IsValid():
					if rep {
						report(pkg, call.Pos(), "wal.Append after a page write at line %d with no log force between them: the write-ahead rule requires the log record stable before (or a Force since) any page write it describes",
							m.Fset.Position(f.write).Line)
					}
					f.write = token.NoPos
				}
			})
			return f
		},
	}
	cfg := buildCFG(body)
	replayFlow(cfg, fl, runFlow(cfg, fl))
}
