package oo7

import (
	"fmt"

	"repro/internal/client"
	"repro/internal/costmodel"
	"repro/internal/page"
)

// Traversal identifies one of the paper's update traversals (§4.2).
type Traversal int

// The traversal variants.
const (
	// T2A updates the root atomic part of each composite part.
	T2A Traversal = iota
	// T2B updates every atomic part of each composite part.
	T2B
	// T2C updates every atomic part four times.
	T2C
	// T1 is the read-only raw traversal: same walk, no updates. The paper's
	// §6 claim — QuickStore's hardware-based detection does not impact
	// read-only transactions (one protection fault only happens on writes)
	// — is checked against this traversal in the tests.
	T1
)

// String implements fmt.Stringer.
func (t Traversal) String() string {
	switch t {
	case T2A:
		return "T2A"
	case T2B:
		return "T2B"
	case T2C:
		return "T2C"
	case T1:
		return "T1"
	default:
		return fmt.Sprintf("Traversal(%d)", int(t))
	}
}

// Result reports what a traversal did.
type Result struct {
	Updates      int // update operations performed
	AtomicVisits int // atomic parts visited (with repetition across composite visits)
	CompVisits   int // composite part visits
}

// Run performs the traversal over one module as a single transaction,
// committing at the end. Object visits, the application's CPU work, are
// reported to m as costmodel.Visit events, batched per composite-part visit;
// updates go through the client's normal recovery machinery. The paper
// increments the (x,y) attributes rather than swapping them so repeated
// updates keep changing the object (§4.2 footnote). The ignored
// *costmodel.Params is kept only because the frozen bench/ module passes one.
//
// A traversal copies out only the fields it reads: one dereference is one
// Tx.Read of an object's fixed-size body or of a single field (a
// connection's target, a composite part's root) into the walker's own
// arrays, so it allocates nothing per object.
func Run(c *client.Client, mod *Module, t Traversal, m costmodel.Meter, _ *costmodel.Params) (Result, error) {
	tx, err := c.Begin()
	if err != nil {
		return Result{}, err
	}
	// Read the module's root and descend the assembly hierarchy DFS.
	w := newWalker(tx, t, m)
	var root [page.OIDSize]byte
	err = tx.Read(mod.Self, moRoot, root[:])
	if err == nil {
		err = w.visitAssembly(rdOID(root[:], 0))
	}
	if err != nil {
		tx.Abort()
		return w.res, err
	}
	return w.res, tx.Commit()
}

// walker is one traversal's state. visited holds the atomic parts the
// current composite-part visit has reached, in DFS order; it is reset per
// visit and never holds more than the composite part's atomic parts, so a
// reused slice scanned linearly is enough.
type walker struct {
	tx      *client.Tx
	t       Traversal
	m       costmodel.Meter
	res     Result
	visited []page.OID
	visits  int // object visits of the current composite-part visit
}

// visitedCap is the visited set's starting room, enough for the atomic
// parts of one composite part in the small and medium configurations.
const visitedCap = 256

func newWalker(tx *client.Tx, t Traversal, m costmodel.Meter) *walker {
	return &walker{tx: tx, t: t, m: m, visited: make([]page.OID, 0, visitedCap)}
}

func (w *walker) visitAssembly(a page.OID) error {
	var buf [AssemblySize]byte
	if err := w.tx.Read(a, 0, buf[:]); err != nil {
		return err
	}
	w.m.Add(costmodel.Visit, 1)
	level := rd32(buf[:], asLevel)
	for off := asChildren; off+page.OIDSize <= AssemblySize; off += page.OIDSize {
		child := rdOID(buf[:], off)
		if child.IsNil() {
			continue
		}
		var err error
		if level == 1 {
			err = w.visitCompPart(child)
		} else {
			err = w.visitAssembly(child)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// visitCompPart performs the depth-first search over the atomic-part graph,
// applying the traversal's updates.
func (w *walker) visitCompPart(cp page.OID) error {
	var root [page.OIDSize]byte
	if err := w.tx.Read(cp, cpRootPart, root[:]); err != nil {
		return err
	}
	w.res.CompVisits++
	w.visited = w.visited[:0]
	w.visits = 1 // the composite part itself
	if err := w.dfsAtomic(rdOID(root[:], 0), true); err != nil {
		return err
	}
	// Report this composite-part visit's object visits in one event.
	w.m.Add(costmodel.Visit, w.visits)
	return nil
}

// seen reports whether the current composite-part visit has reached part,
// recording it if not.
func (w *walker) seen(part page.OID) bool {
	for _, p := range w.visited {
		if p == part {
			return true
		}
	}
	w.visited = append(w.visited, part)
	return false
}

// dfsAtomic visits part and, transitively, every part reachable through its
// connections. isRoot marks the composite part's designated root part.
func (w *walker) dfsAtomic(part page.OID, isRoot bool) error {
	if w.seen(part) {
		return nil
	}
	w.res.AtomicVisits++
	w.visits++
	var buf [AtomicPartSize]byte
	if err := w.tx.Read(part, 0, buf[:]); err != nil {
		return err
	}
	// Apply the traversal's updates to this part.
	update := false
	times := 1
	switch w.t {
	case T1:
		// read-only
	case T2A:
		update = isRoot
	case T2B:
		update = true
	case T2C:
		update = true
		times = 4
	}
	if update {
		xy := buf[apX : apX+8]
		for i := 0; i < times; i++ {
			wr32(xy, 0, rd32(xy, 0)+1)
			wr32(xy, 4, rd32(xy, 4)+1)
			if err := w.tx.Write(part, apX, xy); err != nil {
				return err
			}
			w.res.Updates++
		}
	}
	// Follow the connections.
	var to [page.OIDSize]byte
	for off := apConns; off+page.OIDSize <= AtomicPartSize; off += page.OIDSize {
		connOID := rdOID(buf[:], off)
		if connOID.IsNil() {
			continue
		}
		if err := w.tx.Read(connOID, cnTo, to[:]); err != nil {
			return err
		}
		w.visits++
		if err := w.dfsAtomic(rdOID(to[:], 0), false); err != nil {
			return err
		}
	}
	return nil
}

// CollectAtomicParts returns every atomic part reachable from the module's
// composite parts, in deterministic order (composite parts in build order,
// then the connection DFS). The crash-point sweep uses the list to drive
// small targeted update transactions with a known expected final state. It
// is T1's walk of each composite part, in a transaction it aborts.
func CollectAtomicParts(c *client.Client, mod *Module) ([]page.OID, error) {
	tx, err := c.Begin()
	if err != nil {
		return nil, err
	}
	defer tx.Abort()
	var out []page.OID
	w := newWalker(tx, T1, costmodel.NopMeter{})
	for _, cp := range mod.CompParts {
		if err := w.visitCompPart(cp); err != nil {
			return nil, err
		}
		out = append(out, w.visited...)
	}
	return out, nil
}

// StampXY writes (x, y) = (val, val) into the atomic part — the paper's
// 8-byte update region — in one write.
func StampXY(tx *client.Tx, part page.OID, val uint32) error {
	var b [8]byte
	wr32(b[:], 0, val)
	wr32(b[:], 4, val)
	return tx.Write(part, apX, b[:])
}

// ReadXY returns the atomic part's (x, y) attributes.
func ReadXY(tx *client.Tx, part page.OID) (x, y uint32, err error) {
	var b [8]byte
	if err := tx.Read(part, apX, b[:]); err != nil {
		return 0, 0, err
	}
	return rd32(b[:], 0), rd32(b[:], 4), nil
}
