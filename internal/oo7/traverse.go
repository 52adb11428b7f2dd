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
func Run(c *client.Client, mod *Module, t Traversal, m costmodel.Meter, _ *costmodel.Params) (Result, error) {
	tx, err := c.Begin()
	if err != nil {
		return Result{}, err
	}
	// Read the module object and descend the assembly hierarchy DFS.
	var res Result
	modBuf, err := tx.ReadObject(mod.Self)
	if err == nil {
		err = visitAssembly(tx, rdOID(modBuf, moRoot), t, m, &res)
	}
	if err != nil {
		tx.Abort()
		return res, err
	}
	return res, tx.Commit()
}

func visitAssembly(tx *client.Tx, a page.OID, t Traversal, m costmodel.Meter, res *Result) error {
	buf, err := tx.ReadObject(a)
	if err != nil {
		return err
	}
	m.Add(costmodel.Visit, 1)
	level := rd32(buf, asLevel)
	nchildren := (len(buf) - asChildren) / 8
	for k := 0; k < nchildren; k++ {
		child := rdOID(buf, asChildren+8*k)
		if child.IsNil() {
			continue
		}
		if level == 1 {
			if err := visitCompPart(tx, child, t, m, res); err != nil {
				return err
			}
		} else {
			if err := visitAssembly(tx, child, t, m, res); err != nil {
				return err
			}
		}
	}
	return nil
}

// visitCompPart performs the depth-first search over the atomic-part graph,
// applying the traversal's updates.
func visitCompPart(tx *client.Tx, cp page.OID, t Traversal, m costmodel.Meter, res *Result) error {
	buf, err := tx.ReadObject(cp)
	if err != nil {
		return err
	}
	res.CompVisits++
	root := rdOID(buf, cpRootPart)
	visited := make(map[page.OID]bool)
	visits := 1 // the composite part itself
	if err := dfsAtomic(tx, root, true, t, visited, &visits, res); err != nil {
		return err
	}
	// Report this composite-part visit's object visits in one event.
	m.Add(costmodel.Visit, visits)
	return nil
}

// dfsAtomic visits part and, transitively, every part reachable through its
// connections. isRoot marks the composite part's designated root part.
func dfsAtomic(tx *client.Tx, part page.OID, isRoot bool, t Traversal, visited map[page.OID]bool, visits *int, res *Result) error {
	if visited[part] {
		return nil
	}
	visited[part] = true
	res.AtomicVisits++
	*visits++
	buf, err := tx.ReadObject(part)
	if err != nil {
		return err
	}
	// Apply the traversal's updates to this part.
	update := false
	times := 1
	switch t {
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
		var xy [8]byte
		copy(xy[:], buf[apX:apX+8])
		for i := 0; i < times; i++ {
			wr32(xy[:], 0, rd32(xy[:], 0)+1)
			wr32(xy[:], 4, rd32(xy[:], 4)+1)
			if err := tx.Write(part, apX, xy[:]); err != nil {
				return err
			}
			res.Updates++
		}
	}
	// Follow the connections.
	nconn := (len(buf) - apConns) / 8
	for k := 0; k < nconn; k++ {
		connOID := rdOID(buf, apConns+8*k)
		if connOID.IsNil() {
			continue
		}
		cbuf, err := tx.ReadObject(connOID)
		if err != nil {
			return err
		}
		*visits++
		if err := dfsAtomic(tx, rdOID(cbuf, cnTo), false, t, visited, visits, res); err != nil {
			return err
		}
	}
	return nil
}

// CollectAtomicParts returns every atomic part reachable from the module's
// composite parts, in deterministic order (composite parts in build order,
// then the connection DFS). The crash-point sweep uses the list to drive
// small targeted update transactions with a known expected final state.
func CollectAtomicParts(c *client.Client, mod *Module) ([]page.OID, error) {
	tx, err := c.Begin()
	if err != nil {
		return nil, err
	}
	defer tx.Abort()
	var out []page.OID
	seen := make(map[page.OID]bool)
	for _, cp := range mod.CompParts {
		buf, err := tx.ReadObject(cp)
		if err != nil {
			return nil, err
		}
		if err := collectAtomic(tx, rdOID(buf, cpRootPart), seen, &out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// collectAtomic appends part and everything reachable through its
// connections to out, depth first, skipping already-seen parts.
func collectAtomic(tx *client.Tx, part page.OID, seen map[page.OID]bool, out *[]page.OID) error {
	if seen[part] {
		return nil
	}
	seen[part] = true
	*out = append(*out, part)
	buf, err := tx.ReadObject(part)
	if err != nil {
		return err
	}
	nconn := (len(buf) - apConns) / 8
	for k := 0; k < nconn; k++ {
		connOID := rdOID(buf, apConns+8*k)
		if connOID.IsNil() {
			continue
		}
		cbuf, err := tx.ReadObject(connOID)
		if err != nil {
			return err
		}
		if err := collectAtomic(tx, rdOID(cbuf, cnTo), seen, out); err != nil {
			return err
		}
	}
	return nil
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
	buf, err := tx.ReadObject(part)
	if err != nil {
		return 0, 0, err
	}
	return rd32(buf, apX), rd32(buf, apY), nil
}
