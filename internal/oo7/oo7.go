// Package oo7 implements the OO7 object-oriented database benchmark
// [Carey93] as used by the paper (§4.1–§4.2): the database generator with
// the paper's small and big parameterizations (Table 1), and the T2A, T2B
// and T2C update traversals.
//
// Object layouts are flat binary records connected by OIDs. Each composite
// part's atomic-part graph (20 parts, 60 connection objects) is clustered
// onto its own page(s), which is what gives the paper its page-level write
// counts: a sparse T2A update dirties roughly one page per composite part.
package oo7

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/internal/client"
	"repro/internal/page"
)

// Config holds the OO7 generation parameters (Table 1).
type Config struct {
	NumAtomicPerComp int
	NumConnPerAtomic int
	DocumentSize     int
	ManualSize       int
	NumCompPerModule int
	NumAssmPerAssm   int
	NumAssmLevels    int
	NumCompPerAssm   int
	NumModules       int
}

// SmallConfig returns the paper's small database parameters.
func SmallConfig() Config {
	return Config{
		NumAtomicPerComp: 20,
		NumConnPerAtomic: 3,
		DocumentSize:     2000,
		ManualSize:       100 << 10,
		NumCompPerModule: 500,
		NumAssmPerAssm:   3,
		NumAssmLevels:    7,
		NumCompPerAssm:   3,
		NumModules:       5,
	}
}

// BigConfig returns the paper's big database parameters: 2000 composite
// parts per module and 8 assembly levels.
func BigConfig() Config {
	c := SmallConfig()
	c.NumCompPerModule = 2000
	c.NumAssmLevels = 8
	return c
}

// Scale returns a copy of the configuration shrunk by factor f (≥1) in the
// number of composite parts, for fast tests and short benchmarks. The graph
// shape is preserved.
func (c Config) Scale(f int) Config {
	if f <= 1 {
		return c
	}
	c.NumCompPerModule = max(3, c.NumCompPerModule/f)
	return c
}

// BaseAssemblies returns the number of base assemblies per module.
func (c Config) BaseAssemblies() int {
	n := 1
	for i := 1; i < c.NumAssmLevels; i++ {
		n *= c.NumAssmPerAssm
	}
	return n
}

// Object sizes in bytes. The padding brings the per-composite-part cluster
// to ≈6.9 KB so one cluster fills most of an 8 KB page, reproducing the
// paper's ~1 dirtied page per composite part under sparse updates.
const (
	AtomicPartSize = 100
	ConnectionSize = 80
	CompPartSize   = 100
	AssemblySize   = 80
	ModuleSize     = 64
	ManualChunk    = 7500
)

// Atomic part field offsets. X and Y are adjacent so the paper's
// "increment the (x,y) attributes" is a single 8-byte update region.
const (
	apID        = 0
	apX         = 4
	apY         = 8
	apBuildDate = 12
	apConns     = 16 // NumConnPerAtomic OIDs
)

// Composite part field offsets.
const (
	cpID       = 0
	cpDate     = 4
	cpRootPart = 8
	cpDocument = 16
)

// Assembly field offsets. Level 1 is a base assembly whose children are
// composite parts; higher levels are complex assemblies whose children are
// assemblies.
const (
	asID       = 0
	asLevel    = 4
	asChildren = 8
)

// Module object field offsets.
const (
	moID     = 0
	moRoot   = 8
	moManual = 16
)

// Connection field offsets.
const (
	cnType = 0
	cnFrom = 8
	cnTo   = 16
)

// Database is the in-memory handle to a generated OO7 database.
type Database struct {
	Config  Config
	Catalog page.OID
	Modules []Module
}

// Module is the handle to one module (one client's private data).
type Module struct {
	Self      page.OID
	Root      page.OID // root assembly
	Manual    page.OID
	CompParts []page.OID
}

// rd32/wr32 helpers for object fields.
func rd32(b []byte, off int) uint32    { return binary.LittleEndian.Uint32(b[off:]) }
func wr32(b []byte, off int, v uint32) { binary.LittleEndian.PutUint32(b[off:], v) }

func rdOID(b []byte, off int) page.OID    { return page.DecodeOID(b[off:]) }
func wrOID(b []byte, off int, o page.OID) { page.EncodeOID(b[off:], o) }

// Build generates the database through c, committing in batches. The layout
// work (which pages objects land on) is deterministic for a given seed.
func Build(c *client.Client, cfg Config, seed int64) (*Database, error) {
	rng := rand.New(rand.NewSource(seed))
	db := &Database{Config: cfg}
	tx, err := c.Begin()
	if err != nil {
		return nil, err
	}
	// Catalog goes first so tools can find it at a well-known OID.
	catalog, err := tx.Allocate(8 + 8*cfg.NumModules)
	if err != nil {
		return nil, err
	}
	db.Catalog = catalog
	for m := 0; m < cfg.NumModules; m++ {
		mod, err := buildModule(c, &tx, cfg, m, rng)
		if err != nil {
			return nil, err
		}
		db.Modules = append(db.Modules, *mod)
	}
	// Fill in the catalog.
	cat := make([]byte, 8+8*cfg.NumModules)
	wr32(cat, 0, uint32(cfg.NumModules))
	for i, m := range db.Modules {
		wrOID(cat, 8+8*i, m.Self)
	}
	if err := tx.Write(catalog, 0, cat); err != nil {
		return nil, err
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	return db, nil
}

// buildModule creates one module, committing periodically to bound
// transaction size. tx is replaced by the transaction left open at return.
func buildModule(c *client.Client, tx **client.Tx, cfg Config, idx int, rng *rand.Rand) (*Module, error) {
	mod := &Module{}
	// Composite parts, one clustered page run per part.
	for cp := 0; cp < cfg.NumCompPerModule; cp++ {
		oid, err := buildCompositePart(*tx, cfg, idx*cfg.NumCompPerModule+cp, rng)
		if err != nil {
			return nil, err
		}
		mod.CompParts = append(mod.CompParts, oid)
		if (cp+1)%64 == 0 {
			if err := (*tx).Commit(); err != nil {
				return nil, err
			}
			nt, err := c.Begin()
			if err != nil {
				return nil, err
			}
			*tx = nt
		}
	}
	// Documents, densely packed on their own pages.
	if _, err := (*tx).NewPage(); err != nil {
		return nil, err
	}
	for cp := 0; cp < cfg.NumCompPerModule; cp++ {
		doc, err := (*tx).Allocate(cfg.DocumentSize)
		if err != nil {
			return nil, err
		}
		head := []byte(fmt.Sprintf("Composite part %d document", cp))
		if err := (*tx).Write(doc, 0, head); err != nil {
			return nil, err
		}
		if err := (*tx).Write(mod.CompParts[cp], cpDocument, encodeOID(doc)); err != nil {
			return nil, err
		}
		if (cp+1)%256 == 0 {
			if err := (*tx).Commit(); err != nil {
				return nil, err
			}
			nt, err := c.Begin()
			if err != nil {
				return nil, err
			}
			*tx = nt
		}
	}
	// Assembly hierarchy.
	if _, err := (*tx).NewPage(); err != nil {
		return nil, err
	}
	root, err := buildAssembly(*tx, cfg, mod, cfg.NumAssmLevels, rng)
	if err != nil {
		return nil, err
	}
	mod.Root = root
	// Manual, as a chain of chunks.
	man, err := buildManual(*tx, cfg)
	if err != nil {
		return nil, err
	}
	mod.Manual = man
	// Module object.
	self, err := (*tx).Allocate(ModuleSize)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, ModuleSize)
	wr32(buf, moID, uint32(idx))
	wrOID(buf, moRoot, root)
	wrOID(buf, moManual, man)
	if err := (*tx).Write(self, 0, buf); err != nil {
		return nil, err
	}
	mod.Self = self
	if err := (*tx).Commit(); err != nil {
		return nil, err
	}
	nt, err := c.Begin()
	if err != nil {
		return nil, err
	}
	*tx = nt
	return mod, nil
}

func encodeOID(o page.OID) []byte {
	var b [page.OIDSize]byte
	page.EncodeOID(b[:], o)
	return b[:]
}

// buildCompositePart creates the part header, its atomic-part graph and the
// interposed connection objects, clustered on fresh pages.
func buildCompositePart(tx *client.Tx, cfg Config, id int, rng *rand.Rand) (page.OID, error) {
	if _, err := tx.NewPage(); err != nil {
		return page.NilOID, err
	}
	self, err := tx.Allocate(CompPartSize)
	if err != nil {
		return page.NilOID, err
	}
	n := cfg.NumAtomicPerComp
	parts := make([]page.OID, n)
	for i := 0; i < n; i++ {
		p, err := tx.Allocate(AtomicPartSize)
		if err != nil {
			return page.NilOID, err
		}
		parts[i] = p
		buf := make([]byte, 16)
		wr32(buf, apID, uint32(id*n+i))
		wr32(buf, apX, rng.Uint32()%10000)
		wr32(buf, apY, rng.Uint32()%10000)
		wr32(buf, apBuildDate, uint32(1000+rng.Intn(1000)))
		if err := tx.Write(p, 0, buf); err != nil {
			return page.NilOID, err
		}
	}
	// Connections: part i → part (i+1) mod n guarantees reachability; the
	// remaining NumConnPerAtomic-1 targets are random [Carey93].
	for i := 0; i < n; i++ {
		for k := 0; k < cfg.NumConnPerAtomic; k++ {
			to := (i + 1) % n
			if k > 0 {
				to = rng.Intn(n)
			}
			conn, err := tx.Allocate(ConnectionSize)
			if err != nil {
				return page.NilOID, err
			}
			cbuf := make([]byte, 24)
			wrOID(cbuf, cnFrom, parts[i])
			wrOID(cbuf, cnTo, parts[to])
			if err := tx.Write(conn, 0, cbuf); err != nil {
				return page.NilOID, err
			}
			if err := tx.Write(parts[i], apConns+8*k, encodeOID(conn)); err != nil {
				return page.NilOID, err
			}
		}
	}
	hdr := make([]byte, 24)
	wr32(hdr, cpID, uint32(id))
	wr32(hdr, cpDate, uint32(2000+rng.Intn(1000)))
	wrOID(hdr, cpRootPart, parts[0])
	if err := tx.Write(self, 0, hdr); err != nil {
		return page.NilOID, err
	}
	return self, nil
}

// buildAssembly builds the hierarchy top-down and returns the root assembly.
func buildAssembly(tx *client.Tx, cfg Config, mod *Module, level int, rng *rand.Rand) (page.OID, error) {
	self, err := tx.Allocate(AssemblySize)
	if err != nil {
		return page.NilOID, err
	}
	buf := make([]byte, asChildren+8*cfg.NumAssmPerAssm)
	wr32(buf, asLevel, uint32(level))
	if level == 1 {
		// Base assembly: NumCompPerAssm composite parts chosen at random.
		for k := 0; k < cfg.NumCompPerAssm; k++ {
			cp := mod.CompParts[rng.Intn(len(mod.CompParts))]
			wrOID(buf, asChildren+8*k, cp)
		}
	} else {
		for k := 0; k < cfg.NumAssmPerAssm; k++ {
			child, err := buildAssembly(tx, cfg, mod, level-1, rng)
			if err != nil {
				return page.NilOID, err
			}
			wrOID(buf, asChildren+8*k, child)
		}
	}
	if err := tx.Write(self, 0, buf); err != nil {
		return page.NilOID, err
	}
	return self, nil
}

// buildManual writes the module's manual as a chain of chunk objects; the
// returned OID is the first chunk, which links to the next in its first 8
// bytes.
func buildManual(tx *client.Tx, cfg Config) (page.OID, error) {
	remaining := cfg.ManualSize
	var chunks []page.OID
	for remaining > 0 {
		sz := ManualChunk
		if remaining < sz {
			sz = remaining
		}
		if sz < page.OIDSize {
			sz = page.OIDSize
		}
		oid, err := tx.Allocate(sz)
		if err != nil {
			return page.NilOID, err
		}
		chunks = append(chunks, oid)
		remaining -= sz
	}
	for i := 0; i+1 < len(chunks); i++ {
		if err := tx.Write(chunks[i], 0, encodeOID(chunks[i+1])); err != nil {
			return page.NilOID, err
		}
	}
	return chunks[0], nil
}
