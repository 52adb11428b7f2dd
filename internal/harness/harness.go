// Package harness reproduces the paper's experiments: for every table and
// figure in §4–§5 it configures the software versions of Table 3, builds the
// OO7 database, runs the traversals on the simulated 1995 testbed, and
// reports the same rows or series the paper plots.
//
// The database is built in real mode (no cost accounting), then one
// simulated client workstation per paper client runs warm-up and measured
// traversals against the shared server. Response time is simulated seconds
// per traversal transaction; throughput is transactions per simulated
// minute summed over clients; the write counts of Figures 9 and 14 are the
// per-transaction client page-shipment counts.
package harness

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/client"
	"repro/internal/costmodel"
	"repro/internal/oo7"
	"repro/internal/page"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/wire"
)

// SystemSpec is one software version with its client memory split.
type SystemSpec struct {
	Name   string
	Scheme client.Scheme
	Mode   server.Mode
	PoolMB float64 // client buffer pool
	RecMB  float64 // recovery buffer (0 for WPL)
	// BlockSize overrides the sub-page block size for SD/SL (default 64;
	// the paper experimented with 8-64 bytes, §3.3).
	BlockSize int
	// Adaptive enables the §7 future-work dynamic memory split.
	Adaptive bool
}

// Options tunes a reproduction run.
type Options struct {
	// Scale divides the database size and the client memory budgets by this
	// factor, preserving the shapes while shrinking runtimes (1 = the
	// paper's full configuration).
	Scale int
	// Clients lists the client counts to sweep (default 1..5).
	Clients []int
	// Warm and Measure are traversals per client before and during
	// measurement (defaults 1 and 2).
	Warm, Measure int
	// Params overrides the testbed cost model.
	Params *costmodel.Params
	// Seed fixes database generation.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Scale < 1 {
		o.Scale = 1
	}
	if len(o.Clients) == 0 {
		o.Clients = []int{1, 2, 3, 4, 5}
	}
	if o.Warm == 0 {
		o.Warm = 1
	}
	if o.Measure == 0 {
		o.Measure = 2
	}
	if o.Params == nil {
		o.Params = costmodel.Default1995()
	}
	if o.Seed == 0 {
		o.Seed = 7
	}
	return o
}

// Cell is one measured point: a system at a client count.
type Cell struct {
	System   string
	Clients  int
	RespTime time.Duration // mean response time per traversal transaction
	TPM      float64       // total throughput, transactions per minute
	// Per-transaction client page writes (Figures 9 and 14).
	LogPages   float64
	TotalPages float64
	// Diagnostics.
	Spills     float64 // recovery-buffer spills per transaction
	Fetches    float64 // server page fetches per transaction (paging)
	Updates    float64 // update operations per transaction
	NetUtil    float64 // network utilization during the run
	LogUtil    float64 // log disk utilization
	DataUtil   float64 // data disk utilization
	ServerUtil float64 // server CPU utilization
}

// scaleMB converts a memory budget in MB to bytes, applying the scale.
func scaleMB(mb float64, scale int) int {
	b := int(mb * (1 << 20) / float64(scale))
	if b < page.Size {
		b = page.Size
	}
	return b
}

// RunCustom runs an arbitrary system specification over a database and
// traversal — the entry point for ablation studies (block-size sweeps,
// memory-split sweeps, the adaptive policy).
func RunCustom(spec SystemSpec, dbCfg oo7.Config, tr oo7.Traversal, o Options) ([]Cell, error) {
	return runSystem(spec, dbCfg, tr, o)
}

// runSystem builds one server+database for spec and sweeps the client
// counts, returning one Cell per count.
func runSystem(spec SystemSpec, dbCfg oo7.Config, tr oo7.Traversal, o Options) ([]Cell, error) {
	o = o.withDefaults()
	srv, db, err := buildSystem(spec, dbCfg, o)
	if err != nil {
		return nil, err
	}
	var cells []Cell
	for _, n := range o.Clients {
		cell, err := runCell(spec, srv, db, tr, n, o)
		if err != nil {
			return nil, err
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

// buildSystem starts spec's server and loads the database dbCfg, scaled by
// o.Scale, into it in real mode.
func buildSystem(spec SystemSpec, dbCfg oo7.Config, o Options) (*server.Server, *oo7.Database, error) {
	dbCfg = dbCfg.Scale(o.Scale)
	srv := server.New(server.Config{
		Mode: spec.Mode,
		// The paper's server: 36 MB of memory, scaled with the database.
		PoolPages:       max(64, (36<<20)/page.Size/o.Scale),
		LogCapacity:     512 << 20,
		CheckpointEvery: 8,
	})
	// Build the database in real mode; the loader's scheme must match the
	// server (a WPL server accepts no log records).
	loaderScheme := client.PD
	if spec.Mode == server.ModeWPL {
		loaderScheme = client.WPL
	}
	builder := client.New(client.Config{
		Scheme:         loaderScheme,
		PoolPages:      2048,
		RecoveryBytes:  8 << 20,
		ShipDirtyPages: spec.Mode != server.ModeREDO,
	}, wire.NewDirect(srv, nil, nil))
	db, err := oo7.Build(builder, dbCfg, o.Seed)
	if err != nil {
		return nil, nil, fmt.Errorf("harness: building database: %w", err)
	}
	return srv, db, nil
}

// newClient connects one of spec's client workstations to srv in process,
// reporting its work, and the server's on its behalf, to m.
func newClient(spec SystemSpec, srv *server.Server, m costmodel.Meter, o Options) *client.Client {
	return client.New(client.Config{
		Scheme:                 spec.Scheme,
		PoolPages:              max(16, scaleMB(spec.PoolMB, o.Scale)/page.Size),
		RecoveryBytes:          scaleMB(spec.RecMB, o.Scale),
		BlockSize:              spec.BlockSize,
		ShipDirtyPages:         spec.Mode != server.ModeREDO,
		AdaptiveRecoveryBuffer: spec.Adaptive,
		Meter:                  m,
	}, wire.NewDirect(srv, m, nil))
}

// runCell runs n simulated clients, each traversing its private module.
func runCell(spec SystemSpec, srv *server.Server, db *oo7.Database, tr oo7.Traversal, n int, o Options) (Cell, error) {
	if n > len(db.Modules) {
		return Cell{}, fmt.Errorf("harness: %d clients but %d modules", n, len(db.Modules))
	}
	k := sim.New()
	tb := costmodel.NewTestbed(k, o.Params)
	type clientOut struct {
		rts      []time.Duration
		logBytes int64
		dirtyPgs int64
		spills   int64
		fetches  int64
		updates  int64
		span     time.Duration
		err      error
	}
	outs := make([]clientOut, n)
	measureStart := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		i := i
		cpu := k.NewResource(fmt.Sprintf("client%d-cpu", i))
		k.Spawn(fmt.Sprintf("client%d", i), func(proc *sim.Proc) {
			meter := tb.Meter(proc, cpu)
			cli := newClient(spec, srv, meter, o)
			mod := &db.Modules[i]
			for w := 0; w < o.Warm; w++ {
				if _, err := oo7.Run(cli, mod, tr, meter, nil); err != nil {
					outs[i].err = err
					return
				}
			}
			meter.Flush()
			measureStart[i] = proc.Now()
			for r := 0; r < o.Measure; r++ {
				before := cli.Stats()
				start := proc.Now()
				res, err := oo7.Run(cli, mod, tr, meter, nil)
				if err != nil {
					outs[i].err = err
					return
				}
				meter.Flush()
				after := cli.Stats()
				outs[i].rts = append(outs[i].rts, proc.Now()-start)
				outs[i].logBytes += after.LogBytesShipped - before.LogBytesShipped
				outs[i].dirtyPgs += after.DirtyPagesShipped - before.DirtyPagesShipped
				outs[i].spills += after.RecbufSpills - before.RecbufSpills
				outs[i].fetches += after.PagesFetched - before.PagesFetched
				outs[i].updates += int64(res.Updates)
			}
			outs[i].span = proc.Now() - measureStart[i]
		})
	}
	k.Run()
	cell := Cell{System: spec.Name, Clients: n}
	var rtSum time.Duration
	var rtCount int
	var txns int64
	for i := range outs {
		if outs[i].err != nil {
			return cell, fmt.Errorf("harness: client %d: %w", i, outs[i].err)
		}
		for _, rt := range outs[i].rts {
			rtSum += rt
			rtCount++
		}
		txns += int64(len(outs[i].rts))
		if outs[i].span > 0 {
			cell.TPM += float64(len(outs[i].rts)) / outs[i].span.Minutes()
		}
		logPgs := (outs[i].logBytes + page.Size - 1) / page.Size
		cell.LogPages += float64(logPgs)
		cell.TotalPages += float64(logPgs + outs[i].dirtyPgs)
		cell.Spills += float64(outs[i].spills)
		cell.Fetches += float64(outs[i].fetches)
		cell.Updates += float64(outs[i].updates)
	}
	if rtCount > 0 {
		cell.RespTime = rtSum / time.Duration(rtCount)
	}
	if txns > 0 {
		cell.LogPages /= float64(txns)
		cell.TotalPages /= float64(txns)
		cell.Spills /= float64(txns)
		cell.Fetches /= float64(txns)
		cell.Updates /= float64(txns)
	}
	cell.NetUtil = tb.Net.Utilization()
	cell.LogUtil = tb.LogDisk.Utilization()
	cell.DataUtil = tb.DataDisk.Utilization()
	cell.ServerUtil = tb.ServerCPU.Utilization()
	return cell, nil
}

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// CSV renders the table as comma-separated values (title as a comment
// line), for plotting the figures with external tools.
func (t *Table) CSV() string {
	out := "# " + t.Title + "\n"
	row := func(cells []string) string {
		s := ""
		for i, c := range cells {
			if i > 0 {
				s += ","
			}
			s += c
		}
		return s + "\n"
	}
	out += row(t.Header)
	for _, r := range t.Rows {
		out += row(r)
	}
	return out
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	out := t.Title + "\n"
	line := func(cells []string) string {
		s := ""
		for i, c := range cells {
			s += fmt.Sprintf("%-*s  ", widths[i], c)
		}
		return s + "\n"
	}
	out += line(t.Header)
	for _, r := range t.Rows {
		out += line(r)
	}
	return out
}

// cellsToSeries pivots cells into one row per system with a column per
// client count, formatting each value with fn.
func cellsToSeries(title string, cells []Cell, clients []int, fn func(Cell) string) *Table {
	bySystem := map[string]map[int]Cell{}
	var order []string
	for _, c := range cells {
		if bySystem[c.System] == nil {
			bySystem[c.System] = map[int]Cell{}
			order = append(order, c.System)
		}
		bySystem[c.System][c.Clients] = c
	}
	sort.Strings(order)
	t := &Table{Title: title, Header: []string{"system"}}
	for _, n := range clients {
		t.Header = append(t.Header, fmt.Sprintf("%d client(s)", n))
	}
	for _, sys := range order {
		row := []string{sys}
		for _, n := range clients {
			row = append(row, fn(bySystem[sys][n]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
