package main

import (
	"reflect"

	"repro/internal/page"
)

// counts is every counter the harness reads from outside the engine, summed
// over a workload's servers and clients: Server.ExtendedStats(), Log().End()
// and GroupStats(), client.Client.Stats(), the client pool and the
// byte-counting connections. A section reports the difference of two
// snapshots taken at its boundaries. Every field is an int64 so sub can walk
// them.
type counts struct {
	// server
	Commits, LogPagesReceived, DirtyPagesReceived, PagesServed int64
	DataReads, DataWrites, LogRecordsApplied                   int64
	WPLInstalls, WPLLogReloads, Checkpoints, CkptStallNs       int64
	PoolHits, PoolMisses, LatchContention, LockWaits           int64
	// wal
	WALBytes, LogForces, LogPagesWritten            int64
	GroupCommits, GroupBatches, GroupFlushesAvoided int64
	// clients
	Faults, Updates, PagesFetched, Evictions, RecbufSpills int64
	LogBytesShipped, DirtyPagesShipped                     int64
	ClientPoolHits, ClientPoolMisses                       int64
	BytesTx, BytesRx                                       int64
}

// snapshot reads the counters of the given live servers and clients.
func snapshot(stacks []*stack, clients []*benchClient) counts {
	var c counts
	for _, st := range stacks {
		x := st.srv.ExtendedStats()
		c.Commits += x.Commits
		c.LogPagesReceived += x.LogPagesReceived
		c.DirtyPagesReceived += x.DirtyPagesReceived
		c.PagesServed += x.PagesServed
		c.DataReads += x.DataReads
		c.DataWrites += x.DataWrites
		c.LogRecordsApplied += x.LogRecordsApplied
		c.WPLInstalls += x.WPLInstalls
		c.WPLLogReloads += x.WPLLogReloads
		c.Checkpoints += x.Checkpoints
		c.CkptStallNs += x.CkptStallNs
		c.PoolHits += x.PoolHits
		c.PoolMisses += x.PoolMisses
		c.LatchContention += x.LatchContention
		c.LockWaits += x.LockWaits
		c.LogForces += x.LogForces
		c.LogPagesWritten += x.LogPagesWritten
		c.WALBytes += int64(st.srv.Log().End())
		g := st.srv.Log().GroupStats()
		c.GroupCommits += g.Commits
		c.GroupBatches += g.Batches
		c.GroupFlushesAvoided += g.FlushesAvoided
	}
	for _, cl := range clients {
		s := cl.Stats()
		c.Faults += s.Faults
		c.Updates += s.Updates
		c.PagesFetched += s.PagesFetched
		c.Evictions += s.Evictions
		c.RecbufSpills += s.RecbufSpills
		c.LogBytesShipped += s.LogBytesShipped
		c.DirtyPagesShipped += s.DirtyPagesShipped
		c.ClientPoolHits += cl.Pool().Hits()
		c.ClientPoolMisses += cl.Pool().Misses()
		if cl.conn != nil {
			c.BytesTx += cl.conn.tx
			c.BytesRx += cl.conn.rx
		}
	}
	return c
}

// sub returns a - b field by field.
func (a counts) sub(b counts) counts { return a.combine(b, -1) }

// add returns a + b field by field.
func (a counts) add(b counts) counts { return a.combine(b, 1) }

func (a counts) combine(b counts, sign int64) counts {
	var out counts
	va, vb, vo := reflect.ValueOf(a), reflect.ValueOf(b), reflect.ValueOf(&out).Elem()
	for i := 0; i < va.NumField(); i++ {
		vo.Field(i).SetInt(va.Field(i).Int() + sign*vb.Field(i).Int())
	}
	return out
}

// writtenBytes is what the engine wrote to stable media: WAL bytes appended
// plus data-volume page writes.
func (c counts) writtenBytes() int64 { return c.WALBytes + c.DataWrites*page.Size }
