package main

// The -shards arm: scale-out throughput across a sharded cluster, and the
// price of the two-phase commits that cross-shard transactions pay.
//
// For each cluster size (1, 2, ... doubling up to -shards N) the bench runs
// the private-page update workload twice: a "disjoint" mix in which every
// transaction touches a single shard — the partitioned-application ideal,
// where shards scale because they share nothing — and a "cross10" mix in
// which 10% of transactions update objects on two shards and therefore run
// the full presumed-abort 2PC (one forced PREPARE per participant plus the
// coordinator's forced DECIDE, instead of one forced commit record).
//
// Scaling is weak: the client count grows with the cluster (shardClients per
// shard), holding offered load per shard constant. That is the claim a
// partitioned store actually makes — N shards serve N times the clients at
// the one-shard rate — and it keeps per-shard group-commit batching
// comparable across sizes instead of thinning it as fixed clients spread
// out. The report keys on the disjoint scale-up over one shard (ideal: N)
// and the cross-shard tax (cross10 vs disjoint throughput at each size);
// the per-run prepare counters make the extra log forces visible rather
// than inferred.

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	quickstore "repro"
	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Shard-arm workload shape.
const (
	shardClients    = 4 // clients per shard (weak scaling)
	shardTxnsPerCli = 300
	shardCrossPct   = 10 // percent of cross-shard transactions in the "cross10" mix
)

// ShardRun is one cell: a cluster size and a transaction mix.
type ShardRun struct {
	Shards     int     `json:"shards"`
	Clients    int     `json:"clients"`
	Mix        string  `json:"mix"` // "disjoint" or "cross10"
	Txns       int64   `json:"txns"`
	Seconds    float64 `json:"seconds"`
	TxnsPerSec float64 `json:"txns_per_sec"`

	Commits   int64 `json:"commits"`    // across all shards
	LogForces int64 `json:"log_forces"` // across all shards
	Prepares  int64 `json:"twopc_prepares"`
	LockWaits int64 `json:"lock_waits"`
}

// ShardSummary distills the scale-out story at the largest cluster size.
type ShardSummary struct {
	Shards           int     `json:"shards"`
	BaselineTPS      float64 `json:"one_shard_tps"`
	DisjointTPS      float64 `json:"disjoint_tps"`
	Cross10TPS       float64 `json:"cross10_tps"`
	DisjointScaleup  float64 `json:"disjoint_scaleup"`
	CrossShardFactor float64 `json:"cross10_over_disjoint"`
	Cross10Prepares  int64   `json:"cross10_prepares"`
}

// ShardOutput is the whole BENCH_shard.json document.
type ShardOutput struct {
	Config struct {
		ClientsPerShard int    `json:"clients_per_shard"`
		TxnsPerCli      int    `json:"txns_per_client"`
		WriteDelay      string `json:"log_write_delay"`
		CrossPct        int    `json:"cross_shard_percent"`
		Scheme          string `json:"scheme"`
	} `json:"config"`
	Runs    []ShardRun   `json:"runs"`
	Summary ShardSummary `json:"summary"`
}

// runShardBench runs the grid up to maxShards and writes the report to out.
func runShardBench(out string, maxShards int, writeDelay time.Duration) {
	var doc ShardOutput
	doc.Config.ClientsPerShard = shardClients
	doc.Config.TxnsPerCli = shardTxnsPerCli
	doc.Config.WriteDelay = writeDelay.String()
	doc.Config.CrossPct = shardCrossPct
	doc.Config.Scheme = quickstore.PDESM.String()

	var sizes []int
	for s := 1; s <= maxShards; s *= 2 {
		sizes = append(sizes, s)
	}
	if last := sizes[len(sizes)-1]; last != maxShards {
		sizes = append(sizes, maxShards)
	}

	runs := map[[2]interface{}]ShardRun{}
	for _, size := range sizes {
		for _, mix := range []string{"disjoint", "cross10"} {
			if size == 1 && mix == "cross10" {
				continue // one shard has no cross-shard transactions
			}
			r := runShardCell(size, mix, writeDelay)
			doc.Runs = append(doc.Runs, r)
			runs[[2]interface{}{size, mix}] = r
			fmt.Fprintf(os.Stderr, "%d shards %-9s %8.0f txn/s  forces=%d/%d commits, prepares=%d\n",
				r.Shards, r.Mix, r.TxnsPerSec, r.LogForces, r.Commits, r.Prepares)
		}
	}

	max := sizes[len(sizes)-1]
	base := runs[[2]interface{}{1, "disjoint"}]
	dis := runs[[2]interface{}{max, "disjoint"}]
	cross := runs[[2]interface{}{max, "cross10"}]
	doc.Summary = ShardSummary{
		Shards:          max,
		BaselineTPS:     base.TxnsPerSec,
		DisjointTPS:     dis.TxnsPerSec,
		Cross10TPS:      cross.TxnsPerSec,
		Cross10Prepares: cross.Prepares,
	}
	if base.TxnsPerSec > 0 {
		doc.Summary.DisjointScaleup = dis.TxnsPerSec / base.TxnsPerSec
	}
	if dis.TxnsPerSec > 0 {
		doc.Summary.CrossShardFactor = cross.TxnsPerSec / dis.TxnsPerSec
	}

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatalf("benchcommit: %v", err)
	}
	enc = append(enc, '\n')
	if out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(out, enc, 0o644); err != nil {
		log.Fatalf("benchcommit: %v", err)
	}
	s := doc.Summary
	fmt.Printf("%d shards: disjoint scale-up %.2fx (%.0f -> %.0f txn/s), cross-shard mix at %.0f%% of disjoint (%d prepares)\n",
		s.Shards, s.DisjointScaleup, s.BaselineTPS, s.DisjointTPS, 100*s.CrossShardFactor, s.Cross10Prepares)
}

// runShardCell executes one cluster-size x mix cell on fresh in-memory
// shards, PD-ESM with group commit (the main grid's concurrent arm).
func runShardCell(size int, mix string, writeDelay time.Duration) ShardRun {
	srvs := make([]*server.Server, size)
	for s := 0; s < size; s++ {
		srvs[s] = server.New(server.Config{
			Mode:            server.ModeESM,
			Store:           benchStore(),
			LogCapacity:     wal.DefaultCapacity,
			CheckpointEvery: 1 << 30,
			ShardID:         s,
			ShardCount:      size,
			WPLInstallAsync: true,
		})
		defer srvs[s].Close()
		srvs[s].Log().SetWriteDelay(writeDelay)
	}

	// Weak scaling: shardClients workers per shard. One router per worker (a
	// client is single-threaded end to end), and one private object per
	// (worker, shard) so the only contended resources are the shards' log
	// devices.
	nclients := shardClients * size
	clis := make([]*client.Client, nclients)
	oids := make([][]quickstore.OID, nclients)
	for i := range clis {
		backends := make([]shard.Backend, size)
		for s := 0; s < size; s++ {
			backends[s] = wire.NewDirect(srvs[s], nil, nil)
		}
		cli, router := client.NewSharded(client.Config{
			Scheme:         client.PD,
			PoolPages:      1 << 20 / 8192 * 8, // 8 MB
			RecoveryBytes:  4 << 20,
			ShipDirtyPages: true,
		}, backends)
		clis[i] = cli
		tx, err := cli.Begin()
		if err != nil {
			log.Fatalf("benchcommit: shard setup begin: %v", err)
		}
		for s := 0; s < size; s++ {
			router.SetAllocShard(s)
			if _, err := tx.NewPage(); err != nil {
				log.Fatalf("benchcommit: shard setup page: %v", err)
			}
			oid, err := tx.Allocate(objectBytes)
			if err != nil {
				log.Fatalf("benchcommit: shard setup alloc: %v", err)
			}
			if err := tx.Write(oid, 0, make([]byte, objectBytes)); err != nil {
				log.Fatalf("benchcommit: shard setup write: %v", err)
			}
			oids[i] = append(oids[i], oid)
		}
		router.SetAllocShard(-1)
		if err := tx.Commit(); err != nil {
			log.Fatalf("benchcommit: shard setup commit: %v", err)
		}
	}

	var before ShardRun
	for _, srv := range srvs {
		st := srv.ExtendedStats()
		before.Commits += st.Commits
		before.LogForces += st.LogForces
		before.Prepares += st.TwoPCPrepares
		before.LockWaits += st.LockWaits
	}
	//qslint:allow determinism: throughput timer for the printed report; benchcommit measures real time by design
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, nclients)
	for i := 0; i < nclients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := make([]byte, objectBytes)
			for t := 0; t < shardTxnsPerCli; t++ {
				copy(buf, fmt.Sprintf("client %d txn %d", i, t))
				home := (t + i) % size // staggered so clients spread across shards
				cross := mix == "cross10" && size > 1 && t%(100/shardCrossPct) == 0
				tx, err := clis[i].Begin()
				if err == nil {
					err = tx.Write(oids[i][home], 0, buf)
					if err == nil && cross {
						err = tx.Write(oids[i][(home+1)%size], 0, buf)
					}
					if err == nil {
						err = tx.Commit()
					} else {
						tx.Abort()
					}
				}
				if err != nil {
					errs[i] = fmt.Errorf("client %d txn %d: %w", i, t, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	//qslint:allow determinism: throughput timer for the printed report; benchcommit measures real time by design
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			log.Fatalf("benchcommit: %d shards %s: %v", size, mix, err)
		}
	}

	r := ShardRun{
		Shards:     size,
		Clients:    nclients,
		Mix:        mix,
		Txns:       int64(nclients * shardTxnsPerCli),
		Seconds:    elapsed.Seconds(),
		TxnsPerSec: float64(nclients*shardTxnsPerCli) / elapsed.Seconds(),
	}
	for _, srv := range srvs {
		st := srv.ExtendedStats()
		r.Commits += st.Commits
		r.LogForces += st.LogForces
		r.Prepares += st.TwoPCPrepares
		r.LockWaits += st.LockWaits
	}
	r.Commits -= before.Commits
	r.LogForces -= before.LogForces
	r.Prepares -= before.Prepares
	r.LockWaits -= before.LockWaits
	return r
}
