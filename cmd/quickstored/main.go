// Command quickstored runs the storage server as a standalone daemon,
// serving QuickStore clients over TCP (see quickstore.Dial and cmd/qsctl).
//
//	quickstored -addr :7447 -mode esm -data /var/lib/quickstore/vol
//
// The recovery mode must match the scheme clients connect with: esm for
// PD-ESM/SD-ESM/SL-ESM, redo for PD-REDO, wpl for WPL.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/archive"
	"repro/internal/disk"
	"repro/internal/faultinject"
	"repro/internal/page"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
)

func main() {
	var (
		addr      = flag.String("addr", ":7447", "listen address")
		mode      = flag.String("mode", "esm", "recovery mode: esm|redo|wpl")
		data      = flag.String("data", "", "data volume file (empty = in-memory)")
		cacheMB   = flag.Int("cache", 36, "server buffer pool (MB)")
		logMB     = flag.Int("log", 256, "transaction log capacity (MB)")
		gcDelay   = flag.Duration("gcdelay", 0, "group-commit max batch delay (0 = batch without delay)")
		shards    = flag.Int("shards", 0, "buffer pool latch shards (0 = default)")
		shardID   = flag.Int("shard-id", 0, "this daemon's shard index in a multi-volume cluster (with -shard-count)")
		shardN    = flag.Int("shard-count", 1, "total shards in the cluster: page ids and transaction ids are allocated in this daemon's residue class, and cross-shard commits run two-phase (see qsctl 2pc-status)")
		wplSync   = flag.Bool("wpl-sync-install", false, "wpl: install committed pages inline at commit instead of in the background")
		archDir   = flag.String("archive-dir", "", "archive log segments and backups into this directory (empty = no archiving)")
		archInt   = flag.Duration("archive-every", 5*time.Second, "background archiver drain interval")
		cksum     = flag.Bool("checksum", true, "verify per-page checksum envelopes on every read (the volume must have been written with checksums)")
		scrubInt  = flag.Duration("scrub-every", 0, "background scrubber tick (0 = no scrubbing; requires -checksum)")
		scrubN    = flag.Int("scrub-pages", 0, "pages verified per scrubber tick (0 = default)")
		fuzzy     = flag.Bool("fuzzy-ckpt", false, "fuzzy checkpoints: log the dirty page table instead of flushing it (pair with -cleaner-every)")
		cleanInt  = flag.Duration("cleaner-every", 0, "background page cleaner tick (0 = no cleaner)")
		cleanN    = flag.Int("cleaner-batch", 0, "pages written per cleaner tick (0 = default)")
		dirtyTgt  = flag.Int("dirty-target", 0, "dirty-page count the cleaner drains toward; commits apply soft backpressure past 2x (0 = clean whenever dirty pages exist)")
		replShip  = flag.Bool("repl", false, "ship the WAL to a hot standby (serves repl-fetch; start the standby with -replica-of)")
		replAck   = flag.String("repl-ack", "async", "replication ack mode: async|semi-sync (semi-sync blocks each commit until the standby applied it, with a timeout)")
		replTO    = flag.Duration("repl-ack-timeout", 500*time.Millisecond, "semi-sync ack wait bound; a timeout degrades that commit to async")
		replicaOf = flag.String("replica-of", "", "run as a hot standby of the primary at this address: read-only until promoted (qsctl promote); with -archive-dir, cold-bootstrap from that archive copy first")
	)
	flag.Parse()

	var m server.Mode
	switch *mode {
	case "esm":
		m = server.ModeESM
	case "redo":
		m = server.ModeREDO
	case "wpl":
		m = server.ModeWPL
	default:
		fmt.Fprintf(os.Stderr, "quickstored: unknown mode %q\n", *mode)
		os.Exit(2)
	}

	if *fuzzy && m == server.ModeWPL {
		log.Printf("quickstored: note: WPL checkpoints never flush pages; -fuzzy-ckpt only changes the checkpoint record contents")
	}
	if *cleanInt > 0 && m == server.ModeWPL {
		log.Fatalf("quickstored: -cleaner-every is meaningless under WPL (uncommitted pages must never reach their home location)")
	}
	if *gcDelay < 0 {
		log.Fatalf("quickstored: -gcdelay %v is negative (group commit cannot be disabled; 0 batches without delay)", *gcDelay)
	}
	if *shardN < 1 || *shardID < 0 || *shardID >= *shardN {
		log.Fatalf("quickstored: -shard-id %d out of range for -shard-count %d", *shardID, *shardN)
	}
	cfg := server.Config{
		Mode:             m,
		ShardID:          *shardID,
		ShardCount:       *shardN,
		PoolPages:        *cacheMB << 20 / page.Size,
		LogCapacity:      *logMB << 20,
		PoolShards:       *shards,
		GroupCommitDelay: *gcDelay,
		WPLInstallAsync:  !*wplSync,
		FuzzyCheckpoints: *fuzzy,
		CleanerEvery:     *cleanInt,
		CleanerBatch:     *cleanN,
		DirtyPageTarget:  *dirtyTgt,
	}
	recover := false
	var vol disk.Store = disk.NewMemStore()
	if *data != "" {
		fs, err := disk.OpenFileStore(*data)
		if err != nil {
			log.Fatalf("quickstored: opening volume: %v", err)
		}
		recover = fs.Pages() > 0
		vol = fs
	}
	// The volume is always wrapped in the fault injector; it is transparent
	// until a plan is armed (qsctl faults arm <plan>). The checksum wrapper
	// sits above it, so injected rot and tears land below the integrity
	// envelope and are caught on the next read, exactly like media damage.
	faults := faultinject.NewStore(vol)
	cfg.Store = faults
	if *cksum {
		cfg.Store = disk.NewChecksummed(faults)
		cfg.ScrubEvery = *scrubInt
		cfg.ScrubPages = *scrubN
	} else if *scrubInt > 0 {
		log.Fatalf("quickstored: -scrub-every needs -checksum (nothing to verify without envelopes)")
	}
	if *replShip && *replicaOf != "" {
		log.Fatalf("quickstored: -repl and -replica-of are mutually exclusive (a standby does not ship onward)")
	}
	cfg.Log = wal.New(cfg.LogCapacity)
	var boot *archive.BootstrapResult
	if *replicaOf != "" {
		cfg.Standby = true
		if *archDir != "" {
			// Cold bootstrap: restore the newest backup plus archived log from
			// a copy of the primary's archive, skipping the restart pass
			// (ReplayLocal below applies the rebuilt log's effects instead).
			blobs, err := archive.OpenDir(*archDir)
			if err != nil {
				log.Fatalf("quickstored: opening archive: %v", err)
			}
			boot, err = archive.Bootstrap(blobs, archive.BootstrapOptions{
				NewStore: func() (disk.Store, error) { return cfg.Store, nil },
				LogSlack: cfg.LogCapacity,
			})
			if err != nil {
				log.Fatalf("quickstored: archive bootstrap: %v", err)
			}
			cfg.Log = boot.Log
			log.Printf("bootstrapped from backup at LSN %d (%d segments, %d records re-appended)",
				boot.Backup.End, boot.Segments, boot.Records)
		} else if recover {
			log.Fatalf("quickstored: a standby must start from an empty volume, or cold-bootstrap from an archive copy (-archive-dir)")
		}
	}
	var prim *repl.Primary
	if *replShip {
		ack := repl.AckAsync
		switch *replAck {
		case "async":
		case "semi-sync":
			ack = repl.AckSemiSync
		default:
			log.Fatalf("quickstored: unknown -repl-ack %q (async|semi-sync)", *replAck)
		}
		prim = repl.NewPrimary(cfg.Log, repl.PrimaryOptions{Mode: ack, AckTimeout: *replTO})
		prim.Wire(&cfg)
	}
	var arch *archive.Archiver
	if *archDir != "" && *replicaOf == "" {
		blobs, err := archive.OpenDir(*archDir)
		if err != nil {
			log.Fatalf("quickstored: opening archive: %v", err)
		}
		// The archiver scans cfg.Store, not the raw volume: with checksums on,
		// backups hold verified bytes and refuse to archive rot.
		arch, err = archive.NewArchiver(cfg.Log, cfg.Store, blobs, archive.Options{})
		if err != nil {
			log.Fatalf("quickstored: starting archiver: %v", err)
		}
		archive.Wire(&cfg, arch)
	}
	srv := server.New(cfg)
	if recover && *replicaOf == "" {
		if err := srv.NewSession(nil, nil).Restart(); err != nil {
			log.Fatalf("quickstored: recovery: %v", err)
		}
		log.Printf("recovered volume %s", *data)
	}
	var sb *repl.Standby
	if *replicaOf != "" {
		feed, err := wire.Dial(*replicaOf)
		if err != nil {
			log.Fatalf("quickstored: connecting to primary %s: %v", *replicaOf, err)
		}
		sb = repl.NewStandby(cfg.Log, srv.NewSession(nil, nil), feed.ReplFetch, repl.StandbyOptions{})
		if boot != nil {
			if err := sb.ReplayLocal(); err != nil {
				log.Fatalf("quickstored: bootstrap replay: %v", err)
			}
		}
		go func() {
			// Run ends nil after promotion (qsctl promote) or Stop; anything
			// else — a gap (re-bootstrap from a fresher archive copy) or a
			// diverged replica — is fatal by design.
			if err := sb.Run(); err != nil {
				log.Fatalf("quickstored: replication: %v", err)
			}
		}()
		log.Printf("hot standby following %s", *replicaOf)
	}
	// The periodic archiver goroutine is stopped (and joined) before the
	// final drain, so the two never race on the log cursor.
	archStop := make(chan struct{})
	archDone := make(chan struct{})
	if arch == nil {
		close(archDone)
	}
	if arch != nil {
		// The in-memory log restarts its LSN space every process start, so
		// each archiver generation begins with a base backup: everything a
		// restore needs from earlier generations is inside it.
		info, err := arch.Backup()
		if err != nil {
			log.Fatalf("quickstored: initial base backup: %v", err)
		}
		log.Printf("archiving to %s (generation %d, base backup of %d pages at LSN %d)",
			*archDir, arch.Generation(), info.Pages, info.End)
		go func() {
			defer close(archDone)
			t := time.NewTicker(*archInt)
			defer t.Stop()
			for {
				select {
				case <-archStop:
					return
				case <-t.C:
					if err := arch.Drain(); err != nil {
						log.Printf("archiver: %v", err)
					}
				}
			}
		}()
	}

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("quickstored: %v", err)
	}
	log.Printf("quickstored listening on %s (mode %v, cache %d MB, log %d MB)",
		lis.Addr(), m, *cacheMB, *logMB)
	if *shardN > 1 {
		log.Printf("shard %d of %d: allocating ids in residue class %d (mod %d)",
			*shardID, *shardN, *shardID+1, *shardN)
	}

	// Orderly shutdown: checkpoint so a file-backed volume reopens clean.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		if sb != nil {
			sb.Stop()
		}
		if srv.Standby() {
			// A standby owns no durability obligations: its volume rebuilds
			// from the primary's stream (or archive) on the next start.
			log.Printf("standby shutting down")
			lis.Close()
			os.Exit(0)
		}
		log.Printf("shutting down: checkpointing")
		srv.Close() // drain the WPL install worker before the final checkpoint
		sn := srv.NewSession(nil, nil)
		if *fuzzy {
			// A fuzzy checkpoint does not flush pages, and the in-memory log
			// dies with the process: write everything home so a file-backed
			// volume reopens clean (DESIGN.md §13).
			if err := sn.FlushAll(); err != nil {
				log.Printf("final flush failed: %v", err)
			}
		}
		if err := sn.Checkpoint(); err != nil {
			log.Printf("checkpoint failed: %v", err)
		}
		if arch != nil {
			close(archStop)
			<-archDone
			if err := arch.Drain(); err != nil {
				log.Printf("final archive drain failed: %v", err)
			}
		}
		st := srv.Stats()
		log.Printf("served %d commits, %d aborts, %d pages", st.Commits, st.Aborts, st.PagesServed)
		lis.Close()
		os.Exit(0)
	}()

	if err := wire.ServeWith(lis, srv, wire.ServeOpts{Faults: faults, Archive: arch, Repl: prim, Standby: sb}); err != nil {
		log.Fatalf("quickstored: %v", err)
	}
}
