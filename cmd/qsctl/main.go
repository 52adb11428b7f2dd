// Command qsctl pokes a running quickstored server: writes and reads test
// objects, measures round-trip latency, and exercises transactions from the
// command line.
//
//	qsctl -addr localhost:7447 put "some bytes"   # prints the new OID
//	qsctl -addr localhost:7447 get P7.0
//	qsctl -addr localhost:7447 -n 100 bench
//
// It also manages fault injection on the daemon's data volume (the server
// must be running; plans are deterministic per seed, so a failure seen under
// `faults arm chaos -seed 7` reproduces under the same seed):
//
//	qsctl faults list                 # built-in plan names
//	qsctl -seed 7 faults arm chaos    # arm a plan
//	qsctl faults disarm
//
// And it reports the daemon's server-side counters (group-commit batching,
// buffer-pool and latch behaviour, the last restart phase by phase):
//
//	qsctl stats            # human-readable counter summary
//	qsctl stats -json      # raw JSON (wire.DaemonStats)
//
// When the daemon archives its log (-archive-dir), qsctl also drives media
// recovery (see the README walkthrough):
//
//	qsctl backup                                  # fuzzy online backup, no quiesce
//	qsctl archive-status                          # archiver lag and backup positions
//	qsctl restore -archive-dir DIR -data VOL      # offline: rebuild a destroyed volume
//	qsctl restore -archive-dir DIR -data VOL -target 123456   # point-in-time
//
// When replication is on (quickstored -repl on the primary, -replica-of on
// the standby), qsctl shows shipping/apply lag and drives failover:
//
//	qsctl repl-status                 # role, ack mode, acked/applied LSNs, lag
//	qsctl -addr standby:7447 promote  # stop following, open for writes
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	quickstore "repro"
	"repro/internal/archive"
	"repro/internal/disk"
	"repro/internal/faultinject"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
)

func main() {
	var (
		addr   = flag.String("addr", "localhost:7447", "server address")
		scheme = flag.String("scheme", "pd-esm", "client scheme: pd-esm|sd-esm|sl-esm|pd-redo|wpl")
		n      = flag.Int("n", 100, "bench: transactions to run")
		seed   = flag.Int64("seed", 1, "faults arm: fault plan seed")
	)
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: qsctl [flags] put <data> | get <oid> | bench | stats [-json] | scrub [limit] | backup | archive-status | restore [flags] | repl-status | promote | 2pc-status [addr...] | faults arm <plan> | faults disarm | faults list")
		os.Exit(2)
	}
	if flag.Arg(0) == "faults" {
		if err := faultsCmd(*addr, *seed, flag.Args()[1:]); err != nil {
			fmt.Fprintf(os.Stderr, "qsctl: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if flag.Arg(0) == "stats" {
		if err := statsCmd(*addr, flag.Args()[1:]); err != nil {
			fmt.Fprintf(os.Stderr, "qsctl: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if flag.Arg(0) == "scrub" {
		if err := scrubCmd(*addr, flag.Args()[1:]); err != nil {
			fmt.Fprintf(os.Stderr, "qsctl: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if flag.Arg(0) == "backup" || flag.Arg(0) == "archive-status" {
		if err := archiveCmd(*addr, flag.Arg(0)); err != nil {
			fmt.Fprintf(os.Stderr, "qsctl: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if flag.Arg(0) == "restore" {
		if err := restoreCmd(flag.Args()[1:]); err != nil {
			fmt.Fprintf(os.Stderr, "qsctl: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if flag.Arg(0) == "2pc-status" {
		if err := twopcStatusCmd(*addr, flag.Args()[1:]); err != nil {
			fmt.Fprintf(os.Stderr, "qsctl: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if flag.Arg(0) == "repl-status" || flag.Arg(0) == "promote" {
		if err := replCmd(*addr, flag.Arg(0)); err != nil {
			fmt.Fprintf(os.Stderr, "qsctl: %v\n", err)
			os.Exit(1)
		}
		return
	}
	sc, ok := map[string]quickstore.Scheme{
		"pd-esm":  quickstore.PDESM,
		"sd-esm":  quickstore.SDESM,
		"sl-esm":  quickstore.SLESM,
		"pd-redo": quickstore.PDREDO,
		"wpl":     quickstore.WPL,
	}[*scheme]
	if !ok {
		fmt.Fprintf(os.Stderr, "qsctl: unknown scheme %q\n", *scheme)
		os.Exit(2)
	}
	store, err := quickstore.Dial(*addr, quickstore.Options{Scheme: sc})
	if err != nil {
		fmt.Fprintf(os.Stderr, "qsctl: %v\n", err)
		os.Exit(1)
	}
	defer store.Close()

	switch flag.Arg(0) {
	case "put":
		data := []byte(flag.Arg(1))
		var oid quickstore.OID
		err = store.Update(func(tx *quickstore.Tx) error {
			var err error
			oid, err = tx.Allocate(len(data))
			if err != nil {
				return err
			}
			return tx.Write(oid, 0, data)
		})
		if err == nil {
			fmt.Println(oid)
		}
	case "get":
		oid, perr := parseOID(flag.Arg(1))
		if perr != nil {
			err = perr
			break
		}
		err = store.View(func(tx *quickstore.Tx) error {
			data, err := tx.ReadObject(oid)
			if err != nil {
				return err
			}
			fmt.Printf("%s\n", data)
			return nil
		})
	case "bench":
		//qslint:allow determinism: interactive bench timer, printed to the operator and never replayed
		start := time.Now()
		done := 0
		for ; done < *n; done++ {
			err = store.Update(func(tx *quickstore.Tx) error {
				oid, err := tx.Allocate(64)
				if err != nil {
					return err
				}
				return tx.Write(oid, 0, []byte(fmt.Sprintf("bench %d", done)))
			})
			if err != nil {
				break
			}
		}
		//qslint:allow determinism: interactive bench timer, printed to the operator and never replayed
		elapsed := time.Since(start)
		fmt.Printf("%d txns in %v (%.0f txn/s)\n", done, elapsed.Round(time.Millisecond),
			float64(done)/elapsed.Seconds())
	default:
		err = fmt.Errorf("unknown command %q", flag.Arg(0))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "qsctl: %v\n", err)
		os.Exit(1)
	}
}

// faultsCmd manages the daemon's fault-injection plan over the management op.
func faultsCmd(addr string, seed int64, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: faults arm <plan> | faults disarm | faults list")
	}
	switch args[0] {
	case "list":
		for _, name := range faultinject.PlanNames() {
			fmt.Println(name)
		}
		return nil
	case "arm":
		if len(args) != 2 {
			return fmt.Errorf("usage: faults arm <plan> (one of %v)", faultinject.PlanNames())
		}
		cli, err := wire.Dial(addr)
		if err != nil {
			return err
		}
		defer cli.Close()
		name, err := cli.Faults(true, args[1], seed)
		if err != nil {
			return err
		}
		fmt.Printf("armed plan %q with seed %d\n", name, seed)
		return nil
	case "disarm":
		cli, err := wire.Dial(addr)
		if err != nil {
			return err
		}
		defer cli.Close()
		if _, err := cli.Faults(false, "", 0); err != nil {
			return err
		}
		fmt.Println("fault injection disarmed")
		return nil
	default:
		return fmt.Errorf("unknown faults subcommand %q", args[0])
	}
}

// statsCmd fetches and prints the daemon's extended counters.
func statsCmd(addr string, args []string) error {
	asJSON := len(args) == 1 && args[0] == "-json"
	if len(args) > 0 && !asJSON {
		return fmt.Errorf("usage: stats [-json]")
	}
	cli, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	defer cli.Close()
	x, err := cli.ServerStats()
	if err != nil {
		return err
	}
	if asJSON {
		out, err := json.MarshalIndent(x, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		return nil
	}
	gc := x.GroupCommit
	fmt.Printf("transactions     commits=%d aborts=%d checkpoints=%d restarts=%d\n",
		x.Commits, x.Aborts, x.Checkpoints, x.Restarts)
	fmt.Printf("log              forces=%d pages_written=%d records_applied=%d\n",
		x.LogForces, x.LogPagesWritten, x.LogRecordsApplied)
	fmt.Printf("group commit     commits=%d batches=%d flushes_avoided=%d",
		gc.Commits, gc.Batches, gc.FlushesAvoided)
	if gc.Batches > 0 {
		fmt.Printf(" mean_batch=%.2f", float64(gc.Commits)/float64(gc.Batches))
	}
	fmt.Println()
	fmt.Printf("  batch sizes    ")
	for i, n := range gc.BatchSizes {
		if n == 0 {
			continue
		}
		label := fmt.Sprintf("%d", i)
		if i == len(gc.BatchSizes)-1 {
			label += "+"
		}
		fmt.Printf("[%s]=%d ", label, n)
	}
	fmt.Println()
	fmt.Printf("buffer pool      hits=%d misses=%d latch_contention=%d\n",
		x.PoolHits, x.PoolMisses, x.LatchContention)
	fmt.Printf("lock manager     waits=%d\n", x.LockWaits)
	fmt.Printf("data disk        reads=%d writes=%d\n", x.DataReads, x.DataWrites)
	fmt.Printf("page cleaner     cleaner_pages=%d passes=%d hot_skips=%d dirty_pages=%d\n",
		x.CleanerPages, x.CleanerPasses, x.CleanerHotSkips, x.DirtyPages)
	fmt.Printf("checkpointing    redo_distance_bytes=%d ckpt_stall_ns=%d\n",
		x.RedoDistanceBytes, x.CkptStallNs)
	// What pins the log head is the lowest retention holder (DESIGN.md §2.2);
	// one at or past the stable end holds nothing back.
	ret := x.Retention
	pin := wal.Held{Name: "nothing", LSN: ret.StableEnd}
	for _, h := range ret.Holders {
		if h.LSN < pin.LSN {
			pin = h
		}
	}
	fmt.Printf("log retention    head=%d stable_end=%d pinned_by=%s (%d bytes behind)\n",
		ret.Head, ret.StableEnd, pin.Name, ret.StableEnd-pin.LSN)
	fmt.Printf("integrity        scanned=%d checksum_failures=%d repaired=%d unrepairable=%d\n",
		x.ScrubScanned, x.ChecksumFailures, x.PagesRepaired, x.PagesUnrepairable)
	if x.TwoPCPrepares > 0 || x.TwoPCResolutions > 0 || len(x.InDoubt) > 0 {
		fmt.Printf("two-phase commit prepares=%d presumed_aborts=%d resolutions=%d in_doubt=%d\n",
			x.TwoPCPrepares, x.TwoPCPresumedAborts, x.TwoPCResolutions, len(x.InDoubt))
	}
	if len(x.Ops) > 0 {
		// Sort the map-keyed section: identical stats must print identically
		// (scripts diff this output, and map iteration order is randomized).
		names := make([]string, 0, len(x.Ops))
		for name := range x.Ops {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Printf("wire ops         ")
		for _, name := range names {
			fmt.Printf("%s=%d ", name, x.Ops[name])
		}
		fmt.Println()
	}
	if r := x.Restart; x.Restarts > 0 {
		ms := func(ns int64) float64 { return float64(ns) / 1e6 }
		fmt.Printf("restart          verify=%.2fms pass=%.2fms undo=%.2fms checkpoint=%.2fms scanned=%d records/%dB redone=%d verified=%d pages losers=%d in_doubt=%d\n",
			ms(r.VerifyNs), ms(r.PassNs), ms(r.UndoNs), ms(r.CheckpointNs),
			r.RecordsScanned, r.BytesScanned, r.RecordsRedone, r.PagesVerified, r.Losers, r.InDoubt)
	}
	if a := x.Archive; a != nil {
		fmt.Printf("archiver         gen=%d segments=%d archived_to=%d lag=%dB (%d segments behind)\n",
			a.Generation, a.Segments, a.ArchivedUpTo, a.LagBytes, a.SegmentsBehind)
		fmt.Printf("  backups        count=%d last_backup_lsn=%d\n", a.Backups, a.LastBackupLSN)
	}
	if r := x.Repl; r != nil {
		fmt.Printf("replication      role=primary mode=%s connected=%v acked=%d stable=%d lag=%dB\n",
			r.Mode, r.Connected, r.AckedLSN, r.StableEnd, r.LagBytes)
		fmt.Printf("  shipping       fetches=%d ack_waits=%d ack_timeouts=%d\n",
			r.Fetches, r.AckWaits, r.AckTimeouts)
	}
	if s := x.Standby; s != nil {
		fmt.Printf("replication      role=standby applied=%d remote_stable=%d lag=%dB\n",
			s.AppliedLSN, s.RemoteStable, s.LagBytes)
		fmt.Printf("  applying       batches=%d records=%d reconnects=%d\n",
			s.Batches, s.Records, s.Reconnects)
	}
	return nil
}

// twopcStatusCmd prints every in-doubt transaction branch — prepared under
// two-phase commit, fate unknown until its coordinator answers — across the
// shard daemons named as arguments (default: just -addr). A branch listed
// here holds its locks; a persistently growing age means its coordinator
// shard is down and a resolution pass (shard.Router.Recover, run by any
// sharded client at startup) is overdue.
func twopcStatusCmd(addr string, args []string) error {
	addrs := args
	if len(addrs) == 0 {
		addrs = []string{addr}
	}
	total := 0
	for s, a := range addrs {
		cli, err := wire.Dial(a)
		if err != nil {
			return fmt.Errorf("shard %d (%s): %w", s, a, err)
		}
		x, err := cli.ServerStats()
		cli.Close()
		if err != nil {
			return fmt.Errorf("shard %d (%s): %w", s, a, err)
		}
		fmt.Printf("shard %d (%s)   prepares=%d presumed_aborts=%d resolutions=%d in_doubt=%d\n",
			s, a, x.TwoPCPrepares, x.TwoPCPresumedAborts, x.TwoPCResolutions, len(x.InDoubt))
		for _, idt := range x.InDoubt {
			fmt.Printf("  tid=%d coordinator=shard %d age=%v\n",
				idt.TID, idt.Coordinator, idt.Age.Round(time.Millisecond))
			total++
		}
	}
	if total == 0 {
		fmt.Println("no in-doubt transactions")
	}
	return nil
}

// replCmd serves the replication subcommands against a live daemon:
// repl-status prints shipping or apply lag depending on the daemon's role,
// and promote turns a hot standby into a writable primary (the point of the
// whole exercise — see DESIGN.md §14).
func replCmd(addr, cmd string) error {
	cli, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	defer cli.Close()
	switch cmd {
	case "promote":
		if err := cli.Promote(); err != nil {
			return err
		}
		fmt.Println("standby promoted: now accepting writes")
		return nil
	case "repl-status":
		x, err := cli.ServerStats()
		if err != nil {
			return err
		}
		switch {
		case x.Repl != nil:
			r := x.Repl
			fmt.Printf("role             primary (%s)\n", r.Mode)
			fmt.Printf("standby          connected=%v\n", r.Connected)
			fmt.Printf("shipped          cursor=%d acked=%d stable_end=%d\n", r.CursorLSN, r.AckedLSN, r.StableEnd)
			fmt.Printf("lag              %d bytes unacked\n", r.LagBytes)
			fmt.Printf("counters         fetches=%d ack_waits=%d ack_timeouts=%d\n",
				r.Fetches, r.AckWaits, r.AckTimeouts)
		case x.Standby != nil:
			s := x.Standby
			fmt.Printf("role             standby\n")
			fmt.Printf("applied          %d (primary stable end %d)\n", s.AppliedLSN, s.RemoteStable)
			fmt.Printf("lag              %d bytes behind the primary\n", s.LagBytes)
			fmt.Printf("counters         batches=%d records=%d reconnects=%d\n",
				s.Batches, s.Records, s.Reconnects)
		default:
			fmt.Println("replication not configured (start the primary with -repl, the standby with -replica-of)")
		}
		return nil
	}
	return fmt.Errorf("unknown repl command %q", cmd)
}

// scrubCmd asks the daemon to verify (and repair) stored pages now. With no
// argument the whole volume is scanned; with a numeric limit only the next
// batch from the daemon's scrub cursor.
func scrubCmd(addr string, args []string) error {
	limit := 0
	if len(args) == 1 {
		n, err := strconv.Atoi(args[0])
		if err != nil || n < 0 {
			return fmt.Errorf("usage: scrub [limit] (limit must be a non-negative integer)")
		}
		limit = n
	} else if len(args) > 1 {
		return fmt.Errorf("usage: scrub [limit]")
	}
	cli, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	defer cli.Close()
	report, err := cli.Scrub(limit)
	if err != nil {
		return err
	}
	fmt.Printf("scanned %d pages: %d checksum failures, %d repaired, %d unrepairable\n",
		report.Scanned, report.Failures, report.Repaired, report.Unrepairable)
	return nil
}

// archiveCmd serves the backup and archive-status subcommands against a live
// daemon.
func archiveCmd(addr, cmd string) error {
	cli, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	defer cli.Close()
	switch cmd {
	case "backup":
		info, err := cli.Backup()
		if err != nil {
			return err
		}
		fmt.Printf("backup %s: %d pages, redo from %d, fuzz window [%d, %d)\n",
			info.Name, info.Pages, info.RedoStart, info.Start, info.End)
		return nil
	case "archive-status":
		ds, err := cli.ServerStats()
		if err != nil {
			return err
		}
		st := ds.Archive
		if st == nil {
			return wire.ErrNoArchive
		}
		fmt.Printf("generation       %d\n", st.Generation)
		fmt.Printf("segments         %d (%d bytes archived)\n", st.Segments, st.SegmentBytes)
		fmt.Printf("archived up to   %d (stable end %d)\n", st.ArchivedUpTo, st.StableEnd)
		fmt.Printf("lag              %d bytes, %d segments behind\n", st.LagBytes, st.SegmentsBehind)
		fmt.Printf("backups          %d (last at LSN %d)\n", st.Backups, st.LastBackupLSN)
		return nil
	}
	return fmt.Errorf("unknown archive command %q", cmd)
}

// restoreCmd rebuilds a destroyed volume file from an archive directory. It
// runs offline (against the filesystem, not the daemon): media recovery is
// what happens when the server's volume is gone. The recovered pages are
// staged into <data>.tmp and renamed over <data> only after restart
// completes, so a crash mid-restore leaves a stale temp file and a cleanly
// re-runnable restore, never a half-written volume.
func restoreCmd(args []string) error {
	fs := flag.NewFlagSet("restore", flag.ContinueOnError)
	var (
		dir    = fs.String("archive-dir", "", "archive directory (required)")
		data   = fs.String("data", "", "destination volume file (required)")
		mode   = fs.String("mode", "esm", "recovery mode the server ran: esm|redo|wpl")
		target = fs.Uint64("target", 0, "point-in-time target LSN (0 = end of archive)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" || *data == "" {
		return fmt.Errorf("usage: restore -archive-dir DIR -data VOL [-mode esm|redo|wpl] [-target LSN]")
	}
	var m server.Mode
	switch *mode {
	case "esm":
		m = server.ModeESM
	case "redo":
		m = server.ModeREDO
	case "wpl":
		m = server.ModeWPL
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	blobs, err := archive.OpenDir(*dir)
	if err != nil {
		return err
	}
	tmp := *data + ".tmp"
	if err := os.Remove(tmp); err != nil && !os.IsNotExist(err) {
		return err // a stale temp volume from a crashed restore is discarded
	}
	res, err := archive.Restore(blobs, archive.RestoreOptions{
		Mode:      m,
		TargetLSN: *target,
		NewStore: func() (disk.Store, error) {
			return disk.OpenFileStore(tmp)
		},
		Finish: func(st disk.Store) error {
			if err := st.Close(); err != nil {
				return err
			}
			return os.Rename(tmp, *data)
		},
	})
	if err != nil {
		return err
	}
	fmt.Printf("restored %s from %s: replayed %d records in %d segments to LSN %d (backup %s)\n",
		*data, *dir, res.Records, res.Segments, res.CutLSN, res.Backup.Name)
	return nil
}

// parseOID parses the P<page>.<slot> form printed by OID.String.
func parseOID(s string) (quickstore.OID, error) {
	s = strings.TrimPrefix(s, "P")
	parts := strings.SplitN(s, ".", 2)
	if len(parts) != 2 {
		return quickstore.NilOID, fmt.Errorf("bad OID %q (want P<page>.<slot>)", s)
	}
	pg, err := strconv.ParseUint(parts[0], 10, 32)
	if err != nil {
		return quickstore.NilOID, err
	}
	slot, err := strconv.ParseUint(parts[1], 10, 16)
	if err != nil {
		return quickstore.NilOID, err
	}
	var oid quickstore.OID
	var b [8]byte
	// Build via the encoded form to avoid depending on internal field types.
	putOID(b[:], uint32(pg), uint16(slot))
	oid = quickstore.DecodeOID(b[:])
	return oid, nil
}

func putOID(b []byte, pg uint32, slot uint16) {
	b[0] = byte(pg)
	b[1] = byte(pg >> 8)
	b[2] = byte(pg >> 16)
	b[3] = byte(pg >> 24)
	b[4] = byte(slot)
	b[5] = byte(slot >> 8)
	b[6] = 0
	b[7] = 0
}
