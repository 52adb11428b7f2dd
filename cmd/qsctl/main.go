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
// buffer-pool and latch behaviour, what pins the log head, the last restart
// phase by phase): every field of wire.DaemonStats, one line per struct.
//
//	qsctl stats            # Field=value text, lines named by field path
//	qsctl stats -json      # raw JSON (wire.DaemonStats)
//
// When the daemon archives its log (-archive-dir), qsctl also drives media
// recovery (see the README walkthrough):
//
//	qsctl backup                                  # fuzzy online backup, no quiesce
//	qsctl archive-status                          # the Archive line of qsctl stats
//	qsctl restore -archive-dir DIR -data VOL      # offline: rebuild a destroyed volume
//	qsctl restore -archive-dir DIR -data VOL -target 123456   # point-in-time
//
// When replication is on (quickstored -repl on the primary, -replica-of on
// the standby), qsctl shows shipping/apply lag and drives failover:
//
//	qsctl repl-status                 # the Repl (primary) or Standby line of qsctl stats
//	qsctl -addr standby:7447 promote  # stop following, open for writes
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	quickstore "repro"
	"repro/internal/archive"
	"repro/internal/disk"
	"repro/internal/faultinject"
	"repro/internal/server"
	"repro/internal/wire"
)

// globals are qsctl's flags before the command name.
type globals struct {
	addr, scheme string
	n            int
	seed         int64
}

// commands is qsctl's command table: each entry runs with the arguments
// after its name.
var commands = map[string]func(g globals, args []string) error{
	"put":            withStore(putCmd),
	"get":            withStore(getCmd),
	"bench":          withStore(benchCmd),
	"stats":          statsCmd,
	"scrub":          scrubCmd,
	"backup":         backupCmd,
	"archive-status": sectionCmd(func() error { return wire.ErrNoArchive }, "Archive"),
	"restore":        restoreCmd,
	"repl-status": sectionCmd(func() error {
		fmt.Println("replication not configured (start the primary with -repl, the standby with -replica-of)")
		return nil
	}, "Repl", "Standby"),
	"promote":    promoteCmd,
	"2pc-status": twopcStatusCmd,
	"faults":     faultsCmd,
}

func main() {
	var g globals
	flag.StringVar(&g.addr, "addr", "localhost:7447", "server address")
	flag.StringVar(&g.scheme, "scheme", "pd-esm", "client scheme: pd-esm|sd-esm|sl-esm|pd-redo|wpl")
	flag.IntVar(&g.n, "n", 100, "bench: transactions to run")
	flag.Int64Var(&g.seed, "seed", 1, "faults arm: fault plan seed")
	flag.Parse()
	cmd, ok := commands[flag.Arg(0)]
	if !ok {
		fmt.Fprintln(os.Stderr, "usage: qsctl [flags] put <data> | get <oid> | bench | stats [-json] | scrub [limit] | backup | archive-status | restore [flags] | repl-status | promote | 2pc-status [addr...] | faults arm <plan> | faults disarm | faults list")
		os.Exit(2)
	}
	if err := cmd(g, flag.Args()[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "qsctl: %v\n", err)
		os.Exit(1)
	}
}

// withStore runs fn on a store dialled with the -scheme flag.
func withStore(fn func(g globals, store *quickstore.Store, args []string) error) func(globals, []string) error {
	return func(g globals, args []string) error {
		sc, ok := map[string]quickstore.Scheme{
			"pd-esm":  quickstore.PDESM,
			"sd-esm":  quickstore.SDESM,
			"sl-esm":  quickstore.SLESM,
			"pd-redo": quickstore.PDREDO,
			"wpl":     quickstore.WPL,
		}[g.scheme]
		if !ok {
			return fmt.Errorf("unknown scheme %q", g.scheme)
		}
		store, err := quickstore.Dial(g.addr, quickstore.Options{Scheme: sc})
		if err != nil {
			return err
		}
		defer store.Close()
		return fn(g, store, args)
	}
}

// withClient runs fn on a management connection to the daemon.
func withClient(addr string, fn func(cli *wire.TCPClient) error) error {
	cli, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	defer cli.Close()
	return fn(cli)
}

func putCmd(_ globals, store *quickstore.Store, args []string) error {
	data := []byte(strings.Join(args, " "))
	var oid quickstore.OID
	err := store.Update(func(tx *quickstore.Tx) error {
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
	return err
}

func getCmd(_ globals, store *quickstore.Store, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: get <oid>")
	}
	oid, err := parseOID(args[0])
	if err != nil {
		return err
	}
	return store.View(func(tx *quickstore.Tx) error {
		data, err := tx.ReadObject(oid)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", data)
		return nil
	})
}

func benchCmd(g globals, store *quickstore.Store, _ []string) error {
	//qslint:allow determinism: interactive bench timer, printed to the operator and never replayed
	start := time.Now()
	done := 0
	var err error
	for ; done < g.n; done++ {
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
	return err
}

// faultsCmd manages the daemon's fault-injection plan over the management op.
func faultsCmd(g globals, args []string) error {
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
		return withClient(g.addr, func(cli *wire.TCPClient) error {
			name, err := cli.Faults(true, args[1], g.seed)
			if err == nil {
				fmt.Printf("armed plan %q with seed %d\n", name, g.seed)
			}
			return err
		})
	case "disarm":
		return withClient(g.addr, func(cli *wire.TCPClient) error {
			_, err := cli.Faults(false, "", 0)
			if err == nil {
				fmt.Println("fault injection disarmed")
			}
			return err
		})
	default:
		return fmt.Errorf("unknown faults subcommand %q", args[0])
	}
}

// fetchStats reads the daemon's stats document over the management op.
func fetchStats(addr string) (ds wire.DaemonStats, err error) {
	err = withClient(addr, func(cli *wire.TCPClient) error {
		ds, err = cli.ServerStats()
		return err
	})
	return ds, err
}

// statsCmd prints the daemon's whole stats document: as text through
// render, or as the JSON the daemon sent.
func statsCmd(g globals, args []string) error {
	asJSON := len(args) == 1 && args[0] == "-json"
	if len(args) > 0 && !asJSON {
		return fmt.Errorf("usage: stats [-json]")
	}
	ds, err := fetchStats(g.addr)
	if err != nil {
		return err
	}
	if !asJSON {
		render(os.Stdout, ds)
		return nil
	}
	out, err := json.MarshalIndent(ds, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// sectionCmd prints the named sections of the daemon's stats document, or
// runs absent when the daemon has none of them.
func sectionCmd(absent func() error, sections ...string) func(globals, []string) error {
	return func(g globals, _ []string) error {
		ds, err := fetchStats(g.addr)
		if err != nil {
			return err
		}
		if render(os.Stdout, ds, sections...) == 0 {
			return absent()
		}
		return nil
	}
}

// twopcStatusCmd prints every in-doubt transaction branch — prepared under
// two-phase commit, fate unknown until its coordinator answers — across the
// shard daemons named as arguments (default: just -addr). A branch listed
// here holds its locks; a persistently growing age means its coordinator
// shard is down and a resolution pass (shard.Router.Recover, run by any
// sharded client at startup) is overdue.
func twopcStatusCmd(g globals, args []string) error {
	addrs := args
	if len(addrs) == 0 {
		addrs = []string{g.addr}
	}
	total := 0
	for s, a := range addrs {
		x, err := fetchStats(a)
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

// promoteCmd turns a hot standby into a writable primary (the point of the
// whole exercise — see DESIGN.md §14).
func promoteCmd(g globals, _ []string) error {
	return withClient(g.addr, func(cli *wire.TCPClient) error {
		if err := cli.Promote(); err != nil {
			return err
		}
		fmt.Println("standby promoted: now accepting writes")
		return nil
	})
}

// scrubCmd asks the daemon to verify (and repair) stored pages now. With no
// argument the whole volume is scanned; with a numeric limit only the next
// batch from the daemon's scrub cursor.
func scrubCmd(g globals, args []string) error {
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
	return withClient(g.addr, func(cli *wire.TCPClient) error {
		report, err := cli.Scrub(limit)
		if err != nil {
			return err
		}
		fmt.Printf("scanned %d pages: %d checksum failures, %d repaired, %d unrepairable\n",
			report.Scanned, report.Failures, report.Repaired, report.Unrepairable)
		return nil
	})
}

// backupCmd asks the daemon for a fuzzy online backup.
func backupCmd(g globals, _ []string) error {
	return withClient(g.addr, func(cli *wire.TCPClient) error {
		info, err := cli.Backup()
		if err != nil {
			return err
		}
		fmt.Printf("backup %s: %d pages, redo from %d, fuzz window [%d, %d)\n",
			info.Name, info.Pages, info.RedoStart, info.Start, info.End)
		return nil
	})
}

// restoreCmd rebuilds a destroyed volume file from an archive directory. It
// runs offline (against the filesystem, not the daemon): media recovery is
// what happens when the server's volume is gone. The recovered pages are
// staged into <data>.tmp and renamed over <data> only after restart
// completes, so a crash mid-restore leaves a stale temp file and a cleanly
// re-runnable restore, never a half-written volume. The volume is written
// with checksum envelopes, the format quickstored reads.
func restoreCmd(_ globals, args []string) error {
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
	m, err := server.ParseMode(*mode)
	if err != nil {
		return err
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
			fs, err := disk.OpenFileStore(tmp)
			if err != nil {
				return nil, err
			}
			return disk.NewChecksummed(fs), nil
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
	fmt.Printf("restored %s from %s: replayed log [%d, %d) in %d segments (backup %s)\n",
		*data, *dir, res.Backup.RedoStart, res.CutLSN, res.Segments, res.Backup.Name)
	return nil
}

// parseOID parses the P<page>.<slot> form printed by OID.String.
func parseOID(s string) (quickstore.OID, error) {
	var oid quickstore.OID
	if _, err := fmt.Sscanf(strings.TrimPrefix(s, "P"), "%d.%d", &oid.Page, &oid.Slot); err != nil {
		return quickstore.NilOID, fmt.Errorf("bad OID %q (want P<page>.<slot>): %w", s, err)
	}
	return oid, nil
}
