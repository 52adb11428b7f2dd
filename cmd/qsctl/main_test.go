package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/archive"
	"repro/internal/client"
	"repro/internal/disk"
	"repro/internal/page"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
)

// fill sets every exported leaf under v to a distinct non-zero value —
// allocating pointers, one map entry, one element per slice (two for the
// retention holders) — and returns each leaf as the Field=value token a
// render must print.
func fill(t *testing.T, v reflect.Value, name string, next *int) []string {
	*next++
	n := *next
	switch v.Kind() {
	case reflect.Struct:
		var want []string
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				want = append(want, fill(t, v.Field(i), f.Name, next)...)
			}
		}
		return want
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		return fill(t, v.Elem(), name, next)
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		fill(t, k, "", next)
		fill(t, e, "", next)
		v.SetMapIndex(k, e)
		return []string{fmt.Sprintf("%v=%v", k, e)}
	case reflect.Slice:
		elems := 1
		if name == "Holders" {
			elems = 2
		}
		v.Set(reflect.MakeSlice(v.Type(), elems, elems))
		fallthrough
	case reflect.Array:
		var want []string
		for i := 0; i < v.Len(); i++ {
			want = append(want, fill(t, v.Index(i), name, next)...)
		}
		if v.Type().Elem().Kind() == reflect.Struct {
			return want
		}
		return []string{fmt.Sprintf("%s=%v", name, v)}
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(n))
	default:
		t.Fatalf("fill: %s has kind %s: teach fill and render about it", name, v.Kind())
	}
	return []string{fmt.Sprintf("%s=%v", name, v)}
}

// TestRenderPrintsEveryLeaf: a stats document with every leaf set prints
// every leaf, on lines named by field path, the same way twice — so a
// counter added to any struct of wire.DaemonStats reaches qsctl stats with
// no edit here or in render.
func TestRenderPrintsEveryLeaf(t *testing.T) {
	var ds wire.DaemonStats
	next := 0
	want := fill(t, reflect.ValueOf(&ds).Elem(), "", &next)
	if len(ds.Retention.Holders) != 2 || len(ds.InDoubt) != 1 || len(ds.Ops) != 1 || ds.Archive == nil || ds.Repl == nil || ds.Standby == nil {
		t.Fatalf("fill left a section empty: %+v", ds)
	}
	var out, again bytes.Buffer
	lines := render(&out, ds)
	render(&again, ds)
	if !bytes.Equal(out.Bytes(), again.Bytes()) {
		t.Fatalf("two renders differ:\n%s\n%s", out.String(), again.String())
	}
	text := out.String()
	// Tokens are space-separated; pad so each one, arrays included, is
	// matched whole (Commits=1 must not match Commits=17).
	padded := " " + strings.ReplaceAll(text, "\n", " \n ") + " "
	for _, w := range want {
		if !strings.Contains(padded, " "+w+" ") {
			t.Errorf("render lacks %q", w)
		}
	}
	labels := map[string]bool{}
	for _, l := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		labels[strings.Fields(l)[0]] = true
	}
	for _, l := range []string{"DaemonStats", "GroupCommit", "Restart", "Retention",
		"Retention.Holders[0]", "Retention.Holders[1]", "Archive", "Repl", "Standby", "Ops", "InDoubt[0]"} {
		if !labels[l] {
			t.Errorf("no %s line", l)
		}
	}
	if lines != len(labels) {
		t.Errorf("render reported %d lines, printed %d", lines, len(labels))
	}
	if t.Failed() {
		t.Logf("render:\n%s", text)
	}
}

// TestRenderSections: repl-status and archive-status are render restricted
// to their sections; a daemon without the section prints nothing.
func TestRenderSections(t *testing.T) {
	var ds wire.DaemonStats
	next := 0
	fill(t, reflect.ValueOf(&ds).Elem(), "", &next)
	var out bytes.Buffer
	if n := render(&out, ds, "Archive"); n != 1 || !strings.HasPrefix(out.String(), "Archive ") {
		t.Fatalf("Archive section: %d lines\n%s", n, out.String())
	}
	out.Reset()
	if n := render(&out, ds, "Repl", "Standby"); n != 2 {
		t.Fatalf("repl sections: %d lines\n%s", n, out.String())
	}
	ds.Archive, ds.Repl, ds.Standby = nil, nil, nil
	out.Reset()
	if n := render(&out, ds, "Archive", "Repl", "Standby"); n != 0 || out.Len() != 0 {
		t.Fatalf("absent sections printed %d lines:\n%s", n, out.String())
	}
}

// TestRestoredVolumeOpensChecksummed: qsctl restore writes the volume
// format quickstored reads — checksum envelopes on every page — so a
// restored file restarts under disk.NewChecksummed and every committed
// object reads back.
func TestRestoredVolumeOpensChecksummed(t *testing.T) {
	dir := t.TempDir()
	blobs, err := archive.OpenDir(filepath.Join(dir, "archive"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := server.Config{
		Mode:      server.ModeESM,
		Store:     disk.NewChecksummed(disk.NewMemStore()),
		Log:       wal.New(4 << 20),
		PoolPages: 256,
	}
	arch, err := archive.NewArchiver(cfg.Log, cfg.Store, blobs, archive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	archive.Wire(&cfg, arch)
	srv := server.New(cfg)
	defer srv.Close()
	cli := client.New(client.Config{Scheme: client.PD, ShipDirtyPages: true}, wire.NewDirect(srv, nil, nil))
	objs := map[page.OID]string{}
	commit := func(i int) {
		t.Helper()
		tx, err := cli.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.NewPage(); err != nil {
			t.Fatal(err)
		}
		data := fmt.Sprintf("object %d", i)
		oid, err := tx.Allocate(len(data))
		if err == nil {
			err = tx.Write(oid, 0, []byte(data))
		}
		if err == nil {
			err = tx.Commit()
		}
		if err != nil {
			t.Fatal(err)
		}
		objs[oid] = data
	}
	commit(1)
	if _, err := arch.Backup(); err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 4; i++ {
		commit(i)
	}
	if err := arch.Drain(); err != nil {
		t.Fatal(err)
	}

	vol := filepath.Join(dir, "restored.vol")
	if err := restoreCmd(globals{}, []string{"-archive-dir", filepath.Join(dir, "archive"), "-data", vol, "-mode", "esm"}); err != nil {
		t.Fatal(err)
	}
	fs, err := disk.OpenFileStore(vol)
	if err != nil {
		t.Fatal(err)
	}
	st := disk.NewChecksummed(fs)
	defer st.Close()
	srv2 := server.New(server.Config{Mode: server.ModeESM, Store: st, LogCapacity: 4 << 20, PoolPages: 256})
	defer srv2.Close()
	if err := srv2.NewSession(nil, nil).Restart(); err != nil {
		t.Fatalf("restart on the restored volume: %v", err)
	}
	cli2 := client.New(client.Config{Scheme: client.PD, ShipDirtyPages: true}, wire.NewDirect(srv2, nil, nil))
	tx, err := cli2.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	for oid, data := range objs {
		got, err := tx.ReadObject(oid)
		if err != nil || string(got) != data {
			t.Errorf("%v: %q, %v; want %q", oid, got, err, data)
		}
	}
}

// TestParseOID: get accepts what put prints, with or without the P.
func TestParseOID(t *testing.T) {
	for in, want := range map[string]page.OID{"P7.0": {Page: 7}, "P12.3": {Page: 12, Slot: 3}, "4.1": {Page: 4, Slot: 1}} {
		if got, err := parseOID(in); err != nil || got != want {
			t.Errorf("parseOID(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "P", "Px.1", "P1"} {
		if _, err := parseOID(in); err == nil {
			t.Errorf("parseOID(%q) accepted", in)
		}
	}
}
