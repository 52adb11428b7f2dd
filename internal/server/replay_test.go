package server

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/lock"
	"repro/internal/logrec"
	"repro/internal/page"
)

// TestReplayTable drives the applier over every record type × the pageLSN
// relations × geometry faults. A skipped or rejected record must leave the
// image untouched; an applied one must change exactly its byte range plus
// the LSN stamp.
func TestReplayTable(t *testing.T) {
	const recLSN = 50_000
	after := bytes.Repeat([]byte{0xAB}, 40)
	full := bytes.Repeat([]byte{0xCD}, page.Size)
	rec := func(typ logrec.Type, off, nBefore int, a []byte) *logrec.Record {
		return &logrec.Record{LSN: recLSN, TID: 7, Type: typ, Page: 3, Off: uint16(off),
			Before: make([]byte, nBefore), After: a}
	}
	good := map[string]*logrec.Record{
		"update":             rec(logrec.TypeUpdate, 600, 40, after),
		"clr":                rec(logrec.TypeCLR, 600, 0, after),
		"pageimage":          rec(logrec.TypePageImage, 0, 0, full),
		"update-at-page-end": rec(logrec.TypeUpdate, page.Size-40, 40, after),
	}
	pageLSNs := []struct {
		name    string
		lsn     uint64
		applied bool
	}{
		{"zero", 0, true}, // freshly formatted page: holds nothing, so everything lands
		{"below", recLSN - 1, true},
		{"equal", recLSN, false},
		{"above", recLSN + 1, false},
	}
	for name, r := range good {
		for _, pl := range pageLSNs {
			img := make([]byte, page.Size)
			page.Wrap(img).Init(3)
			page.Wrap(img).SetLSN(pl.lsn)
			orig := append([]byte(nil), img...)
			applied, err := replay(img, r)
			if err != nil {
				t.Fatalf("%s/pageLSN %s: %v", name, pl.name, err)
			}
			if applied != pl.applied {
				t.Fatalf("%s/pageLSN %s: applied=%v, want %v", name, pl.name, applied, pl.applied)
			}
			if !applied {
				if !bytes.Equal(img, orig) {
					t.Fatalf("%s/pageLSN %s: skipped record changed the image", name, pl.name)
				}
				continue
			}
			want := orig
			off := int(r.Off)
			if r.Type == logrec.TypePageImage {
				off = 0
			}
			copy(want[off:], r.After)
			page.Wrap(want).SetLSN(recLSN)
			if !bytes.Equal(img, want) {
				t.Fatalf("%s/pageLSN %s: image is not orig + after-image + LSN stamp", name, pl.name)
			}
		}
	}

	bad := map[string]*logrec.Record{
		"update past page end":    rec(logrec.TypeUpdate, page.Size-39, 40, after),
		"update at max offset":    rec(logrec.TypeUpdate, 0xFFFF, 40, after),
		"clr past page end":       rec(logrec.TypeCLR, page.Size-39, 0, after),
		"update image mismatch":   rec(logrec.TypeUpdate, 600, 39, after),
		"short page image":        rec(logrec.TypePageImage, 0, 0, full[:page.Size-1]),
		"long page image":         rec(logrec.TypePageImage, 0, 0, append(full, 0)),
		"commit is not redo-able": rec(logrec.TypeCommit, 0, 0, nil),
		"checkpoint":              rec(logrec.TypeCheckpoint, 0, 0, after),
	}
	for name, r := range bad {
		img := make([]byte, page.Size)
		orig := append([]byte(nil), img...)
		if applied, err := replay(img, r); err == nil || applied {
			t.Fatalf("%s: applied=%v err=%v, want an error", name, applied, err)
		}
		if !bytes.Equal(img, orig) {
			t.Fatalf("%s: rejected record changed the image", name)
		}
	}
	if _, err := replay(make([]byte, page.Size-1), good["update"]); err == nil {
		t.Fatal("replay onto a short image succeeded")
	}
}

// FuzzReplay applies arbitrary decoded records to a page image embedded
// between guard bytes: no panic, no write outside the image, and a second
// apply of the same record is a no-op.
func FuzzReplay(f *testing.F) {
	f.Add(logrec.NewUpdate(1, 2, 100, make([]byte, 8), []byte("12345678")).Encode(nil), uint64(9000), uint64(0))
	f.Add(logrec.NewPageImage(1, 2, make([]byte, page.Size)).Encode(nil), uint64(9000), uint64(9000))
	oob := logrec.NewUpdate(1, 2, 0, make([]byte, 64), make([]byte, 64))
	oob.Off = page.Size - 8
	f.Add(oob.Encode(nil), uint64(9000), uint64(1))
	f.Add((&logrec.Record{Type: logrec.TypeCLR, Off: 0xFFFF, After: []byte{1}}).Encode(nil), uint64(1), uint64(0))
	f.Fuzz(func(t *testing.T, enc []byte, lsn, pageLSN uint64) {
		r, _, err := logrec.Decode(enc)
		if err != nil {
			return
		}
		r.LSN = lsn
		const guard = 64
		buf := bytes.Repeat([]byte{0x5A}, guard+page.Size+guard)
		img := buf[guard : guard+page.Size : guard+page.Size]
		for i := range img {
			img[i] = 0
		}
		page.Wrap(img).SetLSN(pageLSN)
		applied, err := replay(img, r)
		if err != nil && applied {
			t.Fatal("applied with an error")
		}
		for i, b := range buf {
			if (i < guard || i >= guard+page.Size) && b != 0x5A {
				t.Fatalf("replay wrote outside the image at %d", i-guard)
			}
		}
		once := append([]byte(nil), img...)
		again, err2 := replay(img, r)
		if (err == nil) != (err2 == nil) {
			t.Fatalf("re-apply changed the verdict: %v then %v", err, err2)
		}
		// An applied record stamped its LSN, so the re-apply must skip.
		if again {
			t.Fatal("re-apply was not skipped")
		}
		if !bytes.Equal(img, once) {
			t.Fatal("re-apply changed the image")
		}
	})
}

// TestDecodeCkpt round-trips the checkpoint layout, with and without a 2PC
// trailer's worth of entries, and rejects everything else — the legacy
// (magic-less) layout included — with an error, never a panic.
func TestDecodeCkpt(t *testing.T) {
	single := ckptPayload{
		nextPage: 41, nextTID: 9, beginLSN: 123_456,
		txns: []ckptTxn{{tid: 3, lastLSN: 900, firstLSN: 800}, {tid: 5, lastLSN: logrec.NoLSN, firstLSN: logrec.NoLSN}},
		wpl:  []ckptWPL{{pid: 7, lsn: 850, tid: 3, committed: true}, {pid: 8, lsn: 860, tid: 5}},
		dpt:  []ckptDPT{{pid: 7, rec: 810}},
	}
	sharded := single
	sharded.prepared = []ckptPrepared{{tid: 3, prepLSN: 890, coord: 1, parts: []int{0, 1, 2}}, {tid: 5, prepLSN: 895, coord: 0}}
	sharded.decided = []ckptDecided{{tid: 11, lsn: 700, parts: []int{0, 1}}}
	for name, c := range map[string]ckptPayload{"single": single, "sharded": sharded, "empty": {nextPage: 1, nextTID: 1, beginLSN: 8192}} {
		enc := c.encode()
		got, err := decodeCkpt(enc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got.encode(), enc) {
			t.Fatalf("%s: decode→encode is not the identity", name)
		}
		if got.beginLSN != c.beginLSN || len(got.txns) != len(c.txns) || len(got.prepared) != len(c.prepared) || len(got.decided) != len(c.decided) {
			t.Fatalf("%s: decoded %+v", name, got)
		}
		// Every proper prefix, and any over-long payload, is malformed.
		for n := 0; n < len(enc); n++ {
			if _, err := decodeCkpt(enc[:n]); err == nil {
				t.Fatalf("%s: %d-byte prefix of a %d-byte payload decoded", name, n, len(enc))
			}
		}
		for _, extra := range []int{1, 8, 24} {
			if _, err := decodeCkpt(append(append([]byte(nil), enc...), make([]byte, extra)...)); err == nil {
				t.Fatalf("%s: payload with %d trailing bytes decoded", name, extra)
			}
		}
	}
	if !bytes.Equal(single.encode()[:8], sharded.encode()[:8]) {
		t.Fatal("the 2PC trailer selected a second layout")
	}

	put := func(words ...uint64) []byte {
		var b []byte
		for _, w := range words {
			b = append(b, byte(w), byte(w>>8), byte(w>>16), byte(w>>24), byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
		}
		return b
	}
	bad := map[string][]byte{
		// The pre-DPT layout: nextPage, nextTID, nt, nw, then the entries.
		"legacy layout":      put(41, 9, 1, 0, 3, 900, 800),
		"legacy, padded":     put(41, 9, 0, 0, 0, 0, 0, 0),
		"unknown magic":      put(0x5153434B50543039, 41, 9, 8192, 0, 0, 0, 0, 0),
		"count overflow":     put(ckptMagic, 41, 9, 8192, 1<<61, 0, 0, 0, 0),
		"count beyond body":  put(ckptMagic, 41, 9, 8192, 2, 0, 0, 3, 900, 800, 0, 0),
		"trailer missing":    put(ckptMagic, 41, 9, 8192, 0, 0, 0),
		"trailer half there": put(ckptMagic, 41, 9, 8192, 0, 0, 0, 0),
		"trailer overrun":    put(ckptMagic, 41, 9, 8192, 0, 0, 0, 1, 3, 890, 1, 99),
		"trailer count big":  put(ckptMagic, 41, 9, 8192, 0, 0, 0, 0, 1<<61),
	}
	for name, b := range bad {
		if _, err := decodeCkpt(b); err == nil {
			t.Fatalf("%s decoded", name)
		}
	}
}

// analysisServer is a WPL server over a store that can refuse one page's
// writes, so an install can be deferred on demand.
func analysisServer() (*Server, *Session, *failingStore) {
	store := &failingStore{Store: disk.NewMemStore()}
	s := New(Config{Mode: ModeWPL, Store: store, PoolPages: 16, LogCapacity: 16 << 20,
		LockTimeout: time.Second, CheckpointEvery: 1 << 30})
	return s, s.NewSession(nil, nil), store
}

// shipCopy opens a transaction that ships a copy of pid with val in slot,
// and leaves it open.
func shipCopy(t *testing.T, sn *Session, pid page.ID, slot int, val string) logrec.TID {
	t.Helper()
	tid := sn.Begin()
	data, err := readPage(sn, tid, pid, lock.Exclusive)
	if err != nil {
		t.Fatal(err)
	}
	page.Wrap(data).WriteAt(slot, 0, []byte(val))
	if err := sn.ShipPage(tid, pid, data); err != nil {
		t.Fatal(err)
	}
	return tid
}

// chainOf flattens pid's chain in a WPL table, newest first.
func chainOf(wpl map[page.ID]*wplEntry, pid page.ID) []wplEntry {
	var out []wplEntry
	for e := wpl[pid]; e != nil; e = e.prev {
		c := *e
		c.prev, c.commitEnd = nil, 0
		out = append(out, c)
	}
	return out
}

// TestWPLAnalysisAcrossCheckpoint pins restart analysis where the checkpoint
// and the scan window have to meet: a WPL transaction, or an uninstalled
// committed copy, that is open across a checkpoint. Each case runs under
// Checkpoint and fuzzyCheckpoint, and every verdict is read again after a
// second crash and restart — the first restart's closing checkpoint must
// carry it.
func TestWPLAnalysisAcrossCheckpoint(t *testing.T) {
	type env struct {
		t     *testing.T
		s     *Server
		sn    *Session
		store *failingStore
		pid   page.ID
		slot  int
		fuzzy bool
	}
	recoverAnd := func(e *env, check func(when string)) {
		e.t.Helper()
		for _, when := range []string{"first restart", "second restart"} {
			e.s.Crash()
			if err := e.sn.Restart(); err != nil {
				e.t.Fatalf("%s: %v", when, err)
			}
			check(when)
		}
	}
	reads := func(e *env, want string) func(string) {
		return func(when string) {
			e.t.Helper()
			if got := readObject(e.t, e.sn, e.pid, e.slot, len(want)); string(got) != want {
				e.t.Fatalf("%s: read %q, want %q", when, got, want)
			}
		}
	}
	ckpt := func(e *env) {
		e.t.Helper()
		ckpt := e.sn.Checkpoint
		if e.fuzzy {
			ckpt = func() error { return fuzzyCheckpoint(e.sn) }
		}
		if err := ckpt(); err != nil {
			e.t.Fatal(err)
		}
	}
	// deferInstall commits val with the data disk refusing the page, so the
	// committed copy stays in the table, then heals the disk.
	deferInstall := func(e *env, val string) {
		e.t.Helper()
		e.store.arm(e.pid)
		updateObject(e.t, e.sn, e.pid, e.slot, []byte(val), true)
		e.store.arm(0)
		if n := e.s.Stats().InstallsDeferred; n != 1 {
			e.t.Fatalf("InstallsDeferred = %d, want 1", n)
		}
	}
	stored := func(e *env) string {
		e.t.Helper()
		buf := make([]byte, page.Size)
		if err := e.store.ReadPage(e.pid, buf); err != nil {
			e.t.Fatal(err)
		}
		got := make([]byte, 3)
		if err := page.Wrap(buf).ReadAt(e.slot, 0, got); err != nil {
			e.t.Fatal(err)
		}
		return string(got)
	}

	// inDoubtAboveDeferred leaves a prepared branch's copy "top" above the
	// committed, uninstalled copy "mid", with a checkpoint between the two.
	inDoubtAboveDeferred := func(e *env) logrec.TID {
		e.t.Helper()
		deferInstall(e, "mid")
		ckpt(e)
		tid := shipCopy(e.t, e.sn, e.pid, e.slot, "top")
		if err := e.sn.Prepare(tid, 0, []int{0, 1}); err != nil {
			e.t.Fatal(err)
		}
		return tid
	}

	cases := map[string]func(e *env){
		// (a) The checkpoint's committed table entry is the only witness of a
		// copy whose install a disk error deferred.
		"deferred install rides the checkpoint": func(e *env) {
			deferInstall(e, "new")
			ckpt(e)
			recoverAnd(e, reads(e, "new"))
		},
		// (b) Page images below the checkpoint, commit record above it — with
		// the live install deferred, so only restart can bring the copy home.
		"commit follows the checkpoint": func(e *env) {
			tid := shipCopy(e.t, e.sn, e.pid, e.slot, "new")
			ckpt(e)
			e.store.arm(e.pid)
			if err := e.sn.Commit(tid); err != nil {
				e.t.Fatal(err)
			}
			e.store.arm(0)
			recoverAnd(e, reads(e, "new"))
		},
		// (c) A loser whose images the checkpoint logged as table entries.
		"loser precedes the checkpoint": func(e *env) {
			shipCopy(e.t, e.sn, e.pid, e.slot, "new")
			ckpt(e)
			recoverAnd(e, reads(e, "old"))
		},
		// (d) An in-doubt branch's copy above a committed copy still awaiting
		// install: restart installs the committed one and keeps the branch's
		// chain with nothing beneath it.
		"in-doubt copy above an uninstalled committed one, then commit": func(e *env) {
			tid := inDoubtAboveDeferred(e)
			recoverAnd(e, func(when string) {
				e.t.Helper()
				if got := stored(e); got != "mid" {
					e.t.Fatalf("%s: the store holds %q, want the committed copy \"mid\"", when, got)
				}
				e.s.wplMu.Lock()
				chain := chainOf(e.s.wpl, e.pid)
				e.s.wplMu.Unlock()
				if len(chain) != 1 || chain[0].tid != tid || chain[0].committed {
					e.t.Fatalf("%s: table chain %+v, want the branch's one uncommitted copy", when, chain)
				}
			})
			if err := e.sn.Decide(tid, true); err != nil {
				e.t.Fatal(err)
			}
			reads(e, "top")("after Decide(commit)")
			recoverAnd(e, reads(e, "top"))
		},
		"in-doubt copy above an uninstalled committed one, then abort": func(e *env) {
			tid := inDoubtAboveDeferred(e)
			recoverAnd(e, func(string) {})
			if err := e.sn.Decide(tid, false); err != nil {
				e.t.Fatal(err)
			}
			reads(e, "mid")("after Decide(abort)")
			recoverAnd(e, reads(e, "mid"))
		},
		// (e) A fuzzy checkpoint racing a ship, built by hand: copy A is in the
		// snapshot, copy B of a second page is logged between the snapshot's
		// begin LSN and the checkpoint record. B lands in the table once — also
		// when a snapshot names it too (the defensive overlap).
		"copy between the snapshot and the checkpoint record": func(e *env) {
			tid := shipCopy(e.t, e.sn, e.pid, e.slot, "new")
			e.s.attMu.Lock()
			tx := e.s.att[tid]
			snap := ckptPayload{nextPage: e.s.nextPage, nextTID: e.s.nextTID, beginLSN: e.s.log.End(),
				txns: []ckptTxn{{tid: tid, lastLSN: tx.lastLSN, firstLSN: tx.firstLSN}},
				wpl:  []ckptWPL{{pid: e.pid, lsn: tx.lastLSN, tid: tid}}}
			e.s.attMu.Unlock()
			pidB, err := e.sn.AllocPage(tid)
			if err != nil {
				e.t.Fatal(err)
			}
			dataB, slotB := makePage(e.t, pidB, []byte("bee"))
			if err := e.sn.ShipPage(tid, pidB, dataB); err != nil {
				e.t.Fatal(err)
			}
			lsnB := tx.lastLSN
			rec := &logrec.Record{Type: logrec.TypeCheckpoint, PrevLSN: logrec.NoLSN, After: snap.encode()}
			ckptLSN, err := e.s.log.Append(rec)
			if err != nil {
				e.t.Fatal(err)
			}
			e.s.log.Force()
			if err := e.s.writeSuperblock(e.sn, snap.masterRecord(ckptLSN)); err != nil {
				e.t.Fatal(err)
			}
			for name, c := range map[string]ckptPayload{"B above the snapshot": snap,
				"B in the snapshot too": {beginLSN: snap.beginLSN, txns: snap.txns, wpl: append(snap.wpl[:1:1], ckptWPL{pid: pidB, lsn: lsnB, tid: tid})}} {
				tb := seed(ModeWPL, &c)
				if err := e.s.log.Scan(c.beginLSN, func(r *logrec.Record) bool { tb.note(r); return true }); err != nil {
					e.t.Fatal(err)
				}
				if a, b := chainOf(tb.wpl, e.pid), chainOf(tb.wpl, pidB); len(a) != 1 || len(b) != 1 || b[0].lsn != lsnB {
					e.t.Fatalf("%s: chains %+v and %+v, want one entry each", name, a, b)
				}
				if pages := tb.att[tid].wplPages; len(pages) != 2 || pages[0] != e.pid || pages[1] != pidB {
					e.t.Fatalf("%s: wplPages %v, want [%d %d]", name, pages, e.pid, pidB)
				}
			}
			e.store.arm(everyPage) // both installs deferred: restart's to make
			if err := e.sn.Commit(tid); err != nil {
				e.t.Fatal(err)
			}
			e.store.arm(0)
			recoverAnd(e, func(when string) {
				reads(e, "new")(when)
				if got := readObject(e.t, e.sn, pidB, slotB, 3); string(got) != "bee" {
					e.t.Fatalf("%s: page B reads %q", when, got)
				}
			})
		},
	}
	for name, run := range cases {
		for _, fuzzy := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/fuzzy=%v", name, fuzzy), func(t *testing.T) {
				s, sn, store := analysisServer()
				defer s.Close()
				e := &env{t: t, s: s, sn: sn, store: store, fuzzy: fuzzy}
				e.pid, e.slot = createPage(t, sn, []byte("old"))
				run(e)
			})
		}
	}
}

// tableView flattens a tables value into comparable parts: what a checkpoint
// carries of each ATT entry (plus the pages of its WPL copies), the DPT, every
// WPL chain newest first, and the decided map. Transactions that logged
// nothing are left out — a Begin reaches no log, so analysis cannot know them,
// and one a checkpoint happened to catch may since have finished unlogged.
type tableView struct {
	att     map[logrec.TID]string
	dpt     map[page.ID]dptEntry
	wpl     map[page.ID][]wplEntry
	decided map[logrec.TID]string
}

func viewOf(tb tables) tableView {
	v := tableView{att: map[logrec.TID]string{}, dpt: map[page.ID]dptEntry{}, wpl: map[page.ID][]wplEntry{}, decided: map[logrec.TID]string{}}
	for tid, t := range tb.att {
		if t.lastLSN == logrec.NoLSN {
			continue
		}
		pages := append([]page.ID(nil), t.wplPages...)
		sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
		v.att[tid] = fmt.Sprintf("last=%d first=%d prepared=%v coord=%d parts=%v prepLSN=%d wplPages=%v",
			t.lastLSN, t.firstLSN, t.prepared, t.coord, t.parts, t.prepLSN, pages)
	}
	for pid, e := range tb.dpt {
		v.dpt[pid] = e
	}
	for pid := range tb.wpl {
		v.wpl[pid] = chainOf(tb.wpl, pid)
	}
	for tid, d := range tb.decided {
		v.decided[tid] = fmt.Sprintf("lsn=%d parts=%v", d.lsn, d.parts)
	}
	return v
}

// liveView is viewOf over the server's own tables, under their mutexes.
func (s *Server) liveView() tableView {
	s.lockTables()
	defer s.unlockTables()
	return viewOf(s.tables)
}

// diffTables lists the differences between two views of the tables. A side
// that is a live server (aSrv, bSrv non-nil; nil for a pure analysis result)
// may lack what its own write-backs have retired: a DPT entry once the stored
// image has caught up with the page's newest record, and the bottom of a WPL
// chain from a committed copy down once that copy was installed.
func diffTables(a, b tableView, aSrv, bSrv *Server) []string {
	var out []string
	for tid, want := range b.att {
		if got, ok := a.att[tid]; !ok || got != want {
			out = append(out, fmt.Sprintf("ATT %v: %q vs %q", tid, got, want))
		}
	}
	for tid, got := range a.att {
		if _, ok := b.att[tid]; !ok {
			out = append(out, fmt.Sprintf("ATT %v: %q vs nothing", tid, got))
		}
	}
	for tid, want := range b.decided {
		if got, ok := a.decided[tid]; !ok || got != want {
			out = append(out, fmt.Sprintf("decided %v: %q vs %q", tid, got, want))
		}
	}
	for tid, got := range a.decided {
		if _, ok := b.decided[tid]; !ok {
			out = append(out, fmt.Sprintf("decided %v: %q vs nothing", tid, got))
		}
	}
	retired := func(s *Server, pid page.ID, newest uint64) bool {
		buf := make([]byte, page.Size)
		return s != nil && s.store.ReadPage(pid, buf) == nil && page.Wrap(buf).LSN() >= newest
	}
	for pid, eb := range b.dpt {
		ea, ok := a.dpt[pid]
		// A checkpoint logs recLSNs only, so an analysis side knows a page's
		// newest record just from its scan window: it may understate it.
		newestOK := ea.newest == eb.newest || (aSrv == nil && ea.newest < eb.newest) || (bSrv == nil && eb.newest < ea.newest)
		if ok && (ea.rec != eb.rec || !newestOK) {
			out = append(out, fmt.Sprintf("DPT P%d: %+v vs %+v", pid, ea, eb))
		} else if !ok && !retired(aSrv, pid, eb.newest) {
			out = append(out, fmt.Sprintf("DPT P%d: nothing vs %+v, and the stored image has not caught up", pid, eb))
		}
	}
	for pid, ea := range a.dpt {
		if _, ok := b.dpt[pid]; !ok && !retired(bSrv, pid, ea.newest) {
			out = append(out, fmt.Sprintf("DPT P%d: %+v vs nothing, and the stored image has not caught up", pid, ea))
		}
	}
	pids := map[page.ID]bool{}
	for pid := range a.wpl {
		pids[pid] = true
	}
	for pid := range b.wpl {
		pids[pid] = true
	}
	for pid := range pids {
		short, long, shortSrv := a.wpl[pid], b.wpl[pid], aSrv
		if len(short) > len(long) {
			short, long, shortSrv = long, short, bSrv
		}
		ok := len(short) == len(long) || (shortSrv != nil && long[len(short)].committed)
		for i := range short {
			ok = ok && short[i] == long[i]
		}
		if !ok {
			out = append(out, fmt.Sprintf("WPL P%d: chain %+v vs %+v", pid, a.wpl[pid], b.wpl[pid]))
		}
	}
	sort.Strings(out)
	return out
}

// analysisView is what restart analysis would make of s's log right now: the
// newest checkpoint the master record names, seeded, and note over everything
// from its begin LSN — or over the whole log, before the first checkpoint.
func analysisView(t *testing.T, s *Server) tableView {
	t.Helper()
	sb, err := s.readSuperblock()
	if err != nil {
		t.Fatal(err)
	}
	start, ckpt := s.log.Head(), (*ckptPayload)(nil)
	if sb.hasCheckpoint {
		rec, err := s.log.ReadAt(sb.checkpointLSN)
		if err != nil {
			t.Fatal(err)
		}
		if ckpt, err = decodeCkpt(rec.After); err != nil {
			t.Fatal(err)
		}
		start = min(sb.checkpointLSN, ckpt.beginLSN)
	}
	tb := seed(s.cfg.Mode, ckpt)
	if err := s.log.Scan(start, func(r *logrec.Record) bool { tb.note(r); return true }); err != nil {
		t.Fatal(err)
	}
	return viewOf(tb)
}

// TestLiveTablesMatchAnalysis: the live tables are a function of the log. A
// scripted history covers every record type — updates and page images, an
// abort (CLRs under ESM/REDO), a read-only commit, transactions open across
// a Checkpoint and a fuzzyCheckpoint, a prepared branch decided each way, a
// forget, and a restart that finds a loser and an in-doubt branch — and
// after EVERY Session call the server's tables equal seed(newest checkpoint)
// + note over its own log, modulo what a write-home or install has since
// retired.
func TestLiveTablesMatchAnalysis(t *testing.T) {
	for _, mode := range []Mode{ModeESM, ModeREDO, ModeWPL} {
		t.Run(mode.String(), func(t *testing.T) {
			s, sn := newTestServer(t, mode)
			defer s.Close()
			check := func(what string, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if d := diffTables(s.liveView(), analysisView(t, s), s, nil); len(d) != 0 {
					t.Fatalf("after %s the live tables are not what analysis of the log builds (live vs analysis):\n%s", what, strings.Join(d, "\n"))
				}
			}
			begin := func() logrec.TID {
				tid := sn.Begin()
				check("Begin", nil)
				return tid
			}
			// ship sends one page's new contents the way the mode's client does:
			// log record then page (ESM), log record (REDO), page (WPL).
			ship := func(tid logrec.TID, pid page.ID, rec *logrec.Record, data []byte) {
				t.Helper()
				if mode != ModeWPL {
					check("ShipLog", sn.ShipLog(tid, rec.Encode(nil)))
				}
				if mode != ModeREDO {
					check("ShipPage", sn.ShipPage(tid, pid, data))
				}
			}
			create := func(tid logrec.TID, val string) (page.ID, int) {
				t.Helper()
				pid, err := sn.AllocPage(tid)
				check("AllocPage", err)
				data, slot := makePage(t, pid, []byte(val))
				ship(tid, pid, logrec.NewPageImage(tid, pid, data), data)
				return pid, slot
			}
			write := func(tid logrec.TID, pid page.ID, slot int, val string) {
				t.Helper()
				data, err := readPage(sn, tid, pid, lock.Exclusive)
				check("ReadPage", err)
				pg := page.Wrap(data)
				old := make([]byte, len(val))
				if err := pg.ReadAt(slot, 0, old); err != nil {
					t.Fatal(err)
				}
				off, _, err := pg.ObjectRange(slot)
				if err != nil {
					t.Fatal(err)
				}
				pg.WriteAt(slot, 0, []byte(val))
				ship(tid, pid, logrec.NewUpdate(tid, pid, off, old, []byte(val)), data)
			}
			ckpt := func(fuzzy bool) {
				t.Helper()
				if fuzzy {
					check("fuzzyCheckpoint", fuzzyCheckpoint(sn))
				} else {
					check("Checkpoint", sn.Checkpoint())
				}
			}
			reads := func(pid page.ID, slot int, want string) {
				t.Helper()
				if got := readObject(t, sn, pid, slot, len(want)); string(got) != want {
					t.Fatalf("P%d reads %q, want %q", pid, got, want)
				}
				check("a read-only transaction", nil)
			}

			// Page images, updates, a commit touching two pages.
			t1 := begin()
			pa, sa := create(t1, "a0")
			pb, sb := create(t1, "b0")
			check("Commit", sn.Commit(t1))
			t2 := begin()
			write(t2, pa, sa, "a1")
			check("Commit", sn.Commit(t2))
			// An abort: CLRs and an End, or under WPL the unlink.
			t3 := begin()
			write(t3, pa, sa, "a2")
			write(t3, pb, sb, "b2")
			check("Abort", sn.Abort(t3))
			reads(pa, sa, "a1")
			// Transactions open across a Checkpoint and then a fuzzyCheckpoint; a
			// read-only one the checkpoint catches with nothing logged.
			t4 := begin()
			write(t4, pb, sb, "b4")
			ro := begin()
			_, err := readPage(sn, ro, pa, lock.Shared)
			check("ReadPage", err)
			ckpt(false)
			check("Commit (read-only)", sn.Commit(ro))
			check("Commit", sn.Commit(t4))
			t5 := begin()
			write(t5, pa, sa, "a5")
			ckpt(true)
			write(t5, pb, sb, "b5")
			check("Commit", sn.Commit(t5))
			// A branch this shard coordinates, decided commit across a
			// fuzzyCheckpoint that carries it in the 2PC trailer, then forgotten.
			t6 := begin()
			write(t6, pa, sa, "a6")
			check("Prepare", sn.Prepare(t6, 0, []int{0, 1}))
			ckpt(true)
			check("Decide(commit)", sn.Decide(t6, true))
			ckpt(true) // the decided entry rides the checkpoint
			check("Forget", sn.Forget(t6))
			// A branch decided abort, across a Checkpoint.
			t7 := begin()
			write(t7, pb, sb, "b7")
			check("Prepare", sn.Prepare(t7, 0, []int{0, 1}))
			ckpt(false)
			check("Decide(abort)", sn.Decide(t7, false))
			reads(pb, sb, "b5")
			// Restart finds a loser and a branch in doubt (coordinated elsewhere):
			// the analysis result IS the live tables, losers rolled back on them.
			t8 := begin()
			write(t8, pa, sa, "a8")
			check("Prepare", sn.Prepare(t8, 1, []int{0, 1}))
			t9 := begin()
			write(t9, pb, sb, "b9")
			s.log.Force()
			s.Crash()
			check("Restart", sn.Restart())
			if in := s.InDoubt(); len(in) != 1 || in[0].TID != t8 {
				t.Fatalf("in doubt after restart: %+v, want %v alone", in, t8)
			}
			check("Decide(commit) of the resurrected branch", sn.Decide(t8, true))
			reads(pa, sa, "a8")
			reads(pb, sb, "b5")
			ckpt(false)
			if v := s.liveView(); len(v.att)+len(v.dpt)+len(v.wpl)+len(v.decided) != 0 {
				t.Fatalf("tables not empty at the end of the history: %+v", v)
			}
		})
	}
}

// TestSnapshotSeedRoundTrip: snapshot is seed's inverse. Tables built by note
// from a synthetic history survive snapshot → encode → decode → seed, up to
// what a checkpoint does not carry (a DPT entry's newest, a transaction's
// pageLSN map and prepare time, a committed copy's commitEnd).
func TestSnapshotSeedRoundTrip(t *testing.T) {
	img := make([]byte, page.Size)
	upd := func(lsn uint64, tid logrec.TID, pid page.ID) *logrec.Record {
		r := logrec.NewUpdate(tid, pid, 100, []byte("old"), []byte("new"))
		r.LSN = lsn
		return r
	}
	copyOf := func(lsn uint64, tid logrec.TID, pid page.ID) *logrec.Record {
		r := logrec.NewPageImage(tid, pid, img)
		r.LSN = lsn
		return r
	}
	at := func(lsn uint64, r *logrec.Record) *logrec.Record { r.LSN = lsn; return r }
	histories := map[Mode][]*logrec.Record{
		ModeESM: {
			upd(9000, 3, 7), upd(9100, 3, 8), upd(9200, 5, 9), upd(9300, 3, 7),
			at(9400, logrec.NewPrepare(3, 1, []int{0, 1, 2})),
			at(9500, logrec.NewDecide(11, 0, []int{0, 1})),
			upd(9600, 6, 9), at(9700, logrec.NewCommit(6)),
		},
		ModeWPL: {
			copyOf(9000, 2, 7), at(18000, logrec.NewCommit(2)), // committed, uninstalled
			copyOf(19000, 3, 7), copyOf(28000, 3, 8), // a prepared branch's copies, one above the committed one
			at(37000, logrec.NewPrepare(3, 0, []int{0, 1})),
			copyOf(38000, 5, 9), // an open transaction's
			at(47000, logrec.NewDecide(3, 0, []int{0, 1})),
		},
	}
	histories[ModeREDO] = histories[ModeESM]
	for mode, recs := range histories {
		tb := seed(mode, nil)
		tb.txn(42) // begun, nothing logged
		for _, r := range recs {
			tb.note(r)
		}
		c := tb.snapshot()
		c.nextPage, c.nextTID, c.beginLSN = 10, 43, 48000
		enc := c.encode()
		dec, err := decodeCkpt(enc)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		back := seed(mode, dec)
		if _, ok := back.att[42]; !ok || len(back.att) != len(tb.att) {
			t.Fatalf("%v: ATT %v came back as %v", mode, tb.att, back.att)
		}
		if d := diffTables(viewOf(back), viewOf(tb), nil, nil); len(d) != 0 {
			t.Fatalf("%v: seed(snapshot(tb)) != tb:\n%s", mode, strings.Join(d, "\n"))
		}
		c2 := back.snapshot()
		c2.nextPage, c2.nextTID, c2.beginLSN = c.nextPage, c.nextTID, c.beginLSN
		if !bytes.Equal(c2.encode(), enc) {
			t.Fatalf("%v: snapshot(seed(snapshot(tb))) encodes differently", mode)
		}
	}
}
