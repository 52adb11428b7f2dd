package archive

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/disk"
	"repro/internal/lock"
	"repro/internal/logrec"
	"repro/internal/page"
	"repro/internal/server"
	"repro/internal/wal"
)

// TestRebuildEquivalence: one record reaches a page through one piece of
// code, so three routes to a page's current image must agree byte for byte —
// the rebuilder fed from the live log, RepairPage (backup + archived chain +
// live tail), and the frame restart leaves (the pass's redo for ESM/REDO,
// installs from the WPL table for WPL) — over a seeded multi-transaction
// history with aborts, for each server mode. The committed content is also checked
// against a model the test keeps itself.
func TestRebuildEquivalence(t *testing.T) {
	for _, mode := range []server.Mode{server.ModeESM, server.ModeREDO, server.ModeWPL} {
		t.Run(mode.String(), func(t *testing.T) { rebuildEquivalence(t, mode) })
	}
}

func rebuildEquivalence(t *testing.T, mode server.Mode) {
	log := wal.New(32 << 20)
	store := disk.NewMemStore()
	blobs := NewMemBlobs()
	arch, err := NewArchiver(log, store, blobs, Options{SegmentBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	cfg := server.Config{Mode: mode, Store: store, Log: log, PoolPages: 256, CheckpointEvery: 1 << 30}
	Wire(&cfg, arch)
	srv := server.New(cfg)
	sn := srv.NewSession(nil, nil)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	shipLog := func(tid logrec.TID, r *logrec.Record) {
		t.Helper()
		if mode != server.ModeWPL {
			must(sn.ShipLog(tid, r.Encode(nil)))
		}
	}
	shipPage := func(tid logrec.TID, pid page.ID, img []byte) {
		t.Helper()
		if mode != server.ModeREDO {
			must(sn.ShipPage(tid, pid, img))
		}
	}

	rng := rand.New(rand.NewSource(1))
	model := make(map[page.ID][]byte) // committed content per page
	var pids []page.ID
	tid := sn.Begin()
	for i := 0; i < 6; i++ {
		pid, err := sn.AllocPage(tid)
		must(err)
		img := page.New(pid).Bytes()
		rng.Read(img[64:4096])
		shipLog(tid, logrec.NewPageImage(tid, pid, img))
		shipPage(tid, pid, img)
		model[pid] = img
		pids = append(pids, pid)
	}
	must(sn.Commit(tid))

	aborts := 0
	for n := 1; n <= 30; n++ {
		tid := sn.Begin()
		touched := make(map[page.ID][]byte)
		for i := 0; i < 1+rng.Intn(3); i++ {
			pid := pids[rng.Intn(len(pids))]
			if touched[pid] != nil {
				continue
			}
			must(sn.Lock(tid, pid, lock.Exclusive))
			work := append([]byte(nil), model[pid]...)
			for j := 0; j < 1+rng.Intn(4); j++ {
				size := 1 + rng.Intn(64)
				off := 64 + rng.Intn(8000-64-size)
				after := make([]byte, size)
				rng.Read(after)
				shipLog(tid, logrec.NewUpdate(tid, pid, off, work[off:off+size], after))
				copy(work[off:], after)
			}
			shipPage(tid, pid, work)
			touched[pid] = work
		}
		if rng.Intn(4) == 0 {
			must(sn.Abort(tid))
			aborts++
		} else {
			must(sn.Commit(tid))
			for pid, work := range touched {
				model[pid] = work
			}
		}
		switch n {
		case 10:
			// Some pages reach the volume, then a fuzzy backup captures them:
			// RepairPage starts from a base that already holds part of history.
			_, err := sn.Clean(3)
			must(err)
			info, err := arch.Backup()
			must(err)
			if info.Pages == 0 {
				t.Fatal("backup captured no pages; the base-image leg is untested")
			}
		case 20:
			must(arch.Drain())
		}
	}
	log.Force()
	if aborts == 0 || arch.ArchivedUpTo() >= log.StableEnd() {
		t.Fatalf("history lacks an abort (%d) or a live tail (archived %d, stable %d)", aborts, arch.ArchivedUpTo(), log.StableEnd())
	}

	fromLog := make(map[page.ID][]byte)
	fromArchive := make(map[page.ID][]byte)
	for _, pid := range pids {
		b := server.NewPageRebuilder(mode, pid, nil)
		must(b.FeedLog(log, 0))
		fromLog[pid] = b.Image()
		fromArchive[pid], err = RepairPage(blobs, RepairOptions{Mode: mode, Page: pid, Log: log})
		must(err)
	}

	srv.Crash()
	must(sn.Restart())
	tid = sn.Begin()
	for _, pid := range pids {
		frame := make([]byte, page.Size)
		must(sn.ReadPage(tid, pid, lock.Shared, frame))
		if !bytes.Equal(fromLog[pid], frame) {
			t.Errorf("%v: live-log rebuild differs from the restarted frame", pid)
		}
		if !bytes.Equal(fromArchive[pid], frame) {
			t.Errorf("%v: archive rebuild differs from the restarted frame", pid)
		}
		// Past the LSN stamp, all of them are the committed content.
		if !bytes.Equal(frame[8:], model[pid][8:]) {
			t.Errorf("%v: restarted frame is not the committed content", pid)
		}
	}
	must(sn.Commit(tid))
}
