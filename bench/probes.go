package main

import (
	"errors"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/buffer"
	"repro/internal/diff"
	"repro/internal/disk"
	"repro/internal/lock"
	"repro/internal/logrec"
	"repro/internal/page"
	"repro/internal/server"
	"repro/internal/wal"
)

// The probe.* numbers time one layer's public functions in isolation, on
// inputs sampled from the workload that just ran: pages read back from its
// volume and records scanned from its log. They say what a layer costs per
// call; the spans say how often the workload calls it.

// timeN runs f n times and returns the mean nanoseconds and heap allocations
// per call.
func timeN(n int, f func(i int)) (ns, allocs float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

var errEnough = errors.New("enough samples")

// probeSink receives a value from every probed call so that none can be
// optimized away.
var probeSink int

// samplePages copies up to max data pages from st's volume.
func samplePages(st *stack, max int) ([][]byte, error) {
	var pages [][]byte
	err := st.store.ForEachPage(func(id page.ID, data []byte) error {
		if id == 0 {
			return nil
		}
		pages = append(pages, append([]byte(nil), data...))
		if len(pages) == max {
			return errEnough
		}
		return nil
	})
	if err != nil && !errors.Is(err, errEnough) {
		return nil, err
	}
	return pages, nil
}

// sampleRecords returns up to max update and page-image records from st's
// log, and one synthetic 8-byte update per sampled page — the paper's (x, y)
// update region — so that a workload whose log holds only commit records
// still yields inputs.
func sampleRecords(st *stack, pages [][]byte, max int) []*logrec.Record {
	var recs []*logrec.Record
	log := st.srv.Log()
	// A scan error means the head moved under us; what was collected stands.
	_ = log.Scan(log.Head(), func(r *logrec.Record) bool {
		if r.Type == logrec.TypeUpdate || r.Type == logrec.TypePageImage {
			recs = append(recs, r.Clone())
		}
		return len(recs) < max
	})
	for i, p := range pages {
		off := page.HeaderSize + 4
		after := append([]byte(nil), p[off:off+8]...)
		after[0]++
		after[4]++
		recs = append(recs, logrec.NewUpdate(logrec.TID(i+1), page.ID(i+1), off, p[off:off+8], after))
	}
	return recs
}

// runProbes measures every probe.* metric and server.direct_commit_us_p50.
// dir is scratch space for the disk probe's volume.
//
//qslint:allow wal-discipline: the probes time buffer.Pool and disk.FileStore calls directly, on a private pool and a scratch volume no server owns
func runProbes(st *stack, dir string) (map[string]metric, error) {
	out := make(map[string]metric)
	pages, err := samplePages(st, 64)
	if err != nil {
		return nil, err
	}
	if len(pages) == 0 {
		return nil, errors.New("probes: the volume holds no data page")
	}
	recs := sampleRecords(st, pages, 256)

	// diff: one 8-byte region changed on a page (T2A's sparse update), and
	// twenty of them spread over it (T2B's dense update of every atomic part).
	sparse := make([][]byte, len(pages))
	dense := make([][]byte, len(pages))
	for i, p := range pages {
		sparse[i] = append([]byte(nil), p...)
		sparse[i][page.Size/2]++
		dense[i] = append([]byte(nil), p...)
		for k := 0; k < 20; k++ {
			off := page.HeaderSize + k*340
			dense[i][off]++
			dense[i][off+4]++
		}
	}
	ns, _ := timeN(4000, func(i int) { probeSink += len(diff.Regions(pages[i%len(pages)], sparse[i%len(pages)])) })
	out["probe.diff.sparse_ns_page"] = metric{ns, "ns"}
	ns, _ = timeN(4000, func(i int) { probeSink += len(diff.Regions(pages[i%len(pages)], dense[i%len(pages)])) })
	out["probe.diff.dense_ns_page"] = metric{ns, "ns"}

	// logrec: encode into a reused buffer, decode the encoding.
	encoded := make([][]byte, len(recs))
	for i, r := range recs {
		encoded[i] = r.Encode(nil)
	}
	var buf []byte
	ns, allocs := timeN(20000, func(i int) { buf = recs[i%len(recs)].Encode(buf[:0]) })
	out["probe.logrec.encode_ns"] = metric{ns, "ns"}
	out["probe.logrec.encode_allocs"] = metric{allocs, "allocs/op"}
	ns, _ = timeN(20000, func(i int) {
		if _, n, err := logrec.Decode(encoded[i%len(encoded)]); err == nil {
			probeSink += n
		}
	})
	out["probe.logrec.decode_ns"] = metric{ns, "ns"}

	// wal: append the sampled records, wait for a commit record to become
	// stable, scan everything back.
	log := wal.New(logCapacity)
	var appendErr error
	ns, allocs = timeN(20000, func(i int) {
		if _, err := log.Append(recs[i%len(recs)]); err != nil {
			appendErr = err
		}
	})
	if appendErr != nil {
		return nil, appendErr
	}
	out["probe.wal.append_ns"] = metric{ns, "ns"}
	out["probe.wal.append_allocs"] = metric{allocs, "allocs/op"}
	ns, _ = timeN(5000, func(i int) {
		c := logrec.NewCommit(logrec.TID(i + 1))
		if _, err := log.Append(c); err != nil {
			appendErr = err
			return
		}
		log.CommitWait(c.LSN + uint64(c.EncodedSize()))
	})
	if appendErr != nil {
		return nil, appendErr
	}
	out["probe.wal.commitwait_ns"] = metric{ns, "ns"}
	log.Force()
	start := time.Now()
	if err := log.Scan(log.Head(), func(r *logrec.Record) bool { probeSink += int(r.Type); return true }); err != nil {
		return nil, err
	}
	out["probe.wal.scan_mb_s"] = metric{float64(log.StableEnd()-log.Head()) / (1 << 20) / time.Since(start).Seconds(), "MB/s"}

	// buffer: a hit, and a miss that evicts the LRU frame.
	const frames = 256
	pool := buffer.NewPool(frames)
	for i := 0; i < frames; i++ {
		if _, err := pool.Insert(page.ID(i+1), pages[i%len(pages)]); err != nil {
			return nil, err
		}
	}
	ns, _ = timeN(200000, func(i int) {
		if pool.Get(page.ID(i%frames+1)) != nil {
			probeSink++
		}
	})
	out["probe.buffer.hit_ns"] = metric{ns, "ns"}
	var poolErr error
	ns, _ = timeN(20000, func(i int) {
		if v := pool.Victim(); v != nil {
			poolErr = pool.Remove(v.PID())
		}
		if _, err := pool.Insert(page.ID(frames+i+1), pages[i%len(pages)]); err != nil {
			poolErr = err
		}
	})
	if poolErr != nil {
		return nil, poolErr
	}
	out["probe.buffer.miss_evict_ns"] = metric{ns, "ns"}

	// lock: an uncontended exclusive grant and its release.
	locks := lock.NewManager(0)
	var lockErr error
	ns, _ = timeN(100000, func(i int) {
		tid := logrec.TID(i + 1)
		if err := locks.Lock(tid, page.ID(i%frames+1), lock.Exclusive); err != nil {
			lockErr = err
		}
		locks.ReleaseAll(tid)
	})
	if lockErr != nil {
		return nil, lockErr
	}
	out["probe.lock.grant_release_ns"] = metric{ns, "ns"}

	// disk: FileStore page writes and reads (no fsync, OS cache), and the
	// checksum envelope's stamp-and-verify.
	fs, err := disk.OpenFileStore(filepath.Join(dir, "probe.vol"))
	if err != nil {
		return nil, err
	}
	defer fs.Close()
	var diskErr error
	ns, _ = timeN(4000, func(i int) {
		if err := fs.WritePage(page.ID(i%512+1), pages[i%len(pages)]); err != nil {
			diskErr = err
		}
	})
	out["probe.disk.file_write_us"] = metric{ns / 1000, "us"}
	rbuf := make([]byte, page.Size)
	ns, _ = timeN(4000, func(i int) {
		if err := fs.ReadPage(page.ID(i%512+1), rbuf); err != nil {
			diskErr = err
		}
	})
	if diskErr != nil {
		return nil, diskErr
	}
	out["probe.disk.file_read_us"] = metric{ns / 1000, "us"}
	ns, _ = timeN(20000, func(i int) {
		id := page.ID(i%len(pages) + 1)
		disk.StampTrailer(id, pages[i%len(pages)])
		if err := disk.VerifyPage(id, pages[i%len(pages)]); err != nil {
			diskErr = err
		}
	})
	if diskErr != nil {
		return nil, diskErr
	}
	out["probe.disk.checksum_ns_page"] = metric{ns, "ns"}

	us, err := directCommit(filepath.Join(dir, "direct.vol"), pages[0])
	if err != nil {
		return nil, err
	}
	out["server.direct_commit_us_p50"] = metric{us, "us"}
	return out, nil
}

// directCommit times Session.Commit alone, with no wire or client in front:
// each transaction ships one 8-byte update record and its page, then commits.
// It returns the median in microseconds.
func directCommit(path string, image []byte) (float64, error) {
	st, err := openStack(path, server.ModeESM, server.DefaultPoolPages)
	if err != nil {
		return 0, err
	}
	defer st.close()
	sn := st.srv.NewSession(nil, nil)
	tid := sn.Begin()
	pid, err := sn.AllocPage(tid)
	if err != nil {
		return 0, err
	}
	data := append([]byte(nil), image...)
	page.Wrap(data).Init(pid)
	if err := sn.ShipLog(tid, logrec.NewPageImage(tid, pid, data).Encode(nil)); err != nil {
		return 0, err
	}
	if err := sn.ShipPage(tid, pid, data); err != nil {
		return 0, err
	}
	if err := sn.Commit(tid); err != nil {
		return 0, err
	}
	const off = page.HeaderSize + 4
	var ns []int64
	for i := 0; i < 2000; i++ {
		tid := sn.Begin()
		if err := sn.Lock(tid, pid, lock.Exclusive); err != nil {
			return 0, err
		}
		before := append([]byte(nil), data[off:off+8]...)
		data[off]++
		if err := sn.ShipLog(tid, logrec.NewUpdate(tid, pid, off, before, data[off:off+8]).Encode(nil)); err != nil {
			return 0, err
		}
		if err := sn.ShipPage(tid, pid, data); err != nil {
			return 0, err
		}
		start := time.Now()
		if err := sn.Commit(tid); err != nil {
			return 0, err
		}
		ns = append(ns, int64(time.Since(start)))
	}
	return p50of(ns, 1e3), nil
}
