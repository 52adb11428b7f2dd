// fixture-path: repro/internal/recbuf/walorder
//
// Write-ahead ordering (rule B): the package path sits inside the storage
// allowlist so the layering rule stays quiet and only the ordering rule
// speaks. A page write followed by an Append with no force anywhere before
// the write is flagged; forcing first makes the identical body legal.
package walorder

import (
	"repro/internal/disk"
	"repro/internal/logrec"
	"repro/internal/wal"
)

// inverted writes a page and then appends: the record could be lost in a
// crash the page survives.
func inverted(log *wal.Log, st disk.Store, r *logrec.Record) error {
	if err := st.WritePage(3, make([]byte, 64)); err != nil {
		return err
	}
	if _, err := log.Append(r); err != nil { // want "write-ahead"
		return err
	}
	return nil
}

// appendLoop appends, then writes: in source order the append comes first,
// but from the second pass on it follows the previous pass's unforced write.
func appendLoop(log *wal.Log, st disk.Store, rs []*logrec.Record) error {
	for _, r := range rs {
		if _, err := log.Append(r); err != nil { // want "write-ahead"
			return err
		}
		if err := st.WritePage(3, make([]byte, 64)); err != nil {
			return err
		}
	}
	return nil
}

// forcedFirst is the sharp-checkpoint shape: force, flush, then append the
// record describing already-stable state. Clean.
func forcedFirst(log *wal.Log, st disk.Store, r *logrec.Record) error {
	log.Force()
	if err := st.WritePage(3, make([]byte, 64)); err != nil {
		return err
	}
	if _, err := log.Append(r); err != nil {
		return err
	}
	return nil
}
