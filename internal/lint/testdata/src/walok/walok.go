// fixture-path: repro/internal/recbuf/walok
//
// Negative wal-discipline fixture: a storage-protocol package outside the
// server may write pages, and append-then-write — the correct WAL order — is
// never flagged. No diagnostics expected.
package walok

import (
	"repro/internal/disk"
	"repro/internal/logrec"
	"repro/internal/wal"
)

// install is the legal order: log record first, then the page image.
func install(log *wal.Log, st disk.Store, r *logrec.Record) error {
	if _, err := log.Append(r); err != nil {
		return err
	}
	return st.WritePage(7, make([]byte, 64))
}

// checkpointShape forces before flushing and appends the summary record
// after: the sharp-checkpoint pattern.
func checkpointShape(log *wal.Log, st disk.Store, r *logrec.Record) error {
	log.Force()
	if err := st.WritePage(9, make([]byte, 64)); err != nil {
		return err
	}
	_, err := log.Append(r)
	return err
}
