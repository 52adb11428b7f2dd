// fixture-path: repro/internal/server/errbad
//
// Error-discipline positives: bare call statements that throw away error
// returns from the WAL and the archiver — durability events silently lost.
package errbad

import (
	"repro/internal/archive"
	"repro/internal/logrec"
	"repro/internal/wal"
)

// drop loses a log-append failure: the caller would report commit success
// for a record that never reached the log.
func drop(log *wal.Log, r *logrec.Record) {
	log.Append(r) // want "discarded" "only through the logging step"
}

// lag loses an archiver drain failure: the archive silently stops keeping
// up.
func lag(a *archive.Archiver) {
	a.Drain() // want "discarded"
}
