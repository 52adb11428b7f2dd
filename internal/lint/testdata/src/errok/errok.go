// fixture-path: repro/internal/recbuf/errok
//
// Negative error-discipline fixture: handled errors, an explicit `_ =`
// discard, and the Close exemption. No diagnostics expected.
package errok

import (
	"repro/internal/disk"
	"repro/internal/logrec"
	"repro/internal/wal"
)

// handled propagates the append error.
func handled(log *wal.Log, r *logrec.Record) error {
	if _, err := log.Append(r); err != nil {
		return err
	}
	return nil
}

// explicit discards deliberately and visibly.
func explicit(st disk.Store) {
	_ = st.WritePage(2, make([]byte, 64))
}

// teardown: Close errors are conventionally ignorable.
func teardown(st disk.Store) {
	st.Close()
}
