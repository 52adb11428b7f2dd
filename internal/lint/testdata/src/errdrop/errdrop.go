// fixture-path: repro/internal/recbuf/errdrop
//
// Error-discipline positive: a discarded disk.Store write error — the page
// image may never have reached the volume.
package errdrop

import "repro/internal/disk"

func flush(st disk.Store) {
	st.WritePage(4, make([]byte, 64)) // want "discarded"
}
