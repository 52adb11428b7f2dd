// fixture-path: repro/internal/server/walstray
//
// Layering inside the server (rule A, tightened): the package path sits
// inside internal/server, where the write-back module is the one path from a
// page image to the volume. WritePage is legal in its store-write functions,
// by name, and nowhere else — a stray write skips the write-ahead test.
package walstray

import "repro/internal/disk"

type srv struct{ store disk.Store }

// storeWrite is the write-back module's data-page write. Clean.
func (s *srv) storeWrite(img []byte) error {
	return s.store.WritePage(7, img)
}

// flushVictim writes a victim home on its own, past the write-ahead test.
func (s *srv) flushVictim(img []byte) error {
	return s.store.WritePage(7, img) // want "only through the write-back module"
}
