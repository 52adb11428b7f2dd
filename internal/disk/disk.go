// Package disk provides stable page storage for the server's database
// volume. Two implementations are provided: an in-memory store used by tests
// and simulations, and a file-backed store used by the standalone server.
// Contents survive a simulated crash (only buffer pools and other volatile
// state are lost); the file store additionally survives process restarts.
package disk

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/page"
)

// ErrNotFound is returned when reading a page that was never written.
var ErrNotFound = errors.New("disk: page not found")

// Store is stable storage for fixed-size pages.
type Store interface {
	// ReadPage copies the stored page into buf, which must be page.Size long.
	ReadPage(id page.ID, buf []byte) error
	// WritePage durably stores data, which must be page.Size long.
	WritePage(id page.ID, data []byte) error
	// Pages returns the number of distinct pages ever written.
	Pages() int
	// ForEachPage calls fn for every stored page in ascending id order,
	// stopping at the first error. The data slice is valid only for the
	// duration of the callback. The iteration is fuzzy by design: the page
	// set is snapshotted up front but each page is read individually, so
	// pages written concurrently may be observed either before or after
	// their update — the contract online backup needs (each page copy is
	// individually atomic; cross-page consistency comes from log replay).
	ForEachPage(fn func(id page.ID, data []byte) error) error
	// ForEachPageFrom is ForEachPage over the pages from id from on: it
	// reads none below.
	ForEachPageFrom(from page.ID, fn func(id page.ID, data []byte) error) error
	// Close releases resources.
	Close() error
}

// MemStore is an in-memory Store.
type MemStore struct {
	mu    sync.RWMutex
	pages map[page.ID][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{pages: make(map[page.ID][]byte)}
}

// ReadPage implements Store.
func (s *MemStore) ReadPage(id page.ID, buf []byte) error {
	if len(buf) != page.Size {
		return fmt.Errorf("disk: read buffer is %d bytes, want %d", len(buf), page.Size)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.pages[id]
	if !ok {
		return fmt.Errorf("%w: %v", ErrNotFound, id)
	}
	copy(buf, data)
	return nil
}

// WritePage implements Store.
func (s *MemStore) WritePage(id page.ID, data []byte) error {
	if len(data) != page.Size {
		return fmt.Errorf("disk: write buffer is %d bytes, want %d", len(data), page.Size)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	dst, ok := s.pages[id]
	if !ok {
		dst = make([]byte, page.Size)
		s.pages[id] = dst
	}
	copy(dst, data)
	return nil
}

// Pages implements Store.
func (s *MemStore) Pages() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.pages)
}

// ForEachPage implements Store.
func (s *MemStore) ForEachPage(fn func(id page.ID, data []byte) error) error {
	return s.ForEachPageFrom(0, fn)
}

// ForEachPageFrom implements Store. The id set is snapshotted under the
// lock, then pages are read one at a time, so concurrent writers are never
// blocked for the whole scan (fuzzy backup reads the volume while
// transactions run).
func (s *MemStore) ForEachPageFrom(from page.ID, fn func(id page.ID, data []byte) error) error {
	s.mu.RLock()
	ids := make([]page.ID, 0, len(s.pages))
	for id := range s.pages {
		if id >= from {
			ids = append(ids, id)
		}
	}
	s.mu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var buf [page.Size]byte
	for _, id := range ids {
		if err := s.ReadPage(id, buf[:]); err != nil {
			if errors.Is(err, ErrNotFound) {
				continue // vanished mid-scan; nothing stable to copy
			}
			return err
		}
		if err := fn(id, buf[:]); err != nil {
			return err
		}
	}
	return nil
}

// Close implements Store.
func (s *MemStore) Close() error { return nil }

// Clone returns an independent deep copy of the store, including the
// superblock page. The crash sweeps snapshot a frozen volume this way and
// run each candidate recovery against its own copy.
func (s *MemStore) Clone() *MemStore {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c := NewMemStore()
	for id, data := range s.pages {
		c.pages[id] = append([]byte(nil), data...)
	}
	return c
}

// FileStore is a Store backed by a single flat file; page id n lives at byte
// offset n*page.Size. A bitmap of written pages is kept in memory and
// rebuilt lazily: reading an all-zero, never-written page returns
// ErrNotFound only for offsets beyond the file end.
type FileStore struct {
	mu   sync.Mutex
	f    *os.File
	size int64 // file length in bytes
}

// OpenFileStore opens or creates the volume file at path.
func OpenFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &FileStore{f: f, size: st.Size()}, nil
}

// ReadPage implements Store.
func (s *FileStore) ReadPage(id page.ID, buf []byte) error {
	if len(buf) != page.Size {
		return fmt.Errorf("disk: read buffer is %d bytes, want %d", len(buf), page.Size)
	}
	off := int64(id) * page.Size
	s.mu.Lock()
	defer s.mu.Unlock()
	if off >= s.size {
		return fmt.Errorf("%w: %v", ErrNotFound, id)
	}
	if off+page.Size > s.size {
		// The file ends mid-page: a write was torn by a crash. This is
		// damage, not absence — reporting ErrNotFound here would hand the
		// reader a silent zero page in place of a partially persisted one.
		return fmt.Errorf("%w: %v: volume file ends %d bytes into the page",
			ErrCorruptPage, id, s.size-off)
	}
	_, err := s.f.ReadAt(buf, off)
	return err
}

// WritePage implements Store.
func (s *FileStore) WritePage(id page.ID, data []byte) error {
	if len(data) != page.Size {
		return fmt.Errorf("disk: write buffer is %d bytes, want %d", len(data), page.Size)
	}
	off := int64(id) * page.Size
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.f.WriteAt(data, off); err != nil {
		return err
	}
	if off+page.Size > s.size {
		s.size = off + page.Size
	}
	return nil
}

// Pages implements Store.
func (s *FileStore) Pages() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.size / page.Size)
}

// ForEachPage implements Store.
func (s *FileStore) ForEachPage(fn func(id page.ID, data []byte) error) error {
	return s.ForEachPageFrom(0, fn)
}

// ForEachPageFrom implements Store. The file length is snapshotted, then
// pages are read one at a time under the lock.
func (s *FileStore) ForEachPageFrom(from page.ID, fn func(id page.ID, data []byte) error) error {
	s.mu.Lock()
	n := s.size / page.Size
	s.mu.Unlock()
	var buf [page.Size]byte
	for id := from; int64(id) < n; id++ {
		if err := s.ReadPage(id, buf[:]); err != nil {
			if errors.Is(err, ErrNotFound) {
				continue
			}
			return err
		}
		if err := fn(id, buf[:]); err != nil {
			return err
		}
	}
	return nil
}

// Close implements Store.
func (s *FileStore) Close() error { return s.f.Close() }

var (
	_ Store = (*MemStore)(nil)
	_ Store = (*FileStore)(nil)
)
