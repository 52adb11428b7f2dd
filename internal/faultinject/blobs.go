package faultinject

import "sync"

// BlobStore is the subset of the archive blob-store contract the injector
// perturbs. It is declared structurally here (rather than importing
// internal/archive) so the dependency points archive → faultinject, matching
// the disk.Store wrapper: any store with this shape can be wrapped.
type BlobStore interface {
	Put(name string, data []byte) error
	Get(name string) ([]byte, error)
	List() ([]string, error)
	Delete(name string) error
}

// Blobs wraps a BlobStore with deterministic fault injection for archive
// media: silent single-bit corruption (BitFlipRate), torn blob writes that
// persist only a sector-aligned prefix (TornWriteRate), and loud transient
// I/O errors (WriteErrorRate / ReadErrorRate). Silent faults — bit flips and
// torn writes — report success to the caller; only the checksum inside the
// blob format can catch them, which is exactly what the corruption tests
// assert.
type Blobs struct {
	inner BlobStore

	mu   sync.Mutex
	plan Plan
	rng  *RNG
	ops  uint64
	hits int64
}

// NewBlobs wraps inner with the given plan. A zero plan injects nothing.
func NewBlobs(inner BlobStore, plan Plan) *Blobs {
	return &Blobs{inner: inner, plan: plan, rng: NewRNG(plan.Seed)}
}

// Faults returns the number of faults injected so far.
func (b *Blobs) Faults() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.hits
}

// Put implements BlobStore.
func (b *Blobs) Put(name string, data []byte) error {
	b.mu.Lock()
	b.ops++
	seq := b.ops
	if b.plan.WriteErrorRate > 0 && b.rng.Float() < b.plan.WriteErrorRate {
		b.hits++
		b.mu.Unlock()
		return injected("transient blob write error", seq)
	}
	if b.plan.TornWriteRate > 0 && b.rng.Float() < b.plan.TornWriteRate {
		b.hits++
		keep := 0
		if sectors := len(data) / SectorSize; sectors > 0 {
			keep = b.rng.Intn(sectors) * SectorSize
		}
		b.mu.Unlock()
		// Silent: the truncated blob is stored and success reported, as a
		// crash after a partial upload followed by a spurious ack would.
		return b.inner.Put(name, append([]byte(nil), data[:keep]...))
	}
	if b.plan.BitFlipRate > 0 && len(data) > 0 && b.rng.Float() < b.plan.BitFlipRate {
		b.hits++
		bit := b.rng.Intn(len(data) * 8)
		b.mu.Unlock()
		flipped := append([]byte(nil), data...)
		flipped[bit/8] ^= 1 << (bit % 8)
		return b.inner.Put(name, flipped)
	}
	b.mu.Unlock()
	return b.inner.Put(name, data)
}

// Get implements BlobStore.
func (b *Blobs) Get(name string) ([]byte, error) {
	b.mu.Lock()
	b.ops++
	seq := b.ops
	if b.plan.ReadErrorRate > 0 && b.rng.Float() < b.plan.ReadErrorRate {
		b.hits++
		b.mu.Unlock()
		return nil, injected("transient blob read error", seq)
	}
	b.mu.Unlock()
	return b.inner.Get(name)
}

// List implements BlobStore.
func (b *Blobs) List() ([]string, error) { return b.inner.List() }

// Delete implements BlobStore.
func (b *Blobs) Delete(name string) error { return b.inner.Delete(name) }
