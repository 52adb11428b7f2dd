package faultinject

// Direct, deterministic page corruption for integrity tests. Where the
// Store wrapper rots pages probabilistically as writes flow through it,
// these helpers damage a chosen page in place — the corruption sweep
// (internal/harness) uses them to rot or tear every page of a built volume
// below the checksum wrapper, then asserts detection and repair.

import (
	"fmt"

	"repro/internal/disk"
	"repro/internal/page"
)

// RotPage flips one bit of the stored page, chosen deterministically from
// seed, writing the damaged image straight back to st. The flip avoids the
// first byte so a rotted page never becomes all-zeros (which integrity
// envelopes treat as never-written). Returns the flipped bit index.
func RotPage(st disk.Store, id page.ID, seed int64) (int, error) {
	var buf [page.Size]byte
	if err := st.ReadPage(id, buf[:]); err != nil {
		return 0, fmt.Errorf("faultinject: rot read of %v: %w", id, err)
	}
	r := NewRNG(seed ^ int64(id)*0x9e37)
	bit := 8 + r.Intn(page.Size*8-8)
	buf[bit/8] ^= 1 << (bit % 8)
	if err := st.WritePage(id, buf[:]); err != nil {
		return 0, fmt.Errorf("faultinject: rot write of %v: %w", id, err)
	}
	return bit, nil
}

// TearPage simulates a torn write: the first keepSectors sectors of the
// stored page survive and the rest reads back as zeroes, exactly as a
// page write interrupted by power loss would leave a zero-filled tail.
// keepSectors must be in [1, page.Size/SectorSize).
func TearPage(st disk.Store, id page.ID, keepSectors int) error {
	if keepSectors < 1 || keepSectors >= page.Size/SectorSize {
		return fmt.Errorf("faultinject: tear of %v keeps %d sectors, want 1..%d",
			id, keepSectors, page.Size/SectorSize-1)
	}
	var buf [page.Size]byte
	if err := st.ReadPage(id, buf[:]); err != nil {
		return fmt.Errorf("faultinject: tear read of %v: %w", id, err)
	}
	for i := keepSectors * SectorSize; i < page.Size; i++ {
		buf[i] = 0
	}
	if err := st.WritePage(id, buf[:]); err != nil {
		return fmt.Errorf("faultinject: tear write of %v: %w", id, err)
	}
	return nil
}
