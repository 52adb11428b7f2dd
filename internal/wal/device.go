package wal

// Device is the log's stable storage, addressed by LSN. The log owns what
// the bytes mean; a device stores them and says how much of them is durable.
// The log calls every method with its mutex held.
type Device interface {
	// ReadAt fills b with the log bytes from lsn on.
	ReadAt(b []byte, lsn uint64)
	// WriteAt stores b at lsn, volatile until a Sync covers it.
	WriteAt(b []byte, lsn uint64)
	// Sync makes [from, to) durable and returns how far it got: to, or less
	// for a device that dies part-way (mid-record is a torn write).
	Sync(from, to uint64) uint64
	// SetHead persists the head pointer and reports whether the write landed.
	SetHead(lsn uint64) bool
}

// Ring is the memory device: a circular buffer where LSN l lives at l modulo
// its length, across the wrap point where a read or write reaches it. Its
// bytes are as durable as they get once written and the log keeps the head
// itself, so Sync and SetHead always succeed.
type Ring []byte

func (r Ring) ReadAt(b []byte, lsn uint64) {
	n := copy(b, r[lsn%uint64(len(r)):])
	copy(b[n:], r)
}

func (r Ring) WriteAt(b []byte, lsn uint64) {
	n := copy(r[lsn%uint64(len(r)):], b)
	copy(r, b[n:])
}

func (Ring) Sync(from, to uint64) uint64 { return to }
func (Ring) SetHead(uint64) bool         { return true }
