package archive

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"

	"repro/internal/logrec"
	"repro/internal/page"
)

// Typed archive errors. Corruption errors are what the checksum verification
// reports instead of silently replaying damaged media; restore callers can
// errors.Is on them.
var (
	// ErrCorruptSegment means an archived log segment failed its checksum or
	// framing checks (torn blob write, bit rot).
	ErrCorruptSegment = errors.New("archive: corrupt log segment")
	// ErrCorruptBackup means a backup blob failed its checksum or framing.
	ErrCorruptBackup = errors.New("archive: corrupt backup")
	// ErrNoBackup means no usable backup exists at or before the restore
	// target (media recovery needs a base backup to start from).
	ErrNoBackup = errors.New("archive: no backup covering the restore target")
	// ErrArchiveGap means the archived segments do not form a contiguous LSN
	// range from the backup's redo start to the restore cut.
	ErrArchiveGap = errors.New("archive: gap in archived log segments")
)

// Blob formats. Both carry a 4-byte magic, a version, framing fields, and a
// CRC-32 (IEEE) over the payload, so any torn write or bit flip — in header
// or payload — is detected before a single byte is replayed. (Payload record
// encodings additionally carry logrec's per-record CRC; the blob-level CRC
// catches corruption in our own framing too, and catches payload damage
// without decoding.)
const (
	segMagic    = "QSAR" // archived log segment
	backupMagic = "QSBK" // fuzzy online backup
	genMagic    = "QSGN" // generation begin marker
	blobVersion = 1

	segHeaderSize    = 4 + 4 + 8 + 8 + 4 + 4     // magic, version, start, end, count, crc
	backupHeaderSize = 4 + 4 + 8 + 8 + 8 + 4 + 4 // magic, version, redoStart, start, end, count, crc
)

// Blob naming. All blobs of one archiver generation share a g%08x prefix: the
// log's unarchived tail dies with the process that wrote it, so one process's
// archived stream never continues another's, and each generation's chain
// starts at its own base backup. Fixed-width hex keeps List()'s lexical order
// equal to (generation, LSN) order.
func segName(gen uint64, start, end uint64) string {
	return fmt.Sprintf("g%08x-seg-%016x-%016x", gen, start, end)
}

func backupName(gen uint64, end uint64) string {
	return fmt.Sprintf("g%08x-backup-%016x", gen, end)
}

func genName(gen uint64) string {
	return fmt.Sprintf("g%08x-begin", gen)
}

// SegmentInfo describes one archived log segment: records with LSNs in
// [Start, End).
type SegmentInfo struct {
	Name  string
	Gen   uint64
	Start uint64
	End   uint64
}

// BackupInfo describes one fuzzy online backup. RedoStart is the log head at
// backup start: replaying [RedoStart, …) over the backup image reaches any
// later point. [Start, End) is the fuzz window — log appended while pages
// were being copied; a restore must replay at least through End.
type BackupInfo struct {
	Name      string
	Gen       uint64
	RedoStart uint64
	Start     uint64
	End       uint64
	Pages     int
}

// encodeSegment frames records (already concatenated raw logrec encodings)
// covering [start, end).
func encodeSegment(start, end uint64, count int, payload []byte) []byte {
	b := make([]byte, segHeaderSize+len(payload))
	copy(b, segMagic)
	binary.LittleEndian.PutUint32(b[4:], blobVersion)
	binary.LittleEndian.PutUint64(b[8:], start)
	binary.LittleEndian.PutUint64(b[16:], end)
	binary.LittleEndian.PutUint32(b[24:], uint32(count))
	copy(b[segHeaderSize:], payload)
	binary.LittleEndian.PutUint32(b[28:], crc32.ChecksumIEEE(b[segHeaderSize:]))
	return b
}

// decodeSegment verifies framing and checksum and returns the payload: the
// log's bytes [start, end), whole records each at the LSN it carries.
func decodeSegment(name string, data []byte) (start, end uint64, payload []byte, err error) {
	fail := func(why string) (uint64, uint64, []byte, error) {
		return 0, 0, nil, fmt.Errorf("%w: %s: %s", ErrCorruptSegment, name, why)
	}
	if len(data) < segHeaderSize || string(data[:4]) != segMagic {
		return fail("bad magic or truncated header")
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != blobVersion {
		return fail(fmt.Sprintf("unknown version %d", v))
	}
	start = binary.LittleEndian.Uint64(data[8:])
	end = binary.LittleEndian.Uint64(data[16:])
	count := int(binary.LittleEndian.Uint32(data[24:]))
	payload = data[segHeaderSize:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[28:]) {
		return fail("payload checksum mismatch")
	}
	n := 0
	var r logrec.Record
	for off := 0; off < len(payload); n++ {
		size, derr := logrec.DecodeInto(&r, payload[off:])
		if derr != nil {
			return fail(derr.Error())
		}
		if r.LSN != start+uint64(off) {
			return fail(fmt.Sprintf("record at LSN %d carries LSN %d", start+uint64(off), r.LSN))
		}
		off += size
	}
	if n != count {
		return fail(fmt.Sprintf("record count %d, header says %d", n, count))
	}
	if uint64(len(payload)) != end-start {
		return fail("payload length disagrees with LSN range")
	}
	return start, end, payload, nil
}

// encodeBackup frames a fuzzy backup: n × [page id u32][page image].
func encodeBackup(info BackupInfo, payload []byte) []byte {
	b := make([]byte, backupHeaderSize+len(payload))
	copy(b, backupMagic)
	binary.LittleEndian.PutUint32(b[4:], blobVersion)
	binary.LittleEndian.PutUint64(b[8:], info.RedoStart)
	binary.LittleEndian.PutUint64(b[16:], info.Start)
	binary.LittleEndian.PutUint64(b[24:], info.End)
	binary.LittleEndian.PutUint32(b[32:], uint32(info.Pages))
	copy(b[backupHeaderSize:], payload)
	binary.LittleEndian.PutUint32(b[36:], crc32.ChecksumIEEE(b[backupHeaderSize:]))
	return b
}

// decodeBackup verifies framing and checksum and returns the page images.
func decodeBackup(name string, data []byte) (BackupInfo, map[page.ID][]byte, error) {
	fail := func(why string) (BackupInfo, map[page.ID][]byte, error) {
		return BackupInfo{}, nil, fmt.Errorf("%w: %s: %s", ErrCorruptBackup, name, why)
	}
	if len(data) < backupHeaderSize || string(data[:4]) != backupMagic {
		return fail("bad magic or truncated header")
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != blobVersion {
		return fail(fmt.Sprintf("unknown version %d", v))
	}
	info := BackupInfo{
		Name:      name,
		RedoStart: binary.LittleEndian.Uint64(data[8:]),
		Start:     binary.LittleEndian.Uint64(data[16:]),
		End:       binary.LittleEndian.Uint64(data[24:]),
		Pages:     int(binary.LittleEndian.Uint32(data[32:])),
	}
	if crc32.ChecksumIEEE(data[backupHeaderSize:]) != binary.LittleEndian.Uint32(data[36:]) {
		return fail("payload checksum mismatch")
	}
	payload := data[backupHeaderSize:]
	const stride = 4 + page.Size
	if len(payload) != info.Pages*stride {
		return fail("payload length disagrees with page count")
	}
	pages := make(map[page.ID][]byte, info.Pages)
	for off := 0; off < len(payload); off += stride {
		id := page.ID(binary.LittleEndian.Uint32(payload[off:]))
		pages[id] = payload[off+4 : off+stride : off+stride]
	}
	return info, pages, nil
}

// encodeGenMarker is the body of a generation's begin blob. Only the blob's
// name is ever read (Generations lists generations by it); the start LSN and
// its CRC are a record for a reader of the archive directory.
func encodeGenMarker(start uint64) []byte {
	b := make([]byte, 4+4+8+4)
	copy(b, genMagic)
	binary.LittleEndian.PutUint32(b[4:], blobVersion)
	binary.LittleEndian.PutUint64(b[8:], start)
	binary.LittleEndian.PutUint32(b[16:], crc32.ChecksumIEEE(b[8:16]))
	return b
}

// parseName classifies a blob name; ok is false for names this package does
// not own (e.g. stray files in an archive directory).
func parseName(name string) (gen uint64, kind string, a, b uint64, ok bool) {
	switch {
	case strings.Contains(name, "-seg-"):
		if _, err := fmt.Sscanf(name, "g%08x-seg-%016x-%016x", &gen, &a, &b); err == nil {
			return gen, "seg", a, b, true
		}
	case strings.Contains(name, "-backup-"):
		if _, err := fmt.Sscanf(name, "g%08x-backup-%016x", &gen, &a); err == nil {
			return gen, "backup", a, 0, true
		}
	case strings.HasSuffix(name, "-begin"):
		if _, err := fmt.Sscanf(name, "g%08x-begin", &gen); err == nil {
			return gen, "begin", 0, 0, true
		}
	}
	return 0, "", 0, 0, false
}

// Generations returns the generation numbers present in blobs, ascending.
func Generations(blobs BlobStore) ([]uint64, error) {
	names, err := blobs.List()
	if err != nil {
		return nil, err
	}
	var gens []uint64
	for _, n := range names {
		if gen, kind, _, _, ok := parseName(n); ok && kind == "begin" {
			gens = append(gens, gen)
		}
	}
	return gens, nil
}

// ListSegments returns the archived segments of one generation in LSN order.
func ListSegments(blobs BlobStore, gen uint64) ([]SegmentInfo, error) {
	names, err := blobs.List()
	if err != nil {
		return nil, err
	}
	var segs []SegmentInfo
	for _, n := range names {
		if g, kind, a, b, ok := parseName(n); ok && kind == "seg" && g == gen {
			segs = append(segs, SegmentInfo{Name: n, Gen: g, Start: a, End: b})
		}
	}
	return segs, nil // List is sorted and names are fixed-width: LSN order
}

// ListBackups returns the backups of one generation, oldest first. Headers
// are decoded (and verified) to recover the fuzz window.
func ListBackups(blobs BlobStore, gen uint64) ([]BackupInfo, error) {
	names, err := blobs.List()
	if err != nil {
		return nil, err
	}
	var backups []BackupInfo
	for _, n := range names {
		if g, kind, _, _, ok := parseName(n); ok && kind == "backup" && g == gen {
			data, err := blobs.Get(n)
			if err != nil {
				return nil, err
			}
			info, _, err := decodeBackup(n, data)
			if err != nil {
				return nil, err
			}
			info.Gen = g
			backups = append(backups, info)
		}
	}
	return backups, nil
}

// ReadSegment fetches and verifies one segment, returning its payload: the
// log's bytes [info.Start, info.End) as they were logged.
func ReadSegment(blobs BlobStore, info SegmentInfo) ([]byte, error) {
	data, err := blobs.Get(info.Name)
	if err != nil {
		return nil, err
	}
	start, end, payload, err := decodeSegment(info.Name, data)
	if err != nil {
		return nil, err
	}
	if start != info.Start || end != info.End {
		return nil, fmt.Errorf("%w: %s: header range [%d,%d) disagrees with name",
			ErrCorruptSegment, info.Name, start, end)
	}
	return payload, nil
}
