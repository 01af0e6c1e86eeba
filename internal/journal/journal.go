// Package journal is the durability layer under long-running campaigns:
// a write-ahead journal of finished pipeline units plus a few side
// documents, all living in one state directory. The paper's evaluation
// is a nine-month continuous run; a campaign that long survives power
// loss and OOM kills only if its progress is on disk, so the contract
// here is crash-safety at any instant:
//
//   - journal records are length-prefixed and CRC32-checksummed, and the
//     file is appended with batched fsyncs — a record either replays
//     bit-for-bit or is detected as torn/corrupt;
//   - a torn final record (the classic kill-mid-write) truncates replay
//     cleanly instead of failing it;
//   - a corrupt record mid-file (bad checksum) is quarantined with its
//     byte offset and replay resyncs at the next frame;
//   - side documents are written to a temp file, fsynced, and renamed
//     into place, so a reader never observes a half-written file.
//
// The journal is the only restore path: resuming replays every intact
// record. The package stores bytes, not campaign types: internal/campaign
// owns the record schema and replays it into its report.
package journal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

const (
	journalName = "journal.wal"
	tmpExt      = ".tmp"

	// frameHeader is the per-record overhead: a uint32 payload length
	// followed by a uint32 CRC32 (IEEE) of the payload, little-endian.
	frameHeader = 8

	// MaxRecord bounds one record's payload. A length prefix beyond it
	// means the framing itself is lost (a corrupt length byte), at which
	// point replay cannot resync and treats the rest of the file as torn.
	MaxRecord = 64 << 20
)

// Store is a state directory holding one campaign's journal plus side
// documents (bug corpus, metadata) that outlive individual campaigns.
type Store struct {
	dir string
	// observe, when set, is called once per Corruption Replay records —
	// quarantined checksum mismatches and torn tails alike — so callers
	// can count corrupt records and trace them without re-scanning.
	observe func(Corruption)
}

// SetObserver registers fn to be called for every Corruption found by
// Replay. Observation only: quarantine behaviour is unchanged. A nil fn
// clears the observer.
func (s *Store) SetObserver(fn func(Corruption)) { s.observe = fn }

// Open opens (creating if needed) the state directory.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: open state dir: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the state directory path.
func (s *Store) Dir() string { return s.dir }

func (s *Store) journalPath() string { return filepath.Join(s.dir, journalName) }

// Reset deletes the journal — a fresh campaign in an already-used
// directory. Side documents (the persistent bug corpus) are deliberately
// kept: they accumulate across campaigns.
func (s *Store) Reset() error {
	if err := os.Remove(s.journalPath()); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("journal: reset: %w", err)
	}
	return s.syncDir()
}

// syncDir fsyncs the state directory so renames and removals are
// durable, not just the file contents.
func (s *Store) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Writer appends framed records to the journal. It buffers writes and
// fsyncs every syncEvery records (and on Sync/Close), bounding the
// window a crash can tear to the unsynced tail.
type Writer struct {
	f         *os.File
	buf       *bufio.Writer
	syncEvery int
	pending   int
}

// Append opens the journal for appending. syncEvery <= 0 means fsync on
// every record.
func (s *Store) Append(syncEvery int) (*Writer, error) {
	f, err := os.OpenFile(s.journalPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: append: %w", err)
	}
	if syncEvery <= 0 {
		syncEvery = 1
	}
	return &Writer{f: f, buf: bufio.NewWriter(f), syncEvery: syncEvery}, nil
}

// Append frames and writes one record. The record is durable only after
// the next Sync (implicit every syncEvery appends).
func (w *Writer) Append(payload []byte) error {
	if len(payload) > MaxRecord {
		return fmt.Errorf("journal: record of %d bytes exceeds MaxRecord", len(payload))
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.buf.Write(hdr[:]); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	if _, err := w.buf.Write(payload); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	w.pending++
	if w.pending >= w.syncEvery {
		return w.Sync()
	}
	return nil
}

// Sync flushes buffered records and fsyncs the journal.
func (w *Writer) Sync() error {
	if err := w.buf.Flush(); err != nil {
		return fmt.Errorf("journal: sync: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("journal: sync: %w", err)
	}
	w.pending = 0
	return nil
}

// Close syncs and closes the journal.
func (w *Writer) Close() error {
	serr := w.Sync()
	cerr := w.f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// Corruption records one unusable stretch of the journal: a checksum
// mismatch (quarantined, replay resyncs after it) or a torn tail
// (replay stops there).
type Corruption struct {
	// Offset is the byte offset of the bad frame in the journal.
	Offset int64
	// Reason says what was wrong, for the campaign log.
	Reason string
}

func (c Corruption) String() string {
	return fmt.Sprintf("journal offset %d: %s", c.Offset, c.Reason)
}

// Replay streams every intact record to fn in file order. Corrupt
// records are quarantined — skipped, with their offsets returned — and a
// torn or truncated tail ends replay cleanly; neither is an error. A
// missing journal replays zero records. An error from fn aborts replay
// and is returned as-is.
func (s *Store) Replay(fn func(offset int64, payload []byte) error) ([]Corruption, error) {
	f, err := os.Open(s.journalPath())
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: replay: %w", err)
	}
	defer f.Close()

	info, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("journal: replay: %w", err)
	}
	return replayStream(bufio.NewReader(f), info.Size(), s.observe, fn)
}

// ReplayBytes replays a journal image held in memory — a shard journal
// shipped over the network — with exactly Replay's framing, quarantine,
// and torn-tail semantics. The coordinator merges worker journals
// through this without touching disk.
func ReplayBytes(b []byte, fn func(offset int64, payload []byte) error) ([]Corruption, error) {
	return replayStream(bytes.NewReader(b), int64(len(b)), nil, fn)
}

// replayStream is the frame scanner shared by Replay and ReplayBytes:
// size bounds the stream, observe (optional) sees every Corruption as
// it is recorded.
func replayStream(r io.Reader, size int64, observe func(Corruption), fn func(offset int64, payload []byte) error) ([]Corruption, error) {
	var off int64
	var quarantined []Corruption
	bad := func(c Corruption) {
		quarantined = append(quarantined, c)
		if observe != nil {
			observe(c)
		}
	}
	for off < size {
		var hdr [frameHeader]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			bad(Corruption{off, "torn frame header"})
			break
		}
		length := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if length > MaxRecord {
			// The length bytes themselves are garbage: framing is lost
			// and nothing after this point can be trusted.
			bad(Corruption{off, fmt.Sprintf("implausible record length %d; framing lost", length)})
			break
		}
		if off+frameHeader+length > size {
			bad(Corruption{off, fmt.Sprintf("torn record: %d bytes framed, %d on disk", length, size-off-frameHeader)})
			break
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			bad(Corruption{off, "torn record payload"})
			break
		}
		if crc32.ChecksumIEEE(payload) != sum {
			bad(Corruption{off, "checksum mismatch"})
			off += frameHeader + length
			continue
		}
		if err := fn(off, payload); err != nil {
			return quarantined, err
		}
		off += frameHeader + length
	}
	return quarantined, nil
}

// JournalBytes reads the raw framed journal image — the bytes
// ReplayBytes accepts — so a worker can ship its shard journal to the
// coordinator. A missing journal returns (nil, nil).
func (s *Store) JournalBytes() ([]byte, error) {
	b, err := os.ReadFile(s.journalPath())
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: read journal: %w", err)
	}
	return b, nil
}

// WriteDoc atomically writes a named side document (temp + fsync +
// rename). Documents are plain bytes — campaign keeps JSON there.
func (s *Store) WriteDoc(name string, payload []byte) error {
	final := filepath.Join(s.dir, name)
	tmp := final + tmpExt
	if err := writePlainFile(tmp, payload); err != nil {
		return fmt.Errorf("journal: write doc %s: %w", name, err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("journal: write doc %s: %w", name, err)
	}
	return s.syncDir()
}

// ReadDoc reads a side document; a missing document returns (nil, nil).
func (s *Store) ReadDoc(name string) ([]byte, error) {
	b, err := os.ReadFile(filepath.Join(s.dir, name))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: read doc %s: %w", name, err)
	}
	return b, nil
}

func writePlainFile(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
