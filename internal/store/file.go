package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"syscall"

	"repro/internal/relation"
)

// File names inside a store directory. The temp names are transient: a
// crash can leave them behind and Open removes them.
const (
	walName     = "wal.log"
	snapName    = "snapshot.db"
	snapTmpName = "snapshot.db.tmp"
	walTmpName  = "wal.log.tmp"
)

// FileStore is the file-backed Store: one append-only WAL plus one snapshot
// file under a single directory, with fsync discipline making Append and
// Snapshot durable before they return. It is safe for concurrent use; the
// engine serializes writers anyway, but Stats is read concurrently by the
// stats endpoint.
type FileStore struct {
	mu  sync.Mutex
	dir string
	wal *os.File

	walBytes   int64
	walRecords int64
	// lastGen is the newest durable generation: the last WAL record's, or
	// the snapshot's when the log is empty. Append enforces contiguity
	// against it.
	lastGen   uint64
	snapGen   uint64
	snapBytes int64
	closed    bool
}

// Open opens (or initializes) a store directory: creates it if missing,
// removes leftover temp files from interrupted snapshots, verifies the
// snapshot checksum, and scans the WAL — truncating a torn tail, failing
// with ErrCorrupt on mid-log corruption. After Open the store is ready for
// Load + Replay (recovery) and Append (serving). A directory holding the
// sharded layout fails with ErrShardedLayout before anything in it changes.
func Open(dir string) (*FileStore, error) {
	if err := refuseShardedLayout(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, tmp := range []string{snapTmpName, walTmpName} {
		if err := os.Remove(filepath.Join(dir, tmp)); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("store: remove stale %s: %w", tmp, err)
		}
	}
	s := &FileStore{dir: dir}
	if data, err := os.ReadFile(s.path(snapName)); err == nil {
		gen, err := peekSnapshotGen(data)
		if err != nil {
			return nil, fmt.Errorf("store: %s: %w", snapName, err)
		}
		s.snapGen, s.snapBytes = gen, int64(len(data))
		s.lastGen = gen
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: %w", err)
	}
	wal, err := os.OpenFile(s.path(walName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := s.recoverWAL(wal); err != nil {
		wal.Close()
		return nil, err
	}
	s.wal = wal
	return s, nil
}

func (s *FileStore) path(name string) string { return filepath.Join(s.dir, name) }

// refuseShardedLayout fails with ErrShardedLayout when dir holds
// meta/vector.log or a shard-<i> directory.
func refuseShardedLayout(dir string) error {
	if _, err := os.Stat(filepath.Join(dir, "meta", "vector.log")); err == nil {
		return fmt.Errorf("%w: %s holds meta/vector.log", ErrShardedLayout, dir)
	}
	shards, _ := filepath.Glob(filepath.Join(dir, "shard-*")) // the pattern is well-formed
	for _, p := range shards {
		if fi, err := os.Stat(p); err == nil && fi.IsDir() {
			return fmt.Errorf("%w: %s holds %s/", ErrShardedLayout, dir, filepath.Base(p))
		}
	}
	return nil
}

// recoverWAL scans the log, truncates a torn tail, and primes the counters.
// The scan distinguishes a torn tail (the failure reaches end of file — the
// signature of a crash mid-append) from mid-log corruption (valid-looking
// data continues after the bad record), which is a hard ErrCorrupt: guessing
// a resync point would silently drop acknowledged generations.
func (s *FileStore) recoverWAL(wal *os.File) error {
	data, err := os.ReadFile(s.path(walName))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	validEnd, records, lastGen, err := scanWAL(data, nil)
	if err != nil {
		return fmt.Errorf("store: %s: %w", walName, err)
	}
	if validEnd < int64(len(data)) {
		// Torn tail: drop the partial record so the next append starts on
		// a clean boundary.
		if err := wal.Truncate(validEnd); err != nil {
			return fmt.Errorf("store: truncate torn tail: %w", err)
		}
		if err := wal.Sync(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	if _, err := wal.Seek(validEnd, 0); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.walBytes = validEnd
	s.walRecords = records
	if lastGen > s.lastGen {
		s.lastGen = lastGen
	}
	return nil
}

// scanWAL walks the framed records in data, calling fn (when non-nil) for
// each. It returns the byte offset after the last valid record, the record
// count, and the last record's generation. A failure that plausibly ends the
// file — short header, payload running past EOF, or a checksum mismatch on
// the final record — is a torn tail: scanning stops at the last good offset
// with no error. Anything else (bad checksum or undecodable payload with
// more data following, a generation gap) returns ErrCorrupt.
//
// Generations must increase by exactly one from record to record; records at
// or below snapGen are legal (a crash between snapshot rename and WAL
// truncation leaves them) and are skipped by Replay, not by the scan.
func scanWAL(data []byte, fn func(gen uint64, m Mutation) error) (validEnd int64, records int64, lastGen uint64, err error) {
	off := 0
	prevGen := uint64(0)
	for off < len(data) {
		rest := len(data) - off
		if rest < frameHeaderSize {
			return int64(off), records, lastGen, nil // torn header
		}
		payloadLen := int(binary.LittleEndian.Uint32(data[off:]))
		wantCRC := binary.LittleEndian.Uint32(data[off+4:])
		if payloadLen > maxRecordBytes {
			if off+frameHeaderSize+payloadLen >= len(data) {
				return int64(off), records, lastGen, nil // torn or garbage tail
			}
			return 0, 0, 0, fmt.Errorf("%w: record at offset %d claims %d bytes", ErrCorrupt, off, payloadLen)
		}
		if rest < frameHeaderSize+payloadLen {
			return int64(off), records, lastGen, nil // torn payload
		}
		payload := data[off+frameHeaderSize : off+frameHeaderSize+payloadLen]
		if crc32.ChecksumIEEE(payload) != wantCRC {
			if off+frameHeaderSize+payloadLen == len(data) {
				// The final record: a crash can tear the payload bytes
				// themselves, so a bad checksum at EOF is a torn tail.
				return int64(off), records, lastGen, nil
			}
			return 0, 0, 0, fmt.Errorf("%w: record at offset %d fails checksum with %d bytes following",
				ErrCorrupt, off, rest-frameHeaderSize-payloadLen)
		}
		gen, m, derr := decodeMutation(payload)
		if derr != nil {
			return 0, 0, 0, fmt.Errorf("%w: record at offset %d: %v", ErrCorrupt, off, derr)
		}
		if records > 0 && gen != prevGen+1 {
			return 0, 0, 0, fmt.Errorf("%w: generation %d follows %d at offset %d", ErrCorrupt, gen, prevGen, off)
		}
		if fn != nil {
			if err := fn(gen, m); err != nil {
				return 0, 0, 0, err
			}
		}
		prevGen, lastGen = gen, gen
		records++
		off += frameHeaderSize + payloadLen
	}
	return int64(off), records, lastGen, nil
}

// Append durably logs the mutation producing generation gen: the framed
// record is written and fsynced before Append returns, so a crash at any
// later point replays it. Generations must be contiguous.
func (s *FileStore) Append(gen uint64, m Mutation) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if gen != s.lastGen+1 {
		return fmt.Errorf("store: append generation %d, want %d", gen, s.lastGen+1)
	}
	frame := appendFrame(nil, gen, m)
	if _, err := s.wal.Write(frame); err != nil {
		// A short write leaves a torn tail; roll it back eagerly so the
		// running process stays usable (recovery would also truncate it).
		_ = s.wal.Truncate(s.walBytes)
		_, _ = s.wal.Seek(s.walBytes, 0)
		return fmt.Errorf("store: append: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("store: append fsync: %w", err)
	}
	s.walBytes += int64(len(frame))
	s.walRecords++
	s.lastGen = gen
	return nil
}

// Replay streams the logged mutations with generation > after, in order.
func (s *FileStore) Replay(after uint64, fn func(gen uint64, m Mutation) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	data, err := os.ReadFile(s.path(walName))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if int64(len(data)) > s.walBytes {
		data = data[:s.walBytes]
	}
	_, _, _, err = scanWAL(data, func(gen uint64, m Mutation) error {
		if gen <= after {
			return nil
		}
		return fn(gen, m)
	})
	return err
}

// Snapshot durably writes the state of generation gen and truncates the WAL
// records it supersedes. The write is atomic — temp file, fsync, rename,
// directory fsync — so a crash at any point leaves either the old snapshot
// or the new one, never a partial file, and the WAL is only truncated after
// the rename is durable.
func (s *FileStore) Snapshot(gen uint64, db *relation.Database) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	data := encodeSnapshot(gen, db)
	if err := writeFileSync(s.path(snapTmpName), data); err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	if err := os.Rename(s.path(snapTmpName), s.path(snapName)); err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	s.snapGen, s.snapBytes = gen, int64(len(data))
	if gen > s.lastGen {
		s.lastGen = gen
	}
	return s.truncateWAL(gen)
}

// truncateWAL drops records with generation <= upTo. The common case — the
// snapshot covers the whole log — truncates in place; snapshotting behind
// the log tail rewrites the retained suffix through a temp file.
func (s *FileStore) truncateWAL(upTo uint64) error {
	if upTo >= s.lastGen || s.walRecords == 0 {
		if err := s.wal.Truncate(0); err != nil {
			return fmt.Errorf("store: truncate wal: %w", err)
		}
		if _, err := s.wal.Seek(0, 0); err != nil {
			return fmt.Errorf("store: truncate wal: %w", err)
		}
		if err := s.wal.Sync(); err != nil {
			return fmt.Errorf("store: truncate wal: %w", err)
		}
		s.walBytes, s.walRecords = 0, 0
		return nil
	}
	data, err := os.ReadFile(s.path(walName))
	if err != nil {
		return fmt.Errorf("store: truncate wal: %w", err)
	}
	var retained []byte
	var records int64
	_, _, _, err = scanWAL(data[:s.walBytes], func(gen uint64, m Mutation) error {
		if gen > upTo {
			retained = appendFrame(retained, gen, m)
			records++
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("store: truncate wal: %w", err)
	}
	if err := writeFileSync(s.path(walTmpName), retained); err != nil {
		return fmt.Errorf("store: truncate wal: %w", err)
	}
	if err := os.Rename(s.path(walTmpName), s.path(walName)); err != nil {
		return fmt.Errorf("store: truncate wal: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("store: truncate wal: %w", err)
	}
	wal, err := os.OpenFile(s.path(walName), os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: truncate wal: %w", err)
	}
	if _, err := wal.Seek(int64(len(retained)), 0); err != nil {
		wal.Close()
		return fmt.Errorf("store: truncate wal: %w", err)
	}
	s.wal.Close()
	s.wal = wal
	s.walBytes, s.walRecords = int64(len(retained)), records
	return nil
}

// Load decodes the latest durable snapshot, or returns (nil, 0, nil) when
// none has been written yet.
func (s *FileStore) Load() (*relation.Database, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, 0, ErrClosed
	}
	data, err := os.ReadFile(s.path(snapName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	db, gen, err := decodeSnapshot(data)
	if err != nil {
		return nil, 0, fmt.Errorf("store: %s: %w", snapName, err)
	}
	return db, gen, nil
}

// Stats reports the store's durable state.
func (s *FileStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		WALBytes:      s.walBytes,
		WALRecords:    s.walRecords,
		SnapshotGen:   s.snapGen,
		SnapshotBytes: s.snapBytes,
	}
}

// Close releases the WAL handle. Appended records are already durable, so
// Close has nothing to flush.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.wal.Close()
}

// writeFileSync writes data to path and fsyncs the file before returning.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a just-renamed entry is durable. Some
// filesystems reject directory fsync outright; that degrades durability of
// the rename, not correctness, so those rejections are ignored.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	d.Close()
	if errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) {
		return nil
	}
	return err
}
