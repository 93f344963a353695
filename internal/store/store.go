// Package store is a dependency-free, crash-safe, append-only key/value
// store for verification verdicts. The on-disk format is a single log file
// of length-prefixed, CRC32C-checksummed JSON records keyed by the
// service's content-address fingerprint; the read path is an in-memory
// index rebuilt by a recovery scan at Open.
//
// The durability model is deliberately modest — entries are cache lines,
// not ledger rows. Appends are batched to one fsync per SyncInterval, so a
// crash can lose at most the last interval's records; the recovery scan
// tolerates a torn tail (truncated, not failed) and skips records whose
// checksum does not match (counted and logged, not failed). A
// size-triggered compaction rewrites the newest record per key into a
// fresh log and swaps it in with an atomic rename.
package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

const (
	// logName is the log file inside the store directory.
	logName = "verdicts.log"
	// compactSuffix names the compaction rewrite temp next to the log;
	// its rename over logName is the commit point, and Open sweeps any
	// crash leftover.
	compactSuffix = ".compact"
	// headerSize is the per-record prefix: uint32 payload length plus
	// uint32 CRC32C of the payload, both little-endian.
	headerSize = 8
	// maxRecordBytes bounds one record's payload. Verdict JSON is a few KiB
	// even with full pass spans; the bound exists so a corrupted length
	// field cannot send the recovery scan gigabytes off the rails.
	maxRecordBytes = 16 << 20

	defaultSyncInterval = 100 * time.Millisecond
	defaultCompactAt    = 8 << 20
)

// castagnoli is the CRC32C polynomial table (the same checksum SSDs and
// gRPC use; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options tunes a store. The zero value is production-ready.
type Options struct {
	// SyncInterval batches fsyncs: appends mark the log dirty and a
	// background flusher syncs at this cadence (default 100ms). Negative
	// syncs on every Put (slow; tests and one-shot CLI use).
	SyncInterval time.Duration
	// CompactAt is the log size in bytes past which an append triggers a
	// compaction rewrite, provided the log is also at least twice the live
	// data size (default 8 MiB). Negative disables auto-compaction.
	CompactAt int64
	// Logger receives recovery and compaction records. Nil discards.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.SyncInterval == 0 {
		o.SyncInterval = defaultSyncInterval
	}
	if o.CompactAt == 0 {
		o.CompactAt = defaultCompactAt
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return o
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	// Keys is the number of live keys in the index.
	Keys int
	// LogBytes is the current log file size.
	LogBytes int64
	// LiveBytes is the space the newest record per key occupies; the gap
	// to LogBytes is garbage a compaction would reclaim.
	LiveBytes int64
	// RecoveredRecords counts valid records read back by the Open scan.
	RecoveredRecords int64
	// SkippedCorrupt counts records the Open scan dropped on a CRC or
	// decode mismatch.
	SkippedCorrupt int64
	// TruncatedBytes counts trailing bytes the Open scan cut off as a torn
	// tail.
	TruncatedBytes int64
	// SweptTempFiles counts crash-leftover compaction temps removed at
	// Open (a kill between the temp write and its rename commit leaks the
	// temp; the old log stays authoritative, so the leftover is garbage).
	SweptTempFiles int64
	// Appends counts Put calls that reached the log.
	Appends int64
	// Compactions counts completed compaction rewrites.
	Compactions int64
	// Syncs counts fsyncs issued (batched flushes, compactions, Close).
	Syncs int64
}

// record is the JSON payload of one log entry.
type record struct {
	Key   string          `json:"k"`
	Value json.RawMessage `json:"v"`
}

// entry is one live index slot.
type entry struct {
	value []byte
	size  int64 // full on-disk record size (header + payload)
}

// Store is an open verdict store. All methods are safe for concurrent use.
type Store struct {
	dir  string
	path string
	opts Options
	log  *slog.Logger

	mu    sync.Mutex
	f     *os.File
	size  int64 // current log file size
	live  int64 // sum of entry.size over the index
	index map[string]entry
	dirty bool
	stats Stats
	done  bool
	// gen identifies this log's byte layout for replication cursors; it is
	// process-unique at Open and bumps on every compaction, which rewrites
	// the log and invalidates byte offsets (see Since in replicate.go).
	gen uint64
	// tip is closed when the log moves: an append, a compaction or Close
	// (see Changed in replicate.go). Nil while nobody waits, so a store
	// that no peer long-polls allocates nothing per Put.
	tip chan struct{}

	flushStop chan struct{}
	flushDone chan struct{}
}

// Open creates dir if needed, replays the log into the in-memory index
// (tolerating a torn tail and skipping corrupt records), truncates any
// trailing garbage, and starts the batched-fsync flusher.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	path := filepath.Join(dir, logName)
	// Sweep crash leftovers before touching the log: a process killed
	// mid-compaction leaves <log>.compact behind (the rename never
	// committed, so the old log is still the authoritative copy).
	swept := int64(0)
	if err := os.Remove(path + compactSuffix); err == nil {
		swept++
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: sweep stale compaction temp: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:       dir,
		path:      path,
		opts:      opts,
		log:       opts.Logger,
		f:         f,
		index:     make(map[string]entry),
		gen:       newGeneration(),
		flushStop: make(chan struct{}),
		flushDone: make(chan struct{}),
	}
	s.stats.SweptTempFiles = swept
	if err := s.recover(); err != nil {
		f.Close()
		return nil, err
	}
	if swept > 0 {
		s.log.Info("store: swept stale compaction temp", "path", path+compactSuffix)
	}
	go s.flusher()
	return s, nil
}

// recover scans the log from the start, rebuilding the index. Valid
// records win newest-last; corrupt records are skipped and counted; a torn
// tail (short header, short payload, or implausible length) ends the scan
// and is truncated away so future appends start on a clean boundary.
func (s *Store) recover() error {
	data, err := io.ReadAll(s.f)
	if err != nil {
		return fmt.Errorf("store: read log: %w", err)
	}
	off := int64(0)
	for {
		rest := data[off:]
		if len(rest) < headerSize {
			if len(rest) > 0 {
				s.stats.TruncatedBytes = int64(len(rest))
			}
			break
		}
		length := binary.LittleEndian.Uint32(rest[0:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if length == 0 || length > maxRecordBytes {
			// A corrupted length field: nothing beyond this point can be
			// trusted to be record-aligned, so the rest is a torn tail.
			s.stats.TruncatedBytes = int64(len(rest))
			break
		}
		if int64(len(rest)) < headerSize+int64(length) {
			s.stats.TruncatedBytes = int64(len(rest))
			break
		}
		payload := rest[headerSize : headerSize+int64(length)]
		recSize := headerSize + int64(length)
		if crc32.Checksum(payload, castagnoli) != sum {
			s.stats.SkippedCorrupt++
			s.log.Warn("store: skipping corrupt record (crc mismatch)",
				"offset", off, "bytes", recSize)
			off += recSize
			continue
		}
		var rec record
		if err := json.Unmarshal(payload, &rec); err != nil || rec.Key == "" {
			s.stats.SkippedCorrupt++
			s.log.Warn("store: skipping undecodable record", "offset", off, "bytes", recSize)
			off += recSize
			continue
		}
		if old, ok := s.index[rec.Key]; ok {
			s.live -= old.size
		}
		s.index[rec.Key] = entry{value: rec.Value, size: recSize}
		s.live += recSize
		s.stats.RecoveredRecords++
		off += recSize
	}
	if s.stats.TruncatedBytes > 0 {
		s.log.Warn("store: truncating torn tail", "offset", off, "bytes", s.stats.TruncatedBytes)
		if err := s.f.Truncate(off); err != nil {
			return fmt.Errorf("store: truncate torn tail: %w", err)
		}
	}
	if _, err := s.f.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.size = off
	if s.stats.RecoveredRecords > 0 || s.stats.SkippedCorrupt > 0 {
		s.log.Info("store: recovered",
			"keys", len(s.index),
			"records", s.stats.RecoveredRecords,
			"skipped_corrupt", s.stats.SkippedCorrupt,
			"truncated_bytes", s.stats.TruncatedBytes,
			"log_bytes", s.size)
	}
	return nil
}

// flusher batches appends into one fsync per SyncInterval.
func (s *Store) flusher() {
	defer close(s.flushDone)
	if s.opts.SyncInterval < 0 {
		return // every Put syncs inline
	}
	t := time.NewTicker(s.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.mu.Lock()
			if s.dirty && !s.done {
				if err := s.syncLocked(); err != nil {
					s.log.Warn("store: batched fsync failed", "error", err)
				}
			}
			s.mu.Unlock()
		case <-s.flushStop:
			return
		}
	}
}

// syncLocked fsyncs the log (s.mu held).
func (s *Store) syncLocked() error {
	if err := s.f.Sync(); err != nil {
		return err
	}
	s.dirty = false
	s.stats.Syncs++
	return nil
}

// Get returns a copy of the newest value stored under key.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.index[key]
	if !ok {
		return nil, false
	}
	out := make([]byte, len(e.value))
	copy(out, e.value)
	return out, true
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Put appends a record for key and updates the index. The write is
// durable after the next batched fsync (or immediately with a negative
// SyncInterval). Crossing the compaction threshold triggers an inline
// compaction rewrite.
func (s *Store) Put(key string, value []byte) error {
	if key == "" {
		return fmt.Errorf("store: empty key")
	}
	payload, err := json.Marshal(record{Key: key, Value: json.RawMessage(value)})
	if err != nil {
		return fmt.Errorf("store: encode record: %w", err)
	}
	if len(payload) > maxRecordBytes {
		return fmt.Errorf("store: record %d bytes exceeds cap %d", len(payload), maxRecordBytes)
	}
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return fmt.Errorf("store: closed")
	}
	if _, err := s.f.Write(hdr[:]); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	if _, err := s.f.Write(payload); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	recSize := int64(headerSize + len(payload))
	s.size += recSize
	if old, ok := s.index[key]; ok {
		s.live -= old.size
	}
	v := make([]byte, len(value))
	copy(v, value)
	s.index[key] = entry{value: v, size: recSize}
	s.live += recSize
	s.stats.Appends++
	s.dirty = true
	s.wakeLocked()
	if s.opts.SyncInterval < 0 {
		if err := s.syncLocked(); err != nil {
			return fmt.Errorf("store: sync: %w", err)
		}
	}
	if s.opts.CompactAt > 0 && s.size >= s.opts.CompactAt && s.size >= 2*s.live {
		if err := s.compactLocked(); err != nil {
			// The log is still valid (compaction swaps atomically), so a
			// failed rewrite degrades to a bigger file, not data loss.
			s.log.Warn("store: compaction failed", "error", err)
		}
	}
	return nil
}

// Sync forces an fsync of any buffered appends.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return fmt.Errorf("store: closed")
	}
	if !s.dirty {
		return nil
	}
	return s.syncLocked()
}

// Compact rewrites the log to hold only the newest record per key and
// atomically swaps it in.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return fmt.Errorf("store: closed")
	}
	return s.compactLocked()
}

// compactLocked writes every live record to a temp file, fsyncs, renames
// it over the log, and reopens the handle (s.mu held). The rename is the
// commit point: a crash before it leaves the old log untouched, a crash
// after it leaves the compacted log.
func (s *Store) compactLocked() error {
	tmpPath := s.path + compactSuffix
	tmp, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer os.Remove(tmpPath) // no-op after the rename commits
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var newSize int64
	newIndex := make(map[string]entry, len(keys))
	for _, k := range keys {
		payload, err := json.Marshal(record{Key: k, Value: json.RawMessage(s.index[k].value)})
		if err != nil {
			tmp.Close()
			return err
		}
		var hdr [headerSize]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
		if _, err := tmp.Write(hdr[:]); err != nil {
			tmp.Close()
			return err
		}
		if _, err := tmp.Write(payload); err != nil {
			tmp.Close()
			return err
		}
		recSize := headerSize + int64(len(payload))
		newIndex[k] = entry{value: s.index[k].value, size: recSize}
		newSize += recSize
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpPath, s.path); err != nil {
		return err
	}
	syncDir(s.dir)
	old := s.f
	f, err := os.OpenFile(s.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		// The data on disk is the compacted log; losing the handle means
		// losing the ability to append, which is fatal for this Store.
		return fmt.Errorf("reopen after compaction: %w", err)
	}
	old.Close()
	reclaimed := s.size - newSize
	s.f = f
	s.gen = newGeneration() // byte offsets changed; invalidate replication cursors
	s.wakeLocked()
	s.size = newSize
	s.live = newSize
	s.index = newIndex
	s.dirty = false
	s.stats.Compactions++
	s.stats.Syncs++
	s.log.Info("store: compacted", "keys", len(newIndex),
		"log_bytes", newSize, "reclaimed_bytes", reclaimed)
	return nil
}

// syncDir fsyncs a directory so a just-renamed file's entry is durable;
// best-effort (some platforms reject directory fsync).
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	d.Close()
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Keys = len(s.index)
	st.LogBytes = s.size
	st.LiveBytes = s.live
	return st
}

// Close flushes pending appends and closes the log. The store is unusable
// afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return nil
	}
	s.done = true
	s.wakeLocked()
	var err error
	if s.dirty {
		err = s.syncLocked()
	}
	cerr := s.f.Close()
	s.mu.Unlock()
	close(s.flushStop)
	<-s.flushDone
	if err != nil {
		return err
	}
	return cerr
}
