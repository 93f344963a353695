package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"sort"
	"sync/atomic"
	"time"
)

// The replication surface turns the store's append-only log into an
// anti-entropy unit: a peer pulls records it has not seen yet with Since
// and applies them with Apply, which skips values it already holds, so
// two stores pulling from each other converge on the union of their
// records without echoing entries back and forth forever.
//
// Cursors are (generation, offset) pairs. The offset is a byte position
// in the log file, valid only while the bytes before it are unchanged;
// compaction rewrites the log, so it bumps the generation, and a cursor
// carrying a stale generation restarts from offset zero. Generations are
// process-unique (open time plus a counter), so a restarted store also
// invalidates old cursors — idempotent Apply makes the resulting re-pull
// a cheap no-op stream.

// genCounter disambiguates stores opened within the same nanosecond.
var genCounter atomic.Uint64

// newGeneration returns a fresh, process-unique log generation.
func newGeneration() uint64 {
	return uint64(time.Now().UnixNano()) + genCounter.Add(1)
}

// Record is one replicated log entry: the content-address key and the
// raw value bytes exactly as stored.
type Record struct {
	Key   string
	Value []byte
}

// DefaultSinceBytes bounds one Since page when the caller passes a
// non-positive maxBytes.
const DefaultSinceBytes = 1 << 20

// Since returns the log records starting at the (gen, offset) cursor, up
// to maxBytes of on-disk record data per page (non-positive means the
// 1 MiB default). It returns the records in log order, the cursor for
// the next page, and whether more records already exist past it. A
// cursor whose generation does not match the live log (compaction or
// restart happened) is reset to the start of the current log; callers
// keep pulling until more is false.
//
// Records the recovery scan would skip (corrupt CRC, undecodable) are
// skipped here too, so replication never propagates a record the origin
// itself refuses to serve.
func (s *Store) Since(gen uint64, offset int64, maxBytes int) (recs []Record, nextGen uint64, nextOffset int64, more bool, err error) {
	if maxBytes <= 0 {
		maxBytes = DefaultSinceBytes
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return nil, 0, 0, false, fmt.Errorf("store: closed")
	}
	if gen != s.gen || offset < 0 || offset > s.size {
		offset = 0
	}
	end := offset + int64(maxBytes)
	if end > s.size {
		end = s.size
	}
	if offset >= s.size {
		return nil, s.gen, offset, false, nil
	}
	buf := make([]byte, end-offset)
	if _, err := s.f.ReadAt(buf, offset); err != nil {
		return nil, 0, 0, false, fmt.Errorf("store: read log page: %w", err)
	}
	pos := int64(0)
	for {
		rest := buf[pos:]
		if len(rest) < headerSize {
			break
		}
		length := binary.LittleEndian.Uint32(rest[0:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if length == 0 || length > maxRecordBytes {
			// recover() would have truncated this at Open; mid-log it cannot
			// happen short of external corruption. Stop the page here.
			break
		}
		recSize := headerSize + int64(length)
		if int64(len(rest)) < recSize {
			break // record straddles the page boundary; next page re-reads it
		}
		payload := rest[headerSize:recSize]
		pos += recSize
		if crc32.Checksum(payload, castagnoli) != sum {
			continue
		}
		var rec record
		if err := json.Unmarshal(payload, &rec); err != nil || rec.Key == "" {
			continue
		}
		recs = append(recs, Record{Key: rec.Key, Value: rec.Value})
	}
	nextOffset = offset + pos
	return recs, s.gen, nextOffset, nextOffset < s.size, nil
}

// closedTip is the already-closed channel Changed returns for a cursor
// the log has moved past.
var closedTip = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Changed returns a channel that is closed once the log moves past the
// (gen, offset) cursor: a record is appended beyond offset, a compaction
// bumps the generation, or the store closes. A cursor that is already
// stale (another generation, an offset short of the tip) or a closed
// store gets a closed channel, so a caller that read an empty Since page
// and then waits here cannot miss an append that landed in between. The
// channel is allocated only while someone waits; Put closes and drops it.
func (s *Store) Changed(gen uint64, offset int64) <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done || gen != s.gen || offset != s.size {
		return closedTip
	}
	if s.tip == nil {
		s.tip = make(chan struct{})
	}
	return s.tip
}

// wakeLocked releases every Changed waiter (s.mu held).
func (s *Store) wakeLocked() {
	if s.tip != nil {
		close(s.tip)
		s.tip = nil
	}
}

// Apply stores a replicated record unless an identical value is already
// held under the key, reporting whether anything was appended. The skip
// is what keeps mutual anti-entropy loops quiescent: a record pulled
// from a peer and applied here will not be re-appended when the peer
// pulls it back.
func (s *Store) Apply(key string, value []byte) (bool, error) {
	if key == "" {
		return false, fmt.Errorf("store: empty key")
	}
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return false, fmt.Errorf("store: closed")
	}
	if e, ok := s.index[key]; ok && bytes.Equal(e.value, value) {
		s.mu.Unlock()
		return false, nil
	}
	s.mu.Unlock()
	if err := s.Put(key, value); err != nil {
		return false, err
	}
	return true, nil
}

// Generation returns the live log generation (see Since for the cursor
// contract).
func (s *Store) Generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// Keys returns the live key set, sorted. Replication convergence tests
// compare peers by it.
func (s *Store) Keys() []string {
	s.mu.Lock()
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	s.mu.Unlock()
	sort.Strings(keys)
	return keys
}
