package store

import (
	"fmt"
	"reflect"
	"testing"
)

func openTest(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, Options{SyncInterval: -1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// drain pulls every record from src via the cursor protocol, as the
// anti-entropy loop does.
func drain(t *testing.T, src *Store, gen uint64, off int64, maxBytes int) ([]Record, uint64, int64) {
	t.Helper()
	var out []Record
	for {
		recs, g, next, more, err := src.Since(gen, off, maxBytes)
		if err != nil {
			t.Fatalf("since(%d,%d): %v", gen, off, err)
		}
		out = append(out, recs...)
		gen, off = g, next
		if !more {
			return out, gen, off
		}
	}
}

func TestSinceReturnsAppendsInOrder(t *testing.T) {
	s := openTest(t, t.TempDir())
	for i := 0; i < 5; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf(`{"v":%d}`, i))); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	recs, gen, off := drain(t, s, 0, 0, 0)
	if len(recs) != 5 {
		t.Fatalf("got %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if want := fmt.Sprintf("k%d", i); r.Key != want {
			t.Fatalf("record %d key %q, want %q", i, r.Key, want)
		}
	}
	// The cursor is caught up: a fresh pull returns nothing until a write.
	more, g2, off2 := mustSinceEmpty(t, s, gen, off)
	if more || g2 != gen || off2 != off {
		t.Fatalf("caught-up cursor moved: more=%v gen %d->%d off %d->%d", more, gen, g2, off, off2)
	}
	if err := s.Put("k9", []byte(`{"v":9}`)); err != nil {
		t.Fatalf("put: %v", err)
	}
	recs2, _, _ := drain(t, s, gen, off, 0)
	if len(recs2) != 1 || recs2[0].Key != "k9" {
		t.Fatalf("incremental pull got %+v, want just k9", recs2)
	}
}

func mustSinceEmpty(t *testing.T, s *Store, gen uint64, off int64) (bool, uint64, int64) {
	t.Helper()
	recs, g, next, more, err := s.Since(gen, off, 0)
	if err != nil {
		t.Fatalf("since: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("expected empty page, got %d records", len(recs))
	}
	return more, g, next
}

func TestSincePagesBySmallMaxBytes(t *testing.T) {
	s := openTest(t, t.TempDir())
	for i := 0; i < 20; i++ {
		if err := s.Put(fmt.Sprintf("key-%02d", i), []byte(`{"payload":"0123456789"}`)); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	// A page far smaller than the log forces the straddling-record retry
	// path; every record must still arrive exactly once, in order.
	recs, _, _ := drain(t, s, 0, 0, 100)
	if len(recs) != 20 {
		t.Fatalf("paged drain got %d records, want 20", len(recs))
	}
	for i, r := range recs {
		if want := fmt.Sprintf("key-%02d", i); r.Key != want {
			t.Fatalf("record %d key %q, want %q", i, r.Key, want)
		}
	}
}

func TestSinceStaleGenerationRestartsFromZero(t *testing.T) {
	s := openTest(t, t.TempDir())
	for i := 0; i < 6; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i%2), []byte(fmt.Sprintf(`{"v":%d}`, i))); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	_, gen, off := drain(t, s, 0, 0, 0)
	if err := s.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if s.Generation() == gen {
		t.Fatalf("compaction did not bump the generation")
	}
	// The pre-compaction cursor restarts from zero and re-reads the whole
	// (compacted) log: newest record per key.
	recs, _, _ := drain(t, s, gen, off, 0)
	if len(recs) != 2 {
		t.Fatalf("post-compaction drain got %d records, want 2 live keys", len(recs))
	}
}

func TestApplyIsIdempotentAndConverges(t *testing.T) {
	dir := t.TempDir()
	a := openTest(t, dir+"/a")
	b := openTest(t, dir+"/b")
	if err := a.Put("shared", []byte(`{"v":1}`)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := a.Put("only-a", []byte(`{"v":2}`)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := b.Put("only-b", []byte(`{"v":3}`)); err != nil {
		t.Fatalf("put: %v", err)
	}

	// One mutual anti-entropy round: a→b, b→a.
	pull := func(dst, src *Store) int {
		applied := 0
		recs, _, _ := drain(t, src, 0, 0, 0)
		for _, r := range recs {
			did, err := dst.Apply(r.Key, r.Value)
			if err != nil {
				t.Fatalf("apply: %v", err)
			}
			if did {
				applied++
			}
		}
		return applied
	}
	if n := pull(b, a); n != 2 {
		t.Fatalf("b applied %d records from a, want 2", n)
	}
	if n := pull(a, b); n != 1 {
		t.Fatalf("a applied %d records from b, want 1 (shared and only-a must be skipped)", n)
	}
	if !reflect.DeepEqual(a.Keys(), b.Keys()) {
		t.Fatalf("key sets diverge: a=%v b=%v", a.Keys(), b.Keys())
	}
	// A second round is fully quiescent: no record ping-pongs.
	if n := pull(b, a); n != 0 {
		t.Fatalf("second round applied %d records into b, want 0", n)
	}
	if n := pull(a, b); n != 0 {
		t.Fatalf("second round applied %d records into a, want 0", n)
	}
	for _, key := range []string{"shared", "only-a", "only-b"} {
		va, ok := a.Get(key)
		if !ok {
			t.Fatalf("a missing %q", key)
		}
		vb, ok := b.Get(key)
		if !ok {
			t.Fatalf("b missing %q", key)
		}
		if string(va) != string(vb) {
			t.Fatalf("value for %q diverges: %s vs %s", key, va, vb)
		}
	}
}

func TestSinceSkipsCorruptRecords(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	if err := s.Put("good-1", []byte(`{"v":1}`)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := s.Put("bad", []byte(`{"v":2}`)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := s.Put("good-2", []byte(`{"v":3}`)); err != nil {
		t.Fatalf("put: %v", err)
	}
	// Flip one payload byte of the middle record on disk.
	s.mu.Lock()
	var buf [1]byte
	// The middle record starts after record 1; find "bad" by scanning the
	// raw page we just wrote.
	page := make([]byte, s.size)
	if _, err := s.f.ReadAt(page, 0); err != nil {
		s.mu.Unlock()
		t.Fatalf("read: %v", err)
	}
	idx := int64(-1)
	for i := range page {
		if i+3 <= len(page) && string(page[i:i+3]) == "bad" {
			idx = int64(i)
			break
		}
	}
	if idx < 0 {
		s.mu.Unlock()
		t.Fatalf("marker not found in log")
	}
	buf[0] = page[idx] ^ 0xFF
	if _, err := s.f.WriteAt(buf[:], idx); err != nil {
		s.mu.Unlock()
		t.Fatalf("corrupt write: %v", err)
	}
	s.mu.Unlock()

	recs, _, _ := drain(t, s, 0, 0, 0)
	keys := make([]string, 0, len(recs))
	for _, r := range recs {
		keys = append(keys, r.Key)
	}
	if !reflect.DeepEqual(keys, []string{"good-1", "good-2"}) {
		t.Fatalf("replication served corrupt record: got %v", keys)
	}
}

// isClosed reports whether ch is closed, without blocking.
func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// TestChangedWakesOnAppendCompactAndClose pins the tip notification a
// long-polled replicate pull parks on: the channel for a caught-up
// cursor stays open until an append (Put or Apply), a compaction, or
// Close, and a cursor the log already moved past gets a closed one.
func TestChangedWakesOnAppendCompactAndClose(t *testing.T) {
	s := openTest(t, t.TempDir())
	if err := s.Put("k0", []byte(`{"v":0}`)); err != nil {
		t.Fatal(err)
	}
	if s.tip != nil {
		t.Fatal("Put allocated a tip channel with nobody waiting")
	}
	_, gen, off := drain(t, s, 0, 0, 0)

	ch := s.Changed(gen, off)
	if isClosed(ch) {
		t.Fatal("caught-up cursor: channel already closed")
	}
	if again := s.Changed(gen, off); again != ch {
		t.Fatal("two waiters on the same tip got different channels")
	}
	if err := s.Put("k1", []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	if !isClosed(ch) {
		t.Fatal("Put did not wake the waiter")
	}
	if !isClosed(s.Changed(gen, off)) {
		t.Fatal("a cursor behind the tip got an open channel")
	}

	_, gen, off = drain(t, s, gen, off, 0)
	ch = s.Changed(gen, off)
	if _, err := s.Apply("k1", []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	if isClosed(ch) {
		t.Fatal("an Apply that appended nothing woke the waiter")
	}
	if _, err := s.Apply("k2", []byte(`{"v":2}`)); err != nil {
		t.Fatal(err)
	}
	if !isClosed(ch) {
		t.Fatal("Apply did not wake the waiter")
	}

	_, gen, off = drain(t, s, gen, off, 0)
	ch = s.Changed(gen, off)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if !isClosed(ch) {
		t.Fatal("Compact did not wake the waiter")
	}
	// The old cursor is stale now; resuming from it re-reads the new
	// generation from the top and loses nothing.
	recs, gen, off := drain(t, s, gen, off, 0)
	if len(recs) != 3 || gen != s.Generation() {
		t.Fatalf("after compaction: %d records at gen %d, want 3 at gen %d", len(recs), gen, s.Generation())
	}

	ch = s.Changed(gen, off)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !isClosed(ch) {
		t.Fatal("Close did not wake the waiter")
	}
	if !isClosed(s.Changed(gen, off)) {
		t.Fatal("a closed store handed out an open channel")
	}
}
