package verify

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"

	"nonmask/internal/obs"
)

// The spill tier (DESIGN §13). When an instance's CSR does not fit the
// in-RAM budget, the index arrays are written to anonymous temp files in
// the spill directory, chunk by chunk as the walk finishes them, and
// mapped read-only for the passes — converge/leads_to/stair then stream
// edges at page-cache/disk bandwidth instead of recomputing guards. BFS
// frontiers that outgrow their run threshold overflow to sorted temp-file
// runs drained by a streaming k-way merge.
//
// Temp-file hygiene: segments and runs are opened with O_TMPFILE (never
// visible in the directory, reclaimed by the kernel on any exit) and fall
// back to named ".csspill-<pid>-<seq>" files that are removed on Close;
// opening an arena first sweeps the directory for named leftovers of dead
// processes, so a crash mid-spill never leaks disk past the next run.

const (
	// oTmpfileLinux is O_TMPFILE (__O_TMPFILE|O_DIRECTORY) on linux; the
	// syscall package predates the flag so it is spelled here.
	oTmpfileLinux = 0x410000
	// spillPrefix names the visible fallback files the crash sweep scans.
	spillPrefix = ".csspill-"
	// spoolBatchEntries is the merge drain's batch size.
	spoolBatchEntries = 1 << 20
)

// spoolRunEntries is a frontier spool's per-worker buffer threshold: past
// it the buffer is sorted and flushed to a run file (8 MiB). A var so
// tests can force every traversal through the run-merge drain.
var spoolRunEntries = 1 << 20

// spillNoOTmpfile forces the named-file fallback; the crash-sweep test
// sets it so mid-kill leftovers are actually visible on disk.
var spillNoOTmpfile bool

// spillArena owns every disk-backed artifact of one spill-mode space: the
// mmap'd CSR segment files and the byte accounting the `spill` span and
// csserved's spill counter report. The Space that created it closes it;
// derived stage spaces share it by pointer without ownership.
type spillArena struct {
	dir string

	mu       sync.Mutex
	seq      int
	segs     []*spillSeg
	segBytes int64
	closed   bool

	spooled atomic.Int64 // bytes written through frontier spools
}

// spillSeg is one mmap-backed segment file.
type spillSeg struct {
	f    *os.File
	path string // non-empty when the named fallback was used
	data []byte
}

// newSpillArena opens (creating if needed) the spill directory, sweeps
// named leftovers of dead processes, and returns an empty arena.
func newSpillArena(dir string) (*spillArena, error) {
	if dir == "" {
		dir = os.TempDir()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("verify: spill dir: %w", err)
	}
	sweepSpillLeftovers(dir)
	return &spillArena{dir: dir}, nil
}

// sweepSpillLeftovers removes ".csspill-<pid>-*" files whose pid is no
// longer alive — the crash-recovery half of the temp hygiene contract
// (O_TMPFILE files need no sweep; the kernel reclaims them).
func sweepSpillLeftovers(dir string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, spillPrefix) {
			continue
		}
		rest := name[len(spillPrefix):]
		dash := strings.IndexByte(rest, '-')
		if dash <= 0 {
			continue
		}
		pid, err := strconv.Atoi(rest[:dash])
		if err != nil || pid <= 0 || pid == os.Getpid() || processAlive(pid) {
			continue
		}
		_ = os.Remove(filepath.Join(dir, name))
	}
}

// processAlive probes a pid with signal 0. EPERM means the process exists
// but belongs to someone else — alive, so its files are left in place.
func processAlive(pid int) bool {
	err := syscall.Kill(pid, 0)
	return err == nil || errors.Is(err, syscall.EPERM)
}

// tempFile opens an unlinked temp file in the arena directory: O_TMPFILE
// when the kernel and filesystem support it, else a named file recorded
// for removal at Close (and by the next run's crash sweep).
func (ar *spillArena) tempFile() (f *os.File, path string, err error) {
	if !spillNoOTmpfile {
		fd, err := syscall.Open(ar.dir, oTmpfileLinux|syscall.O_RDWR|syscall.O_CLOEXEC, 0o600)
		if err == nil {
			return os.NewFile(uintptr(fd), filepath.Join(ar.dir, "csspill-anon")), "", nil
		}
	}
	ar.mu.Lock()
	ar.seq++
	seq := ar.seq
	ar.mu.Unlock()
	path = filepath.Join(ar.dir, fmt.Sprintf("%s%d-%d", spillPrefix, os.Getpid(), seq))
	f, err = os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o600)
	if err != nil {
		return nil, "", fmt.Errorf("verify: spill temp file: %w", err)
	}
	return f, path, nil
}

// openSegment creates an empty, unmapped segment file owned by the
// arena, for a caller that writes it (WriteAt) and then maps it.
func (ar *spillArena) openSegment() (*spillSeg, error) {
	f, path, err := ar.tempFile()
	if err != nil {
		return nil, err
	}
	seg := &spillSeg{f: f, path: path}
	ar.mu.Lock()
	defer ar.mu.Unlock()
	if ar.closed {
		seg.discard()
		return nil, errors.New("verify: spill arena closed")
	}
	ar.segs = append(ar.segs, seg)
	return seg, nil
}

// mapSegment maps the first n bytes of seg with protection prot and
// charges them to the arena.
func (ar *spillArena) mapSegment(seg *spillSeg, n int64, prot int) error {
	if n > 0 {
		data, err := syscall.Mmap(int(seg.f.Fd()), 0, int(n), prot, syscall.MAP_SHARED)
		if err != nil {
			return fmt.Errorf("verify: spill segment mmap: %w", err)
		}
		seg.data = data
	}
	ar.mu.Lock()
	ar.segBytes += n
	ar.mu.Unlock()
	return nil
}

// allocSegment creates an n-byte segment file and maps it read-write. The
// caller fills it and then seals it read-only.
func (ar *spillArena) allocSegment(n int64) (*spillSeg, error) {
	seg, err := ar.openSegment()
	if err != nil {
		return nil, err
	}
	if err := seg.f.Truncate(n); err != nil {
		return nil, fmt.Errorf("verify: spill segment truncate: %w", err)
	}
	return seg, ar.mapSegment(seg, n, syscall.PROT_READ|syscall.PROT_WRITE)
}

// seal remaps the filled segment read-only: the pass kernels can only
// stream it from then on, and a stray write faults instead of corrupting
// the index.
func (seg *spillSeg) seal() {
	if seg.data != nil {
		_ = syscall.Mprotect(seg.data, syscall.PROT_READ)
	}
}

// discard unmaps, closes and removes the segment (error path only).
func (seg *spillSeg) discard() {
	if seg.data != nil {
		_ = syscall.Munmap(seg.data)
		seg.data = nil
	}
	_ = seg.f.Close()
	if seg.path != "" {
		_ = os.Remove(seg.path)
	}
}

// segmentBytes returns the total bytes materialized into segment files.
func (ar *spillArena) segmentBytes() int64 {
	ar.mu.Lock()
	defer ar.mu.Unlock()
	return ar.segBytes
}

// close unmaps and removes every artifact. Idempotent. After close, any
// slice viewing a segment is invalid — hence Space.Close's contract that
// no pass may run afterwards.
func (ar *spillArena) close() error {
	ar.mu.Lock()
	defer ar.mu.Unlock()
	if ar.closed {
		return nil
	}
	ar.closed = true
	var first error
	for _, seg := range ar.segs {
		if seg.data != nil {
			if err := syscall.Munmap(seg.data); err != nil && first == nil {
				first = err
			}
			seg.data = nil
		}
		if err := seg.f.Close(); err != nil && first == nil {
			first = err
		}
		if seg.path != "" {
			_ = os.Remove(seg.path)
		}
	}
	ar.segs = nil
	return first
}

// u32view and i32view reinterpret an mmap'd segment as the CSR arrays it
// stores. The byte slice must stay mapped for the views' lifetime.
func u32view(b []byte) []uint32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
}

func i32view(b []byte) []int32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
}

// asBytes views v's backing array as the bytes a segment or run file
// stores.
func asBytes[T int32 | int64](v []T) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*int(unsafe.Sizeof(v[0])))
}

// frontierSpool accumulates one BFS wave in per-worker buffers (no
// locking on the hot path). With an arena (the spill tier) a buffer that
// reaches spoolRunEntries overflows as a sorted run to a temp file, and
// drain streams a merge of the runs in sorted batches, so the wave costs
// bounded RAM. Without one (the in-RAM tiers) the spool never flushes and
// drain hands over the concatenated buffers unsorted. Wave membership is
// a set (the emitting passes claim states by atomic decrement-to-zero or
// test-and-set), so every verdict and metric is deterministic regardless
// of worker count, flush timing or batch order.
type frontierSpool struct {
	ar   *spillArena
	bufs [][]int64

	mu   sync.Mutex
	runs []spoolRun

	err atomic.Pointer[error]
}

type spoolRun struct {
	f    *os.File
	path string
	n    int64
}

func newFrontierSpool(ar *spillArena, workers int) *frontierSpool {
	return &frontierSpool{ar: ar, bufs: make([][]int64, workers)}
}

// add appends one state to the wave from the given worker. Flush errors
// are latched and surfaced by drain (the sharded pass closures have no
// error channel of their own).
func (fs *frontierSpool) add(worker int, v int64) {
	fs.bufs[worker] = append(fs.bufs[worker], v)
	if fs.ar != nil && len(fs.bufs[worker]) >= spoolRunEntries {
		if err := fs.flush(worker); err != nil {
			fs.err.CompareAndSwap(nil, &err)
		}
	}
}

// size returns the number of states accumulated so far. It must not run
// concurrently with add.
func (fs *frontierSpool) size() int64 {
	var n int64
	for _, b := range fs.bufs {
		n += int64(len(b))
	}
	for _, r := range fs.runs {
		n += r.n
	}
	return n
}

// flush sorts worker w's buffer and writes it out as one run.
func (fs *frontierSpool) flush(w int) error {
	buf := fs.bufs[w]
	slices.Sort(buf)
	f, path, err := fs.ar.tempFile()
	if err != nil {
		return err
	}
	if _, err := f.Write(asBytes(buf)); err != nil {
		_ = f.Close()
		if path != "" {
			_ = os.Remove(path)
		}
		return fmt.Errorf("verify: frontier run write: %w", err)
	}
	fs.ar.spooled.Add(int64(len(buf)) * 8)
	fs.mu.Lock()
	fs.runs = append(fs.runs, spoolRun{f: f, path: path, n: int64(len(buf))})
	fs.mu.Unlock()
	fs.bufs[w] = buf[:0]
	return nil
}

// drain feeds the wave to fn in batches of at most spoolBatchEntries
// states — in ascending order when the spool has an arena, merging the
// spilled runs with the in-memory leftovers — then releases every run
// file. The spool is spent afterwards.
func (fs *frontierSpool) drain(fn func(batch []int64) error) error {
	defer fs.release()
	if ep := fs.err.Load(); ep != nil {
		return *ep
	}
	var mem []int64
	for _, b := range fs.bufs {
		mem = append(mem, b...)
	}
	if fs.ar != nil {
		slices.Sort(mem)
	}
	if len(fs.runs) == 0 {
		for lo := 0; lo < len(mem); lo += spoolBatchEntries {
			hi := min(lo+spoolBatchEntries, len(mem))
			if err := fn(mem[lo:hi]); err != nil {
				return err
			}
		}
		return nil
	}
	readers := make([]*runReader, 0, len(fs.runs)+1)
	for _, r := range fs.runs {
		readers = append(readers, &runReader{f: r.f, remain: r.n})
	}
	if len(mem) > 0 {
		readers = append(readers, &runReader{buf: mem, have: len(mem)})
	}
	h := make([]*runReader, 0, len(readers))
	for _, r := range readers {
		ok, err := r.load()
		if err != nil {
			return err
		}
		if ok {
			h = append(h, r)
			up(h, len(h)-1)
		}
	}
	batch := make([]int64, 0, spoolBatchEntries)
	for len(h) > 0 {
		r := h[0]
		batch = append(batch, r.head())
		ok, err := r.advance()
		if err != nil {
			return err
		}
		if !ok {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(h, 0)
		if len(batch) == spoolBatchEntries {
			if err := fn(batch); err != nil {
				return err
			}
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		return fn(batch)
	}
	return nil
}

// waves is the one breadth-first driver of the package. The caller seeds
// cur (level 0); each level is drained in batches, every batch is
// expanded in parallel by expand(worker, level, batch, next), and next
// becomes the following level, until a level comes out empty. The
// driver owns the level loop, the frontier peaks on span (nil for
// passes that report no frontier), cancellation, and releasing every
// spool. Expansions must claim the states they add (atomic
// decrement-to-zero or test-and-set), so a level is a set and its batch
// order cannot matter. visited counts the states of every level.
func waves(ctx context.Context, prog *obs.Progress, span *passSpan, cur *frontierSpool,
	expand func(worker int, level int32, batch []int64, next *frontierSpool)) (visited int64, err error) {
	defer func() { cur.release() }()
	workers := len(cur.bufs)
	for level := int32(0); ; level++ {
		n := cur.size()
		if n == 0 {
			return visited, nil
		}
		if span != nil {
			span.observeFrontier(n)
		}
		visited += n
		next := newFrontierSpool(cur.ar, workers)
		err := cur.drain(func(batch []int64) error {
			return parallelRange(ctx, workers, int64(len(batch)), prog, func(worker int, lo, hi int64) {
				expand(worker, level, batch[lo:hi], next)
			})
		})
		cur = next
		if err != nil {
			return visited, err
		}
	}
}

// release closes and removes every run file and drops the buffers.
func (fs *frontierSpool) release() {
	fs.mu.Lock()
	runs := fs.runs
	fs.runs = nil
	fs.mu.Unlock()
	for _, r := range runs {
		_ = r.f.Close()
		if r.path != "" {
			_ = os.Remove(r.path)
		}
	}
	for i := range fs.bufs {
		fs.bufs[i] = nil
	}
}

// runReader streams one sorted run (a file, or the in-memory leftovers)
// in fixed-size chunks.
type runReader struct {
	f      *os.File
	off    int64
	remain int64 // entries left in the file past the loaded chunk
	buf    []int64
	pos    int
	have   int
}

const runReadEntries = 1 << 16 // 512 KiB read chunks

func (r *runReader) head() int64 { return r.buf[r.pos] }

// load pulls the next chunk; returns false at end of run.
func (r *runReader) load() (bool, error) {
	if r.f == nil {
		return r.have > 0, nil // in-memory run is fully loaded up front
	}
	n := min(r.remain, int64(runReadEntries))
	if n == 0 {
		return false, nil
	}
	if int64(cap(r.buf)) < n {
		r.buf = make([]int64, n)
	}
	r.buf = r.buf[:n]
	if _, err := r.f.ReadAt(asBytes(r.buf), r.off); err != nil {
		return false, fmt.Errorf("verify: frontier run read: %w", err)
	}
	r.off += n * 8
	r.remain -= n
	r.pos, r.have = 0, int(n)
	return true, nil
}

// advance moves past the current head; returns false when the run is dry.
func (r *runReader) advance() (bool, error) {
	r.pos++
	if r.pos < r.have {
		return true, nil
	}
	if r.f == nil {
		return false, nil
	}
	return r.load()
}

// up and down are the sift operations of the merge's binary min-heap,
// keyed by each reader's current head value.
func up(h []*runReader, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h[p].head() <= h[i].head() {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func down(h []*runReader, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < len(h) && h[l].head() < h[s].head() {
			s = l
		}
		if r < len(h) && h[r].head() < h[s].head() {
			s = r
		}
		if s == i {
			return
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
}
