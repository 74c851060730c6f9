package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// FsyncPolicy selects when the WAL forces appended records to stable
// storage.
type FsyncPolicy int

const (
	// FsyncAlways fsyncs after every append: zero loss window, the
	// durability default.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval fsyncs from a background flusher on a fixed period:
	// a crash loses at most one interval of appends.
	FsyncInterval
	// FsyncNever leaves flushing to the OS (plus segment rotation and
	// Close): fastest, widest loss window.
	FsyncNever
)

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// ParseFsyncPolicy maps the -fsync flag values onto the policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "", "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("durable: unknown fsync policy %q (want always, interval or never)", s)
}

// WALOptions tune a WAL; the zero value selects the defaults.
type WALOptions struct {
	// SegmentBytes rotates to a new segment file once the current one
	// exceeds this size (default 8 MiB).
	SegmentBytes int64
	// Fsync is the flush policy (default FsyncAlways).
	Fsync FsyncPolicy
	// FsyncIntervalDur is the background flush period for
	// FsyncInterval (default 100ms).
	FsyncIntervalDur time.Duration
}

func (o WALOptions) withDefaults() WALOptions {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.FsyncIntervalDur <= 0 {
		o.FsyncIntervalDur = 100 * time.Millisecond
	}
	return o
}

// WALStats snapshot the log's observability counters.
type WALStats struct {
	// Appends counts records appended this process lifetime.
	Appends int64
	// Fsyncs counts explicit fsync calls (append-path, flusher,
	// rotation and Sync).
	Fsyncs int64
	// FlushSeconds is the cumulative wall time spent inside fsync, and
	// FlushCount how many flushes it covers (a Prometheus summary pair).
	FlushSeconds float64
	FlushCount   int64
	// ReplayedRecords counts records delivered by Replay.
	Replayed int64
	// DroppedTail counts bytes discarded at open because the final
	// frames were torn or corrupt.
	DroppedTail int64
	// Segments and Bytes describe the on-disk footprint.
	Segments int
	Bytes    int64
}

// WAL is an append-only, CRC32C-framed, segmented write-ahead log.
// One writer process owns a WAL directory at a time; Append and
// Compact are safe for concurrent use within that process.
type WAL struct {
	mu  sync.Mutex
	dir string
	opt WALOptions

	f      *os.File // current segment, opened for append
	idx    int64    // current segment index
	size   int64    // current segment size in bytes
	total  int64    // bytes across all live segments
	nseg   int      // live segment count
	dirty  bool     // appended since last fsync
	closed bool

	appends     atomic.Int64
	fsyncs      atomic.Int64
	flushNanos  atomic.Int64
	flushCount  atomic.Int64
	replayed    atomic.Int64
	droppedTail atomic.Int64

	stopFlush chan struct{}
	flushDone chan struct{}
}

const (
	// segMagic heads every segment file.
	segMagic = "HWALSEG1"
	// frameBytes is the per-record frame: u32 payload length, u32
	// CRC32C of the payload, both little-endian.
	frameBytes = 8
	// maxRecordBytes bounds one record; a larger declared length is
	// treated as corruption (hardens replay against garbage files).
	maxRecordBytes = 1 << 26
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func segmentName(idx int64) string { return fmt.Sprintf("wal-%08d.seg", idx) }

// parseSegmentName inverts segmentName.
func parseSegmentName(name string) (int64, bool) {
	var idx int64
	if n, err := fmt.Sscanf(name, "wal-%08d.seg", &idx); n != 1 || err != nil {
		return 0, false
	}
	return idx, true
}

// OpenWAL opens (creating if needed) the log in dir, scans the
// existing segments, repairs a torn tail — the file is truncated back
// to its last whole, checksummed record, and any segments after the
// first corruption are deleted — and positions the writer at the end.
func OpenWAL(dir string, opt WALOptions) (*WAL, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: open wal: %w", err)
	}
	w := &WAL{dir: dir, opt: opt}
	if err := w.recoverSegments(); err != nil {
		return nil, err
	}
	if w.opt.Fsync == FsyncInterval {
		w.stopFlush = make(chan struct{})
		w.flushDone = make(chan struct{})
		go w.flusher()
	}
	return w, nil
}

// segmentIndices lists the live segment indices in ascending order.
func (w *WAL) segmentIndices() ([]int64, error) {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return nil, err
	}
	var idxs []int64
	for _, e := range entries {
		if idx, ok := parseSegmentName(e.Name()); ok {
			idxs = append(idxs, idx)
		}
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	return idxs, nil
}

// recoverSegments validates every segment in order, truncating the
// first corrupt one back to its valid prefix and deleting everything
// after it, then opens the last survivor for append (or starts fresh).
func (w *WAL) recoverSegments() error {
	idxs, err := w.segmentIndices()
	if err != nil {
		return fmt.Errorf("durable: open wal: %w", err)
	}
	var live []int64
	for i, idx := range idxs {
		path := filepath.Join(w.dir, segmentName(idx))
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("durable: open wal: %w", err)
		}
		_, valid, intact := ScanRecords(data)
		if valid == 0 {
			// Header gone: the segment carries nothing; it and every
			// later segment are causally after the loss point.
			w.dropSegmentsFrom(idxs[i:])
			w.droppedTail.Add(int64(len(data)))
			break
		}
		if !intact {
			w.droppedTail.Add(int64(len(data) - valid))
			if err := os.Truncate(path, int64(valid)); err != nil {
				return fmt.Errorf("durable: repair wal tail: %w", err)
			}
			live = append(live, idx)
			w.total += int64(valid)
			w.dropSegmentsFrom(idxs[i+1:])
			break
		}
		live = append(live, idx)
		w.total += int64(valid)
	}
	if len(live) == 0 {
		w.idx = 1
		return w.openSegmentLocked()
	}
	w.nseg = len(live)
	w.idx = live[len(live)-1]
	path := filepath.Join(w.dir, segmentName(w.idx))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("durable: open wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("durable: open wal: %w", err)
	}
	w.f = f
	w.size = st.Size()
	return nil
}

// syncDir fsyncs a directory so entry creations/renames/removals are
// durable.  Best effort: some filesystems refuse directory fsync, and
// a failure here narrows durability without breaking correctness.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// dropSegmentsFrom deletes the named segment indices (corruption
// aftermath: records past the loss point must not replay).
func (w *WAL) dropSegmentsFrom(idxs []int64) {
	for _, idx := range idxs {
		path := filepath.Join(w.dir, segmentName(idx))
		if st, err := os.Stat(path); err == nil {
			w.droppedTail.Add(st.Size())
		}
		os.Remove(path)
	}
	syncDir(w.dir)
}

// openSegmentLocked creates segment w.idx fresh with its header.
func (w *WAL) openSegmentLocked() error {
	path := filepath.Join(w.dir, segmentName(w.idx))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("durable: open segment: %w", err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return fmt.Errorf("durable: open segment: %w", err)
	}
	syncDir(w.dir)
	w.f = f
	w.size = int64(len(segMagic))
	w.total += int64(len(segMagic))
	w.nseg++
	return nil
}

// ScanRecords walks one segment image and returns the whole records it
// carries, the byte length of the valid prefix (header plus whole
// checksummed frames) and whether the image was fully intact.  It
// never panics on arbitrary input and never allocates beyond the input
// size — the decode path FuzzWALDecode drives.
func ScanRecords(data []byte) (recs [][]byte, valid int, intact bool) {
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		return nil, 0, false
	}
	off := len(segMagic)
	for {
		if off == len(data) {
			return recs, off, true
		}
		if len(data)-off < frameBytes {
			return recs, off, false
		}
		n := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if n > maxRecordBytes || int(n) > len(data)-off-frameBytes {
			return recs, off, false
		}
		payload := data[off+frameBytes : off+frameBytes+int(n)]
		if crc32.Checksum(payload, castagnoli) != sum {
			return recs, off, false
		}
		recs = append(recs, payload)
		off += frameBytes + int(n)
	}
}

// Replay streams every surviving record, oldest first, into fn.  A
// non-nil fn error aborts the replay and is returned.  Replay may be
// called on a WAL that is also appending, but the records fn sees are
// only those on disk when their segment is read.
func (w *WAL) Replay(fn func(rec []byte) error) error {
	w.mu.Lock()
	idxs, err := w.segmentIndices()
	dir := w.dir
	w.mu.Unlock()
	if err != nil {
		return fmt.Errorf("durable: replay: %w", err)
	}
	for _, idx := range idxs {
		data, err := os.ReadFile(filepath.Join(dir, segmentName(idx)))
		if err != nil {
			return fmt.Errorf("durable: replay: %w", err)
		}
		recs, _, _ := ScanRecords(data)
		for _, rec := range recs {
			w.replayed.Add(1)
			if err := fn(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// Append writes one record, rotating first if the current segment is
// full, and fsyncs according to the policy.
func (w *WAL) Append(rec []byte) error {
	if int64(len(rec)) > maxRecordBytes {
		return fmt.Errorf("durable: record of %d bytes exceeds limit %d", len(rec), maxRecordBytes)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("durable: wal is closed")
	}
	if w.size+frameBytes+int64(len(rec)) > w.opt.SegmentBytes && w.size > int64(len(segMagic)) {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	var frame [frameBytes]byte
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(rec)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(rec, castagnoli))
	if _, err := w.f.Write(frame[:]); err != nil {
		return fmt.Errorf("durable: append: %w", err)
	}
	if _, err := w.f.Write(rec); err != nil {
		return fmt.Errorf("durable: append: %w", err)
	}
	w.size += frameBytes + int64(len(rec))
	w.total += frameBytes + int64(len(rec))
	w.appends.Add(1)
	w.dirty = true
	if w.opt.Fsync == FsyncAlways {
		return w.syncLocked()
	}
	return nil
}

// rotateLocked seals the current segment (flushed to disk) and opens
// the next one.
func (w *WAL) rotateLocked() error {
	if err := w.syncLocked(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("durable: rotate: %w", err)
	}
	w.idx++
	return w.openSegmentLocked()
}

// syncLocked fsyncs the current segment if it has unflushed appends.
func (w *WAL) syncLocked() error {
	if !w.dirty || w.f == nil {
		return nil
	}
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("durable: fsync: %w", err)
	}
	w.flushNanos.Add(int64(time.Since(start)))
	w.flushCount.Add(1)
	w.fsyncs.Add(1)
	w.dirty = false
	return nil
}

// Sync forces unflushed appends to stable storage regardless of
// policy.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	return w.syncLocked()
}

// flusher is the FsyncInterval background loop.
func (w *WAL) flusher() {
	defer close(w.flushDone)
	t := time.NewTicker(w.opt.FsyncIntervalDur)
	defer t.Stop()
	for {
		select {
		case <-w.stopFlush:
			return
		case <-t.C:
			w.Sync()
		}
	}
}

// Compact snapshots live state into a fresh segment and discards the
// history: it rotates, hands the caller an append function that writes
// into the new segment, fsyncs it, and deletes every older segment.
// Replay afterwards sees the snapshot records followed by anything
// appended later — equivalent to the full history for state that the
// snapshot captures.  If write returns an error the new segment keeps
// whatever was written but the old segments are retained (replay stays
// a superset; compaction can be retried).
func (w *WAL) Compact(write func(app func(rec []byte) error) error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("durable: wal is closed")
	}
	if err := w.syncLocked(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("durable: compact: %w", err)
	}
	keepFrom := w.idx + 1
	w.idx = keepFrom
	if err := w.openSegmentLocked(); err != nil {
		return err
	}
	app := func(rec []byte) error {
		if int64(len(rec)) > maxRecordBytes {
			return fmt.Errorf("durable: record of %d bytes exceeds limit %d", len(rec), maxRecordBytes)
		}
		var frame [frameBytes]byte
		binary.LittleEndian.PutUint32(frame[0:], uint32(len(rec)))
		binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(rec, castagnoli))
		if _, err := w.f.Write(frame[:]); err != nil {
			return err
		}
		if _, err := w.f.Write(rec); err != nil {
			return err
		}
		w.size += frameBytes + int64(len(rec))
		w.total += frameBytes + int64(len(rec))
		w.appends.Add(1)
		w.dirty = true
		return nil
	}
	if err := write(app); err != nil {
		return fmt.Errorf("durable: compact snapshot: %w", err)
	}
	if err := w.syncLocked(); err != nil {
		return err
	}
	// Snapshot durable: the history is redundant now.
	idxs, err := w.segmentIndices()
	if err != nil {
		return fmt.Errorf("durable: compact: %w", err)
	}
	for _, idx := range idxs {
		if idx >= keepFrom {
			continue
		}
		path := filepath.Join(w.dir, segmentName(idx))
		if st, err := os.Stat(path); err == nil {
			w.total -= st.Size()
		}
		os.Remove(path)
		w.nseg--
	}
	syncDir(w.dir)
	return nil
}

// Stats snapshots the counters.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	nseg, bytes := w.nseg, w.total
	w.mu.Unlock()
	return WALStats{
		Appends:      w.appends.Load(),
		Fsyncs:       w.fsyncs.Load(),
		FlushSeconds: float64(w.flushNanos.Load()) / float64(time.Second),
		FlushCount:   w.flushCount.Load(),
		Replayed:     w.replayed.Load(),
		DroppedTail:  w.droppedTail.Load(),
		Segments:     nseg,
		Bytes:        bytes,
	}
}

// Close flushes and releases the log.  Further appends fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	err := w.syncLocked()
	if w.f != nil {
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
	}
	w.mu.Unlock()
	if w.stopFlush != nil {
		close(w.stopFlush)
		<-w.flushDone
	}
	return err
}
