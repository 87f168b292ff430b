// Package store is the durable tier under the serving caches: a pure-Go
// append-only segment log with an in-memory key index, plus snapshot
// archives for backup/restore.
//
// A record is (key, generation, payload, crc32): the serving layer keys
// records by the same content-addressed strings as its in-memory caches
// (core.DigestIR is stable across processes, so a restarted server
// addresses the same records), the generation carries the model registry
// generation the verdict was computed under, and the payload is an
// opaque blob owned by the typed write-behind Tier (a format byte and the
// value's JSON; see Tier). Writes append to
// the active segment, which rolls to a new file at a size threshold;
// deletes append a prefix-tombstone record so they survive restarts;
// reads serve from the index with one positioned read. A compaction pass
// rewrites only the live records into a fresh segment and drops
// everything superseded or tombstoned.
//
// Durability contract: every accepted append is in the OS page cache
// (one write syscall) and is fsynced on segment roll, Sync, snapshot and
// Close; Options.SyncEveryAppend upgrades that to fsync-per-append.
// Recovery tolerates a torn tail — a crash mid-append leaves a partial
// record, which Open detects by CRC/length validation and truncates,
// recovering every record before it and reporting the torn bytes in
// Stats. Records are self-checking, so a flipped bit is detected at read
// time rather than served as a verdict.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"mpidetect/internal/fault"
	"mpidetect/internal/telemetry"
)

// Fault points of the segment log, armable by tests and the admin API
// (disarmed they cost one atomic load). FaultAppend fails Put the way a
// full or failing disk would; FaultOpen fails Open the way a missing or
// unreadable directory would.
var (
	FaultAppend = fault.Register("store.append")
	FaultOpen   = fault.Register("store.open")
)

// Segment file layout: an 8-byte magic header followed by records.
//
//	record := crc32 | keyLen | valLen | gen | kind | key | val
//	          u32     u32      u32      u64   u8
//
// crc32 (IEEE) covers everything after the crc field. kind distinguishes
// puts from prefix tombstones (whose key is the doomed prefix and whose
// payload is empty).
const (
	segMagic  = "MPDSEG01"
	recHeader = 4 + 4 + 4 + 8 + 1

	kindPut             = 0
	kindPrefixTombstone = 1

	// maxRecordBytes bounds one record; a length field past it means the
	// bytes under the cursor are not a record (torn tail or corruption).
	maxRecordBytes = 64 << 20
)

// Sentinel errors surfaced to the admin API.
var (
	// ErrClosed: the store has been closed and accepts no operations.
	ErrClosed = errors.New("store: closed")
	// ErrBadName: a snapshot name contains path separators or other
	// bytes that could escape the snapshots directory.
	ErrBadName = errors.New("store: bad snapshot name")
	// ErrUnknownSnapshot: no archive with the requested name exists.
	ErrUnknownSnapshot = errors.New("store: unknown snapshot")
)

// Options sizes a store; zero values take the documented defaults.
type Options struct {
	// SegmentBytes is the active-segment roll threshold (default 64MiB).
	SegmentBytes int64
	// SyncEveryAppend fsyncs after every Put/DeletePrefix instead of
	// only on roll/Sync/snapshot/Close.
	SyncEveryAppend bool
	// CompactFraction is the garbage ratio (dead bytes / total bytes)
	// past which a segment roll triggers compaction (default 0.5).
	CompactFraction float64
	// CompactMinBytes suppresses compaction below this total size
	// (default 1MiB): tiny stores are cheaper to leave fragmented.
	CompactMinBytes int64
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.CompactFraction <= 0 {
		o.CompactFraction = 0.5
	}
	if o.CompactMinBytes <= 0 {
		o.CompactMinBytes = 1 << 20
	}
	return o
}

// Stats is a point-in-time snapshot of the store counters, shaped for
// JSON encoding under the /v1/stats "store" section.
type Stats struct {
	Records     int64 `json:"records"`
	LiveBytes   int64 `json:"live_bytes"`
	TotalBytes  int64 `json:"total_bytes"`
	Appends     int64 `json:"appends"`
	Gets        int64 `json:"gets"`
	Deletes     int64 `json:"deletes"`
	Compactions int64 `json:"compactions"`
	// TornBytes is the size of the torn tail truncated by the last Open
	// — non-zero exactly when recovery repaired a crash mid-append.
	TornBytes int64 `json:"torn_bytes"`
	Segments  int   `json:"segments"` // after the int64s, for 32-bit alignment
}

// CompactionInfo describes one completed compaction, published on the
// serving event bus as store.compacted.
type CompactionInfo struct {
	Segments  int   `json:"segments"`  // segments merged away
	Records   int64 `json:"records"`   // live records carried over
	Reclaimed int64 `json:"reclaimed"` // bytes of garbage dropped
	Bytes     int64 `json:"bytes"`     // size of the compacted segment
}

// recLoc locates one live record.
type recLoc struct {
	seg  *segment
	off  int64
	size int64 // full record size, header included
	gen  uint64
}

type segment struct {
	id   uint64
	path string
	f    *os.File
	size int64
}

// Store is an append-only segment log with an in-memory key index. The
// zero value is not usable; construct with Open. All methods are safe
// for concurrent use; writes serialize on one mutex.
type Store struct {
	stats Stats // live counters; first, for 64-bit atomics on 32-bit targets
	dir   string
	opts  Options

	mu        sync.RWMutex
	closed    bool
	segs      []*segment // ascending id; last is the active segment
	nextID    uint64
	index     map[string]recLoc
	liveBytes int64
	onCompact func(CompactionInfo)
}

// Open opens (or creates) a store rooted at dir, replaying every segment
// to rebuild the key index — the boot warm-start. A torn tail left by a
// crash mid-append is truncated away; every record before it is
// recovered.
func Open(dir string, opts Options) (*Store, error) {
	if err := fault.Inject(FaultOpen); err != nil {
		return nil, fmt.Errorf("store: opening %s: %w", dir, err)
	}
	s := &Store{dir: dir, opts: opts.withDefaults(), index: map[string]recLoc{}, nextID: 1}
	if err := os.MkdirAll(s.snapDir(), 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		return nil, fmt.Errorf("store: scanning %s: %w", dir, err)
	}
	// Leftover temp files (crashed compaction or snapshot) are garbage:
	// their content is either still live in the segments or incomplete.
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) > 0 {
		for _, t := range tmps {
			_ = os.Remove(t)
		}
	}
	type idName struct {
		id   uint64
		name string
	}
	ordered := make([]idName, 0, len(names))
	for _, name := range names {
		var id uint64
		if _, err := fmt.Sscanf(filepath.Base(name), "seg-%d.log", &id); err != nil {
			continue // not ours; leave it alone
		}
		ordered = append(ordered, idName{id, name})
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].id < ordered[j].id })
	for _, sn := range ordered {
		seg, err := s.replaySegment(sn.id, sn.name)
		if err != nil {
			s.closeLocked()
			return nil, err
		}
		s.segs = append(s.segs, seg)
		if sn.id >= s.nextID {
			s.nextID = sn.id + 1
		}
	}
	if len(s.segs) == 0 {
		if err := s.newSegmentLocked(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// replaySegment opens one segment file, replays its records into the
// index, and truncates any torn tail.
func (s *Store) replaySegment(id uint64, path string) (*segment, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening segment: %w", err)
	}
	// The whole segment is parsed, so read it in one allocation sized
	// from the file.
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: reading segment %s: %w", path, err)
	}
	data := make([]byte, fi.Size())
	if _, err := io.ReadFull(f, data); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: reading segment %s: %w", path, err)
	}
	seg := &segment{id: id, path: path, f: f}
	valid := int64(0)
	if len(data) >= len(segMagic) && string(data[:len(segMagic)]) == segMagic {
		valid = int64(len(segMagic))
		for {
			key, val, gen, kind, size, ok := parseRecord(data[valid:])
			if !ok {
				break
			}
			switch kind {
			case kindPut:
				s.indexPut(string(key), recLoc{seg: seg, off: valid, size: size, gen: gen})
				_ = val
			case kindPrefixTombstone:
				s.indexDeletePrefix(string(key))
			}
			valid += size
		}
	}
	if torn := int64(len(data)) - valid; torn > 0 {
		s.stats.TornBytes += torn
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: truncating torn tail of %s: %w", path, err)
		}
	}
	seg.size = valid
	if valid == 0 {
		// The file never got its header (crash between create and write):
		// rewrite it so appends land on a well-formed segment.
		if _, err := f.WriteAt([]byte(segMagic), 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: reheading %s: %w", path, err)
		}
		seg.size = int64(len(segMagic))
	}
	if _, err := f.Seek(seg.size, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: seeking %s: %w", path, err)
	}
	return seg, nil
}

// parseRecord decodes the record at the front of data. ok is false when
// the bytes do not form a complete, checksummed record — the torn-tail
// (or corruption) signal.
func parseRecord(data []byte) (key, val []byte, gen uint64, kind byte, size int64, ok bool) {
	if len(data) < recHeader {
		return nil, nil, 0, 0, 0, false
	}
	crc := binary.LittleEndian.Uint32(data[0:4])
	keyLen := int64(binary.LittleEndian.Uint32(data[4:8]))
	valLen := int64(binary.LittleEndian.Uint32(data[8:12]))
	if keyLen+valLen > maxRecordBytes {
		return nil, nil, 0, 0, 0, false
	}
	size = recHeader + keyLen + valLen
	if int64(len(data)) < size {
		return nil, nil, 0, 0, 0, false
	}
	if crc32.ChecksumIEEE(data[4:size]) != crc {
		return nil, nil, 0, 0, 0, false
	}
	gen = binary.LittleEndian.Uint64(data[12:20])
	kind = data[20]
	key = data[recHeader : recHeader+keyLen]
	val = data[recHeader+keyLen : size]
	return key, val, gen, kind, size, true
}

// appendRecord assembles a record into buf (reused across calls).
func appendRecord(buf []byte, key string, val []byte, gen uint64, kind byte) []byte {
	size := recHeader + len(key) + len(val)
	if cap(buf) < size {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(key)))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(val)))
	binary.LittleEndian.PutUint64(buf[12:20], gen)
	buf[20] = kind
	copy(buf[recHeader:], key)
	copy(buf[recHeader+len(key):], val)
	binary.LittleEndian.PutUint32(buf[0:4], crc32.ChecksumIEEE(buf[4:]))
	return buf
}

// indexPut records key's newest location, keeping live-byte accounting.
func (s *Store) indexPut(key string, loc recLoc) {
	if old, ok := s.index[key]; ok {
		s.liveBytes -= old.size
	}
	s.index[key] = loc
	s.liveBytes += loc.size
}

// indexDeletePrefix sweeps matching keys from the index.
func (s *Store) indexDeletePrefix(prefix string) int {
	n := 0
	for key, loc := range s.index {
		if strings.HasPrefix(key, prefix) {
			s.liveBytes -= loc.size
			delete(s.index, key)
			n++
		}
	}
	return n
}

func (s *Store) active() *segment { return s.segs[len(s.segs)-1] }

func (s *Store) totalBytesLocked() int64 {
	var n int64
	for _, seg := range s.segs {
		n += seg.size
	}
	return n
}

// newSegmentLocked creates and activates the next segment file.
func (s *Store) newSegmentLocked() error {
	path := filepath.Join(s.dir, fmt.Sprintf("seg-%08d.log", s.nextID))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating segment: %w", err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return fmt.Errorf("store: writing segment header: %w", err)
	}
	s.segs = append(s.segs, &segment{
		id: s.nextID, path: path, f: f, size: int64(len(segMagic))})
	s.nextID++
	return nil
}

// appendLocked writes one already-assembled record to the active
// segment, rolling (and maybe compacting) first when it would overflow.
func (s *Store) appendLocked(rec []byte) (*segment, int64, error) {
	seg := s.active()
	if seg.size+int64(len(rec)) > s.opts.SegmentBytes && seg.size > int64(len(segMagic)) {
		if err := seg.f.Sync(); err != nil {
			return nil, 0, fmt.Errorf("store: sealing segment: %w", err)
		}
		if err := s.maybeCompactLocked(); err != nil {
			return nil, 0, err
		}
		if err := s.newSegmentLocked(); err != nil {
			return nil, 0, err
		}
		seg = s.active()
	}
	off := seg.size
	if _, err := seg.f.Write(rec); err != nil {
		return nil, 0, fmt.Errorf("store: appending: %w", err)
	}
	seg.size += int64(len(rec))
	if s.opts.SyncEveryAppend {
		if err := seg.f.Sync(); err != nil {
			return nil, 0, fmt.Errorf("store: syncing append: %w", err)
		}
	}
	return seg, off, nil
}

// Put appends (or supersedes) key with the given payload and generation.
func (s *Store) Put(key string, gen uint64, val []byte) error {
	if err := fault.Inject(FaultAppend); err != nil {
		return fmt.Errorf("store: appending: %w", err)
	}
	rec := appendRecord(nil, key, val, gen, kindPut)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	seg, off, err := s.appendLocked(rec)
	if err != nil {
		return err
	}
	s.indexPut(key, recLoc{seg: seg, off: off, size: int64(len(rec)), gen: gen})
	atomic.AddInt64(&s.stats.Appends, 1)
	return nil
}

// getInto serves key from the log: one positioned read plus a CRC check,
// so a flipped bit on disk surfaces as a miss, never as a wrong payload.
// The key is held as a string or as bytes, which the index lookup and the
// key check read without building a string. The record is read into buf
// when it is large enough, and into a new buffer otherwise; rec returns
// the buffer used, and val is a slice of it.
func getInto[K string | []byte](s *Store, key K, buf []byte) (val []byte, gen uint64, rec []byte, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, 0, buf, false
	}
	loc, found := s.index[string(key)]
	if !found {
		return nil, 0, buf, false
	}
	if int64(cap(buf)) < loc.size {
		buf = make([]byte, loc.size)
	}
	buf = buf[:loc.size]
	if _, err := loc.seg.f.ReadAt(buf, loc.off); err != nil {
		return nil, 0, buf, false
	}
	k, v, g, kind, _, valid := parseRecord(buf)
	if !valid || kind != kindPut || string(k) != string(key) {
		return nil, 0, buf, false
	}
	atomic.AddInt64(&s.stats.Gets, 1)
	return v, g, buf, true
}

// DeletePrefix dooms every record whose key starts with prefix,
// appending a tombstone so the deletion survives restart and replay.
// Returns the number of live records removed from the index.
func (s *Store) DeletePrefix(prefix string) (int, error) {
	rec := appendRecord(nil, prefix, nil, 0, kindPrefixTombstone)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	n := s.indexDeletePrefix(prefix)
	if n == 0 {
		// Nothing persisted matches; an unmatched tombstone would be pure
		// log garbage.
		return 0, nil
	}
	if _, _, err := s.appendLocked(rec); err != nil {
		return n, err
	}
	atomic.AddInt64(&s.stats.Deletes, int64(n))
	return n, nil
}

// Range calls fn for every live key (index order, no payload reads);
// fn returning false stops the walk.
func (s *Store) Range(fn func(key string, gen uint64) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for key, loc := range s.index {
		if !fn(key, loc.gen) {
			return
		}
	}
}

// Len reports the number of live records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// OnCompact installs a hook invoked on its own goroutine (never under
// the store lock) after each compaction; the serving engine publishes it
// on the event bus.
func (s *Store) OnCompact(fn func(CompactionInfo)) {
	s.mu.Lock()
	s.onCompact = fn
	s.mu.Unlock()
}

// maybeCompactLocked compacts when the garbage ratio crosses the
// configured fraction. Called at segment-roll time, so the cost is
// amortized over SegmentBytes of appends.
func (s *Store) maybeCompactLocked() error {
	total := s.totalBytesLocked()
	if total < s.opts.CompactMinBytes {
		return nil
	}
	if float64(total-s.liveBytes)/float64(total) < s.opts.CompactFraction {
		return nil
	}
	return s.compactLocked()
}

// writeLiveLocked writes hdr and then the raw bytes (CRCs and all) of
// every live record to a fresh file at tmpPath, and fsyncs it. Records
// go in key order, which keeps the output byte-deterministic for a given
// index state; keys returns that order, so a caller can recompute each
// record's offset. On success the file is left open for the caller to
// publish; on failure it is closed, and the caller removes it. what
// names the operation in errors.
func (s *Store) writeLiveLocked(tmpPath, what string, hdr []byte) (tmp *os.File, keys []string, size int64, err error) {
	tmp, err = os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("store: %s temp: %w", what, err)
	}
	fail := func(step string, err error) (*os.File, []string, int64, error) {
		tmp.Close()
		return nil, nil, 0, fmt.Errorf("store: %s %s: %w", what, step, err)
	}
	if _, err := tmp.Write(hdr); err != nil {
		return fail("header", err)
	}
	keys = make([]string, 0, len(s.index))
	for key := range s.index {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	size = int64(len(hdr))
	for _, key := range keys {
		loc := s.index[key]
		buf := make([]byte, loc.size)
		if _, err := loc.seg.f.ReadAt(buf, loc.off); err != nil {
			return fail("read", err)
		}
		if _, err := tmp.Write(buf); err != nil {
			return fail("write", err)
		}
		size += loc.size
	}
	if err := tmp.Sync(); err != nil {
		return fail("sync", err)
	}
	return tmp, keys, size, nil
}

func (s *Store) compactLocked() error {
	info := CompactionInfo{Segments: len(s.segs), Records: int64(len(s.index))}
	reclaimedFrom := s.totalBytesLocked()

	tmpPath := filepath.Join(s.dir, "compact.tmp")
	defer os.Remove(tmpPath) // no-op after the rename succeeds
	tmp, keys, size, err := s.writeLiveLocked(tmpPath, "compaction", []byte(segMagic))
	if err != nil {
		return err
	}
	// Publish the compacted file as the next segment id, then drop the
	// old files. A crash between the rename and the removals leaves the
	// old segments on disk: replay order (ascending id) still yields the
	// same index, and the next compaction reclaims them.
	newPath := filepath.Join(s.dir, fmt.Sprintf("seg-%08d.log", s.nextID))
	if err := os.Rename(tmpPath, newPath); err != nil {
		tmp.Close()
		return fmt.Errorf("store: publishing compacted segment: %w", err)
	}
	seg := &segment{id: s.nextID, path: newPath, f: tmp, size: size}
	s.nextID++
	for _, old := range s.segs {
		old.f.Close()
		_ = os.Remove(old.path)
	}
	s.segs = []*segment{seg}
	off := int64(len(segMagic))
	for _, key := range keys {
		loc := s.index[key]
		s.index[key] = recLoc{seg: seg, off: off, size: loc.size, gen: loc.gen}
		off += loc.size
	}
	s.liveBytes = size - int64(len(segMagic))
	atomic.AddInt64(&s.stats.Compactions, 1)
	info.Reclaimed = reclaimedFrom - size
	info.Bytes = size
	if fn := s.onCompact; fn != nil {
		go fn(info)
	}
	return nil
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	st := telemetry.Snapshot(&s.stats)
	s.mu.RLock()
	defer s.mu.RUnlock()
	st.Records = int64(len(s.index))
	st.Segments = len(s.segs)
	st.LiveBytes = s.liveBytes
	st.TotalBytes = s.totalBytesLocked()
	return st
}

// Dir reports the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Close syncs and closes every segment. Idempotent; operations after
// Close fail with ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	if err := s.active().f.Sync(); err != nil {
		s.closeLocked()
		return fmt.Errorf("store: closing sync: %w", err)
	}
	s.closeLocked()
	return nil
}

func (s *Store) closeLocked() {
	for _, seg := range s.segs {
		seg.f.Close()
	}
	s.closed = true
}
