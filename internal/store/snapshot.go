// Snapshot archives: an atomic, self-contained copy of the store's live
// records that survives wiping the segment directory and can be restored
// into this or any other store.
//
// An archive is one file under <dir>/snapshots/<name>.snap:
//
//	"MPDSNAP1" | u64 record count | records (same wire format as segments)
//
// Snapshot writes the archive to a temp file and renames it into place,
// so a listed archive is always complete. Restore replaces the store's
// entire contents with the archive's records (segments are rebuilt from
// scratch), optionally filtering each record through a keep function —
// the serving layer uses that to drop records whose model generation
// conflicts with the live registry.
package store

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

const snapMagic = "MPDSNAP1"

// SnapshotInfo describes one archive for the admin list endpoint.
type SnapshotInfo struct {
	Name    string    `json:"name"`
	Records int64     `json:"records"`
	Bytes   int64     `json:"bytes"`
	Created time.Time `json:"created"`
}

// RestoreInfo reports a completed restore.
type RestoreInfo struct {
	Name     string `json:"name"`
	Restored int64  `json:"restored"`
	// Dropped counts archive records rejected by the keep filter
	// (conflicting model generations, in the serving layer's use).
	Dropped int64 `json:"dropped"`
}

func (s *Store) snapDir() string { return filepath.Join(s.dir, "snapshots") }

// validName rejects names that could escape the snapshots directory or
// collide with temp files.
func validName(name string) bool {
	if name == "" || len(name) > 128 || strings.HasPrefix(name, ".") {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// Snapshot atomically archives the live records under name, overwriting
// any previous archive of that name. The caller is responsible for
// flushing its write-behind queue first if pending writes should be
// included.
func (s *Store) Snapshot(name string) (SnapshotInfo, error) {
	if !validName(name) {
		return SnapshotInfo{}, fmt.Errorf("%w: %q", ErrBadName, name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return SnapshotInfo{}, ErrClosed
	}
	tmpPath := filepath.Join(s.snapDir(), "snapshot.tmp")
	defer os.Remove(tmpPath) // no-op once the rename lands
	var hdr [len(snapMagic) + 8]byte
	copy(hdr[:], snapMagic)
	binary.LittleEndian.PutUint64(hdr[len(snapMagic):], uint64(len(s.index)))
	tmp, keys, size, err := s.writeLiveLocked(tmpPath, "snapshot", hdr[:])
	if err != nil {
		return SnapshotInfo{}, err
	}
	tmp.Close()
	finalPath := filepath.Join(s.snapDir(), name+".snap")
	if err := os.Rename(tmpPath, finalPath); err != nil {
		return SnapshotInfo{}, fmt.Errorf("store: publishing snapshot: %w", err)
	}
	return SnapshotInfo{Name: name, Records: int64(len(keys)), Bytes: size,
		Created: time.Now()}, nil
}

// Snapshots lists the archives, newest first.
func (s *Store) Snapshots() ([]SnapshotInfo, error) {
	entries, err := os.ReadDir(s.snapDir())
	if err != nil {
		return nil, fmt.Errorf("store: listing snapshots: %w", err)
	}
	infos := make([]SnapshotInfo, 0, len(entries))
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), ".snap")
		if !ok || e.IsDir() {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		count, err := snapshotCount(filepath.Join(s.snapDir(), e.Name()))
		if err != nil {
			continue // incomplete or foreign file; not listable
		}
		infos = append(infos, SnapshotInfo{Name: name, Records: count,
			Bytes: fi.Size(), Created: fi.ModTime()})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Created.After(infos[j].Created) })
	return infos, nil
}

// snapshotCount reads an archive's record count from its header.
func snapshotCount(path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var hdr [len(snapMagic) + 8]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, err
	}
	if string(hdr[:len(snapMagic)]) != snapMagic {
		return 0, fmt.Errorf("store: %s: bad snapshot magic", path)
	}
	return int64(binary.LittleEndian.Uint64(hdr[len(snapMagic):])), nil
}

// ValidateSnapshot checks that name refers to a readable archive without
// touching the store's contents. Callers that must tear state down
// before restoring (sweeping caches above the store) validate first so a
// bad name cannot destroy the state it failed to replace.
func (s *Store) ValidateSnapshot(name string) error {
	if !validName(name) {
		return fmt.Errorf("%w: %q", ErrBadName, name)
	}
	path := filepath.Join(s.snapDir(), name+".snap")
	if _, err := snapshotCount(path); err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("%w: %q", ErrUnknownSnapshot, name)
		}
		return fmt.Errorf("store: validating snapshot: %w", err)
	}
	return nil
}

// Restore replaces the store's contents with the named archive's
// records. Every existing segment is deleted and rebuilt; keep (when
// non-nil) filters each record by key and generation, and rejected
// records are counted, not restored. The in-memory caches above the
// store are the caller's to invalidate.
func (s *Store) Restore(name string, keep func(key string, gen uint64) bool) (RestoreInfo, error) {
	if !validName(name) {
		return RestoreInfo{}, fmt.Errorf("%w: %q", ErrBadName, name)
	}
	path := filepath.Join(s.snapDir(), name+".snap")
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return RestoreInfo{}, fmt.Errorf("%w: %q", ErrUnknownSnapshot, name)
		}
		return RestoreInfo{}, fmt.Errorf("store: reading snapshot: %w", err)
	}
	if len(data) < len(snapMagic)+8 || string(data[:len(snapMagic)]) != snapMagic {
		return RestoreInfo{}, fmt.Errorf("store: %s: bad snapshot magic", path)
	}
	records := data[len(snapMagic)+8:]

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return RestoreInfo{}, ErrClosed
	}
	// Tear the current segments down and rebuild from the archive.
	for _, old := range s.segs {
		old.f.Close()
		_ = os.Remove(old.path)
	}
	s.segs = nil
	s.index = map[string]recLoc{}
	s.liveBytes = 0
	if err := s.newSegmentLocked(); err != nil {
		return RestoreInfo{}, err
	}
	info := RestoreInfo{Name: name}
	off := int64(0)
	for off < int64(len(records)) {
		key, _, gen, kind, size, ok := parseRecord(records[off:])
		if !ok {
			return info, fmt.Errorf("store: snapshot %s: corrupt record at %d", name, off)
		}
		off += size
		if kind != kindPut {
			continue // archives hold only live puts; tolerate anyway
		}
		if keep != nil && !keep(string(key), gen) {
			info.Dropped++
			continue
		}
		seg, recOff, err := s.appendLocked(records[off-size : off])
		if err != nil {
			return info, err
		}
		s.indexPut(string(key), recLoc{seg: seg, off: recOff, size: size, gen: gen})
		info.Restored++
	}
	if err := s.active().f.Sync(); err != nil {
		return info, fmt.Errorf("store: restore sync: %w", err)
	}
	return info, nil
}
