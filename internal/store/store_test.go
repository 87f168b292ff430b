package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func openT(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mustPut(t *testing.T, s *Store, key string, gen uint64, val []byte) {
	t.Helper()
	if err := s.Put(key, gen, val); err != nil {
		t.Fatal(err)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openT(t, t.TempDir(), Options{})
	mustPut(t, s, "k1", 7, []byte("hello"))
	mustPut(t, s, "k2", 0, nil)

	v, gen, ok := s.Get("k1")
	if !ok || gen != 7 || string(v) != "hello" {
		t.Fatalf("Get(k1) = %q,%d,%v; want hello,7,true", v, gen, ok)
	}
	if _, _, ok := s.Get("missing"); ok {
		t.Fatal("hit on missing key")
	}
	// Overwrite supersedes.
	mustPut(t, s, "k1", 8, []byte("world"))
	v, gen, _ = s.Get("k1")
	if gen != 8 || string(v) != "world" {
		t.Fatalf("after overwrite Get(k1) = %q,%d", v, gen)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
}

func TestReopenRecoversIndex(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	for i := 0; i < 50; i++ {
		mustPut(t, s, fmt.Sprintf("key-%02d", i), uint64(i), []byte(strings.Repeat("x", i)))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openT(t, dir, Options{})
	if r.Len() != 50 {
		t.Fatalf("recovered %d records, want 50", r.Len())
	}
	for i := 0; i < 50; i++ {
		v, gen, ok := r.Get(fmt.Sprintf("key-%02d", i))
		if !ok || gen != uint64(i) || len(v) != i {
			t.Fatalf("key-%02d: got %d bytes gen %d ok=%v", i, len(v), gen, ok)
		}
	}
	if torn := r.Stats().TornBytes; torn != 0 {
		t.Fatalf("clean close reported %d torn bytes", torn)
	}
}

func TestDeletePrefixSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	mustPut(t, s, "modelA\x1f1\x1fd1", 1, []byte("a1"))
	mustPut(t, s, "modelA\x1f1\x1fd2", 1, []byte("a2"))
	mustPut(t, s, "modelB\x1f1\x1fd1", 1, []byte("b1"))
	n, err := s.DeletePrefix("modelA\x1f")
	if err != nil || n != 2 {
		t.Fatalf("DeletePrefix = %d,%v; want 2,nil", n, err)
	}
	if _, _, ok := s.Get("modelA\x1f1\x1fd1"); ok {
		t.Fatal("deleted key still served")
	}
	// Re-put after the tombstone: must survive replay (FIFO order).
	mustPut(t, s, "modelA\x1f2\x1fd1", 2, []byte("a1v2"))
	s.Close()

	r := openT(t, dir, Options{})
	if _, _, ok := r.Get("modelA\x1f1\x1fd1"); ok {
		t.Fatal("tombstoned key resurrected by replay")
	}
	if v, _, ok := r.Get("modelB\x1f1\x1fd1"); !ok || string(v) != "b1" {
		t.Fatal("unrelated key lost")
	}
	if v, gen, ok := r.Get("modelA\x1f2\x1fd1"); !ok || gen != 2 || string(v) != "a1v2" {
		t.Fatalf("post-tombstone re-put lost: %q,%d,%v", v, gen, ok)
	}
}

// TestTornTailRecovery is the crash-recovery acceptance test: a segment
// truncated at EVERY byte offset inside its final record must reopen
// with all prior records intact and report the torn tail.
func TestTornTailRecovery(t *testing.T) {
	base := t.TempDir()
	s := openT(t, filepath.Join(base, "orig"), Options{})
	const n = 5
	for i := 0; i < n; i++ {
		mustPut(t, s, fmt.Sprintf("key-%d", i), uint64(i), bytes.Repeat([]byte{byte('a' + i)}, 20+i))
	}
	s.Close()

	segs, err := filepath.Glob(filepath.Join(base, "orig", "seg-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	lastRecSize := recHeader + len("key-4") + 24
	lastRecStart := len(data) - lastRecSize

	for cut := lastRecStart; cut < len(data); cut++ {
		dir := filepath.Join(base, fmt.Sprintf("cut-%d", cut))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(segs[0])), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut at %d: reopen failed: %v", cut, err)
		}
		if r.Len() != n-1 {
			t.Fatalf("cut at %d: recovered %d records, want %d", cut, r.Len(), n-1)
		}
		for i := 0; i < n-1; i++ {
			v, gen, ok := r.Get(fmt.Sprintf("key-%d", i))
			if !ok || gen != uint64(i) || len(v) != 20+i {
				t.Fatalf("cut at %d: key-%d corrupted: %d bytes gen %d ok=%v",
					cut, i, len(v), gen, ok)
			}
		}
		wantTorn := int64(cut - lastRecStart)
		if torn := r.Stats().TornBytes; torn != wantTorn {
			t.Fatalf("cut at %d: torn_bytes = %d, want %d", cut, torn, wantTorn)
		}
		// The truncated store must accept appends again on the repaired
		// tail, and a further reopen sees them.
		mustPut(t, r, "post-crash", 9, []byte("fresh"))
		r.Close()
		rr := openT(t, dir, Options{})
		if v, _, ok := rr.Get("post-crash"); !ok || string(v) != "fresh" {
			t.Fatalf("cut at %d: post-repair append lost", cut)
		}
		rr.Close()
	}
}

// TestBitFlipDetectedAtRead: a corrupted payload byte must surface as a
// miss (CRC mismatch), never as a wrong value.
func TestBitFlipDetectedAtRead(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	mustPut(t, s, "k", 1, []byte("payload-payload-payload"))
	s.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x40
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Replay treats the flipped record as a torn tail (it is the last
	// record); a flip in an already-indexed record is caught by Get.
	r := openT(t, dir, Options{})
	if _, _, ok := r.Get("k"); ok {
		t.Fatal("corrupted record served")
	}
}

func TestSegmentRollAndCompaction(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments and no compaction floor so a handful of writes roll
	// and compact deterministically.
	s := openT(t, dir, Options{SegmentBytes: 512, CompactMinBytes: 1, CompactFraction: 0.5})
	val := bytes.Repeat([]byte("v"), 100)
	// Overwrite the same 3 keys repeatedly: almost everything becomes
	// garbage, so the roll-time check must compact.
	for i := 0; i < 60; i++ {
		mustPut(t, s, fmt.Sprintf("key-%d", i%3), uint64(i), val)
	}
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction despite %d total / %d live bytes", st.TotalBytes, st.LiveBytes)
	}
	if st.Records != 3 {
		t.Fatalf("records = %d, want 3", st.Records)
	}
	for i := 0; i < 3; i++ {
		if _, _, ok := s.Get(fmt.Sprintf("key-%d", i)); !ok {
			t.Fatalf("key-%d lost across compaction", i)
		}
	}
	s.Close()
	r := openT(t, dir, Options{SegmentBytes: 512})
	if r.Len() != 3 {
		t.Fatalf("post-compaction reopen: %d records, want 3", r.Len())
	}
}

func TestExplicitCompactReclaims(t *testing.T) {
	s := openT(t, t.TempDir(), Options{})
	for i := 0; i < 20; i++ {
		mustPut(t, s, "hot", uint64(i), bytes.Repeat([]byte("x"), 200))
	}
	var got CompactionInfo
	done := make(chan struct{})
	s.OnCompact(func(ci CompactionInfo) { got = ci; close(done) })
	before := s.Stats()
	s.mu.Lock()
	err := s.compactLocked()
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	<-done
	after := s.Stats()
	if after.TotalBytes >= before.TotalBytes {
		t.Fatalf("compaction reclaimed nothing: %d -> %d", before.TotalBytes, after.TotalBytes)
	}
	if got.Records != 1 || got.Reclaimed <= 0 {
		t.Fatalf("compaction info %+v", got)
	}
	if v, gen, ok := s.Get("hot"); !ok || gen != 19 || len(v) != 200 {
		t.Fatalf("latest value lost: %d bytes gen %d ok=%v", len(v), gen, ok)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	for i := 0; i < 30; i++ {
		mustPut(t, s, fmt.Sprintf("key-%02d", i), uint64(i%4), []byte(fmt.Sprintf("val-%d", i)))
	}
	info, err := s.Snapshot("backup-1")
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 30 {
		t.Fatalf("snapshot records = %d, want 30", info.Records)
	}
	// Writes after the snapshot are not in the archive.
	mustPut(t, s, "late", 0, []byte("late"))

	list, err := s.Snapshots()
	if err != nil || len(list) != 1 || list[0].Name != "backup-1" || list[0].Records != 30 {
		t.Fatalf("Snapshots() = %+v, %v", list, err)
	}
	s.Close()

	// Wipe the segment files (the snapshot archive survives in its
	// subdirectory), reopen empty, restore.
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	for _, p := range segs {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	r := openT(t, dir, Options{})
	if r.Len() != 0 {
		t.Fatalf("wiped store has %d records", r.Len())
	}
	ri, err := r.Restore("backup-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if ri.Restored != 30 || ri.Dropped != 0 {
		t.Fatalf("restore info %+v", ri)
	}
	for i := 0; i < 30; i++ {
		v, _, ok := r.Get(fmt.Sprintf("key-%02d", i))
		if !ok || string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("key-%02d not restored (%q, %v)", i, v, ok)
		}
	}
	if _, _, ok := r.Get("late"); ok {
		t.Fatal("post-snapshot write restored from older archive")
	}
	// Restored state survives another restart.
	r.Close()
	rr := openT(t, dir, Options{})
	if rr.Len() != 30 {
		t.Fatalf("restored store reopened with %d records", rr.Len())
	}
}

func TestRestoreKeepFilterDropsConflicts(t *testing.T) {
	s := openT(t, t.TempDir(), Options{})
	mustPut(t, s, "m\x1fgen1\x1fd", 1, []byte("old"))
	mustPut(t, s, "m\x1fgen2\x1fd", 2, []byte("new"))
	if _, err := s.Snapshot("mixed"); err != nil {
		t.Fatal(err)
	}
	ri, err := s.Restore("mixed", func(key string, gen uint64) bool { return gen == 2 })
	if err != nil {
		t.Fatal(err)
	}
	if ri.Restored != 1 || ri.Dropped != 1 {
		t.Fatalf("restore info %+v, want 1 restored / 1 dropped", ri)
	}
	if _, _, ok := s.Get("m\x1fgen1\x1fd"); ok {
		t.Fatal("conflicting generation restored")
	}
	if _, _, ok := s.Get("m\x1fgen2\x1fd"); !ok {
		t.Fatal("current generation dropped")
	}
}

func TestSnapshotNameValidation(t *testing.T) {
	s := openT(t, t.TempDir(), Options{})
	for _, bad := range []string{"", "../escape", "a/b", ".hidden", "sp ace", strings.Repeat("x", 200)} {
		if _, err := s.Snapshot(bad); err == nil {
			t.Fatalf("Snapshot(%q) accepted", bad)
		}
	}
	if _, err := s.Restore("no-such-archive", nil); err == nil {
		t.Fatal("restore of unknown snapshot succeeded")
	}
}

func TestClosedStoreRejectsOps(t *testing.T) {
	s := openT(t, t.TempDir(), Options{})
	mustPut(t, s, "k", 0, []byte("v"))
	s.Close()
	if err := s.Put("k2", 0, nil); err != ErrClosed {
		t.Fatalf("Put after close: %v", err)
	}
	if _, _, ok := s.Get("k"); ok {
		t.Fatal("Get served after close")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}
