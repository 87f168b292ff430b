package store

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzStoreOpen replays arbitrary bytes after the segment magic. Open
// must never panic; every record Get serves must be a checksummed record
// present byte for byte in the input; and the store must stay writable:
// a put after the recovered prefix survives a reopen.
func FuzzStoreOpen(f *testing.F) {
	rec := func(key, val string, gen uint64, kind byte) []byte {
		return appendRecord(nil, key, []byte(val), gen, kind)
	}
	good := append(rec("classify\x00k1", "\x80{}", 1, kindPut), rec("tool\x00k2", "x", 2, kindPut)...)
	f.Add([]byte{})
	f.Add(good)
	f.Add(append(append([]byte{}, good...), rec("tool", "", 0, kindPrefixTombstone)...))
	f.Add(good[:len(good)-3]) // torn tail
	flipped := append([]byte{}, good...)
	flipped[30] ^= 0x40 // a flipped bit in the first record
	f.Add(flipped)
	f.Add(append(rec("k", "v", 0, 7), good...)) // unknown kind
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		data := append([]byte(segMagic), body...)
		if err := os.WriteFile(filepath.Join(dir, "seg-00000001.log"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			return // a clean error is an acceptable answer
		}
		var keys []string
		s.Range(func(key string, _ uint64) bool {
			keys = append(keys, key)
			return true
		})
		for _, key := range keys {
			val, gen, ok := s.Get(key)
			if !ok {
				continue // a key whose record Get rejects is a miss, never a payload
			}
			if want := appendRecord(nil, key, val, gen, kindPut); !bytes.Contains(data, want) {
				t.Fatalf("Get(%q) served %q (gen %d), which no checksummed record in the input holds", key, val, gen)
			}
		}
		const probe = "fuzz-probe"
		if err := s.Put(probe, 9, []byte("p")); err != nil {
			t.Fatalf("put after recovery: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("reopen after recovery: %v", err)
		}
		defer r.Close()
		if val, gen, ok := r.Get(probe); !ok || gen != 9 || string(val) != "p" {
			t.Fatalf("probe after reopen = %q, %d, %v", val, gen, ok)
		}
		want := len(keys)
		if !slices.Contains(keys, probe) {
			want++
		}
		if r.Len() != want {
			t.Fatalf("reopen indexed %d records, want %d", r.Len(), want)
		}
	})
}

// FuzzTierLoad loads arbitrary payload bytes through a tier. Each Load
// is exactly one of a verdict, a miss or a counted decode error, and
// never a panic.
func FuzzTierLoad(f *testing.F) {
	for _, p := range []string{
		"", "\x80", "\x80{}", "\x80null", "\x80{\"Label\":\"x\",\"Score\":1e308,\"Ranks\":-3}",
		"\x80{\"Score\":\"NaN\"}", "\x80[]", "\x80\"s\"", "\x80{\"Label\":\"\\ud800\"}",
		"\x0c\xff\x81\x03\x01\x01\x07verdict", "{}", "\x00", "\xf7",
	} {
		f.Add([]byte(p))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		s, err := Open(t.TempDir(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		tr := NewTier[verdict](s, "classify", TierOptions{})
		defer tr.Close()
		if err := s.Put("classify"+nsSep+"k", 0, payload); err != nil {
			t.Fatal(err)
		}
		v, ok, err := tr.Load("k")
		st := tr.Stats()
		switch {
		case ok && err == nil:
			if st.Loads != 1 || st.LoadMisses != 0 || st.DecodeErrors != 0 {
				t.Fatalf("hit counted as %+v", st)
			}
		case !ok && err == nil:
			if st.LoadMisses != 1 || st.Loads != 0 || st.DecodeErrors != 0 || v != (verdict{}) {
				t.Fatalf("miss (%+v) counted as %+v", v, st)
			}
			if len(payload) > 0 && payload[0] == payloadJSON {
				t.Fatalf("payload %q with the format byte answered as a plain miss", payload)
			}
		case !ok && err != nil:
			if st.DecodeErrors != 1 || st.LoadErrors != 1 || st.Loads != 0 || st.LoadMisses != 0 {
				t.Fatalf("decode error counted as %+v", st)
			}
		default:
			t.Fatalf("Load = ok with error %v", err)
		}
	})
}
