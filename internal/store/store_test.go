package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// stringCodec persists strings of one synthetic kind; decode failures are
// injectable through the payload itself (a payload starting with "!" refuses
// to decode, standing in for a codec-level rejection).
type stringCodec struct{ kind string }

func (c stringCodec) Kind() string { return c.kind }

func (c stringCodec) Encode(v any) ([]byte, error) {
	s, ok := v.(string)
	if !ok {
		return nil, fmt.Errorf("not a string: %T", v)
	}
	return []byte(s), nil
}

func (c stringCodec) Decode(data []byte) (any, error) {
	if strings.HasPrefix(string(data), "!") {
		return nil, fmt.Errorf("injected decode failure")
	}
	return string(data), nil
}

const testKind = "test/kind"

func openTest(t *testing.T) *Store {
	t.Helper()
	return Open(t.TempDir(), stringCodec{kind: testKind})
}

// objectFile locates the single object a one-save store holds.
func objectFile(t *testing.T, s *Store, kind, key string) string {
	t.Helper()
	path := s.kinds[kind].path(keyDigest(kind, key))
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("object for (%s, %s) not on disk: %v", kind, key, err)
	}
	return path
}

func TestMissThenSaveThenHit(t *testing.T) {
	s := openTest(t)
	if _, ok := s.Load(testKind, "k1"); ok {
		t.Fatal("empty store reported a hit")
	}
	s.Save(testKind, "k1", "v1")
	v, ok := s.Load(testKind, "k1")
	if !ok || v != "v1" {
		t.Fatalf("Load = %v, %v; want v1, true", v, ok)
	}
	c := s.Counters()
	want := Counters{Hits: 1, Misses: 1, Writes: 1}
	if c != want {
		t.Fatalf("counters = %+v, want %+v", c, want)
	}
	kc := s.KindCounters()
	if kc[testKind] != want {
		t.Fatalf("kind counters = %+v, want %+v", kc[testKind], want)
	}
}

func TestCrossHandleSharing(t *testing.T) {
	// Two handles on the same directory model two processes: a result saved
	// through one is a hit through the other.
	dir := t.TempDir()
	a := Open(dir, stringCodec{kind: testKind})
	b := Open(dir, stringCodec{kind: testKind})
	a.Save(testKind, "shared", "payload")
	v, ok := b.Load(testKind, "shared")
	if !ok || v != "payload" {
		t.Fatalf("second handle Load = %v, %v", v, ok)
	}
}

func TestBypassWithoutCodec(t *testing.T) {
	s := openTest(t)
	if _, ok := s.Load("other/kind", "k"); ok {
		t.Fatal("kind without a codec reported a hit")
	}
	s.Save("other/kind", "k", "v") // silently ignored
	c := s.Counters()
	if c.Bypassed != 1 || c.Writes != 0 || c.Misses != 0 {
		t.Fatalf("counters = %+v, want exactly one bypass", c)
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), "objects")); !os.IsNotExist(err) {
		t.Fatal("bypassed kind left objects on disk")
	}
}

func TestKeysDoNotCollide(t *testing.T) {
	s := openTest(t)
	s.Save(testKind, "k1", "v1")
	s.Save(testKind, "k2", "v2")
	if v, _ := s.Load(testKind, "k1"); v != "v1" {
		t.Fatalf("k1 = %v", v)
	}
	if v, _ := s.Load(testKind, "k2"); v != "v2" {
		t.Fatalf("k2 = %v", v)
	}
}

// TestTruncatedObjectIsMissAndRepaired pins the corruption contract: a
// truncated object reads as a (corrupt-counted) miss, never an error, and the
// next save repairs it in place.
func TestTruncatedObjectIsMissAndRepaired(t *testing.T) {
	s := openTest(t)
	s.Save(testKind, "k", "value")
	path := objectFile(t, s, testKind, "k")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 3, headerLen - 1, headerLen, len(data) - 1} {
		if err := os.WriteFile(path, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Load(testKind, "k"); ok {
			t.Fatalf("truncation to %d bytes still read as a hit", n)
		}
	}
	if c := s.Counters(); c.Corrupt == 0 {
		t.Fatalf("counters = %+v, want corrupt loads counted", c)
	}
	// The envelope-level truncations (and the flipped-bit case below) must
	// all be recoverable by a rewrite.
	s.Save(testKind, "k", "value")
	if v, ok := s.Load(testKind, "k"); !ok || v != "value" {
		t.Fatalf("after repair: Load = %v, %v", v, ok)
	}
}

func TestFlippedPayloadBitIsCorrupt(t *testing.T) {
	s := openTest(t)
	s.Save(testKind, "k", "value")
	path := objectFile(t, s, testKind, "k")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load(testKind, "k"); ok {
		t.Fatal("checksum-mismatched object read as a hit")
	}
	if c := s.Counters(); c.Corrupt != 1 {
		t.Fatalf("counters = %+v, want Corrupt = 1", c)
	}
}

func TestCodecRejectionIsCorrupt(t *testing.T) {
	s := openTest(t)
	s.Save(testKind, "k", "!poison") // intact envelope, payload the codec refuses
	if _, ok := s.Load(testKind, "k"); ok {
		t.Fatal("codec-rejected object read as a hit")
	}
	if c := s.Counters(); c.Corrupt != 1 {
		t.Fatalf("counters = %+v, want Corrupt = 1", c)
	}
}

// TestVersionBumpInvalidates pins the schema-version contract: an object
// written under another version is a plain miss (an expected invalidation,
// not corruption) and is rewritten by the next save.
func TestVersionBumpInvalidates(t *testing.T) {
	s := openTest(t)
	s.Save(testKind, "k", "old")
	path := objectFile(t, s, testKind, "k")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the envelope's version field in place; everything else stays
	// intact, exactly what a binary from another schema era leaves behind.
	binary.LittleEndian.PutUint32(data[4:8], Version+1)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load(testKind, "k"); ok {
		t.Fatal("version-mismatched object read as a hit")
	}
	c := s.Counters()
	if c.Misses != 1 || c.Corrupt != 0 {
		t.Fatalf("counters = %+v, want the mismatch counted as a miss, not corruption", c)
	}
	s.Save(testKind, "k", "new")
	if v, ok := s.Load(testKind, "k"); !ok || v != "new" {
		t.Fatalf("after rewrite: Load = %v, %v", v, ok)
	}
}

// TestConcurrentWritersSameKey races many goroutines saving and loading one
// key (run under -race in CI): every load must observe either a miss or the
// one complete value -- never a torn object, never a panic.
func TestConcurrentWritersSameKey(t *testing.T) {
	dir := t.TempDir()
	const writers = 8
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A private handle per goroutine models separate processes
			// sharing the directory.
			s := Open(dir, stringCodec{kind: testKind})
			for i := 0; i < 50; i++ {
				s.Save(testKind, "contended", "stable-value")
				if v, ok := s.Load(testKind, "contended"); ok && v != "stable-value" {
					t.Errorf("torn read: %q", v)
					return
				}
			}
		}()
	}
	wg.Wait()
	s := Open(dir, stringCodec{kind: testKind})
	if v, ok := s.Load(testKind, "contended"); !ok || v != "stable-value" {
		t.Fatalf("after the race: Load = %v, %v", v, ok)
	}
	// No temp-file debris: every writer either renamed or cleaned up.
	found := 0
	_ = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if ok, _ := filepath.Match(tmpPattern, d.Name()); ok {
				found++
			}
		}
		return nil
	})
	if found != 0 {
		t.Fatalf("%d temp files left behind", found)
	}
}

func TestUnwritableDirDegradesToColdCache(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("root ignores directory permissions")
	}
	dir := t.TempDir()
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chmod(dir, 0o755) })
	s := Open(filepath.Join(dir, "store"), stringCodec{kind: testKind})
	s.Save(testKind, "k", "v") // must not panic or error out
	if _, ok := s.Load(testKind, "k"); ok {
		t.Fatal("unwritable store reported a hit")
	}
	if c := s.Counters(); c.WriteErrors != 1 {
		t.Fatalf("counters = %+v, want WriteErrors = 1", c)
	}
}
