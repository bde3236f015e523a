package store

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fill saves n distinct single-kind objects and returns their paths in key
// order, with strictly increasing mtimes so LRU order is fully determined.
func fill(t *testing.T, s *Store, n int) []string {
	t.Helper()
	base := time.Now().Add(-time.Duration(n+1) * time.Hour)
	paths := make([]string, n)
	for i := 0; i < n; i++ {
		key := string(rune('a' + i))
		s.Save(testKind, key, strings.Repeat(key, 10))
		paths[i] = objectFile(t, s, testKind, key)
		stamp := base.Add(time.Duration(i) * time.Hour)
		if err := os.Chtimes(paths[i], stamp, stamp); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

func TestUsage(t *testing.T) {
	s := openTest(t)
	fill(t, s, 3)
	u, err := Usage(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if u.Objects != 3 || u.Bytes != 3*(headerLen+10) {
		t.Fatalf("usage = %+v, want 3 objects of %d bytes each", u, headerLen+10)
	}
	ku, ok := u.Kinds[sanitizeKind(testKind)]
	if !ok || ku.Objects != 3 {
		t.Fatalf("kind usage = %+v", u.Kinds)
	}
	// An empty (even nonexistent) store has zero usage, not an error.
	u, err = Usage(filepath.Join(t.TempDir(), "never-created"))
	if err != nil || u.Objects != 0 {
		t.Fatalf("empty usage = %+v, %v", u, err)
	}
}

// TestGCEvictsDeterministically pins LRU eviction: with fully ordered
// timestamps, GC removes exactly the oldest objects needed to meet the byte
// budget and nothing else.
func TestGCEvictsDeterministically(t *testing.T) {
	s := openTest(t)
	paths := fill(t, s, 5)
	objSize := int64(headerLen + 10)

	// Budget for exactly three objects: the two oldest must go.
	res, err := GC(s.Dir(), 3*objSize)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evicted != 2 || res.Kept != 3 || res.KeptBytes != 3*objSize {
		t.Fatalf("gc = %+v", res)
	}
	for i, p := range paths {
		_, err := os.Stat(p)
		if gone := os.IsNotExist(err); gone != (i < 2) {
			t.Fatalf("object %d: exists=%v, want evicted only for the two oldest", i, !gone)
		}
	}

	// A second pass under the same budget is a no-op: eviction is stable.
	res, err = GC(s.Dir(), 3*objSize)
	if err != nil || res.Evicted != 0 || res.Kept != 3 {
		t.Fatalf("second gc = %+v, %v", res, err)
	}

	// A zero budget empties the store.
	res, err = GC(s.Dir(), 0)
	if err != nil || res.Kept != 0 || res.Evicted != 3 {
		t.Fatalf("gc to zero = %+v, %v", res, err)
	}
}

// TestGCHonorsLoadRecency pins the LRU signal end to end: touching an old
// object via Load saves it from an eviction that claims its untouched peer.
func TestGCHonorsLoadRecency(t *testing.T) {
	s := openTest(t)
	paths := fill(t, s, 2)
	// Object 0 is older; a hit refreshes its stamp past object 1's.
	if _, ok := s.Load(testKind, "a"); !ok {
		t.Fatal("miss on object 0")
	}
	res, err := GC(s.Dir(), int64(headerLen+10))
	if err != nil || res.Evicted != 1 {
		t.Fatalf("gc = %+v, %v", res, err)
	}
	if _, err := os.Stat(paths[0]); err != nil {
		t.Fatal("recently loaded object was evicted")
	}
	if _, err := os.Stat(paths[1]); !os.IsNotExist(err) {
		t.Fatal("stale object survived")
	}
}

// TestLoadTouchesOnlyStaleStamps pins the touch interval: a hit rewrites an
// object's timestamp only when it is older than touchInterval, as relatime
// does for atime.
func TestLoadTouchesOnlyStaleStamps(t *testing.T) {
	s := openTest(t)
	paths := fill(t, s, 2)
	stale, fresh := time.Now().Add(-2*time.Hour), time.Now().Add(-time.Second)
	for i, stamp := range []time.Time{stale, fresh} {
		if err := os.Chtimes(paths[i], stamp, stamp); err != nil {
			t.Fatal(err)
		}
	}
	before, err := os.Stat(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"a", "b"} {
		if _, ok := s.Load(testKind, key); !ok {
			t.Fatalf("miss on object %s", key)
		}
	}
	staleAfter, err := os.Stat(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	freshAfter, err := os.Stat(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	if staleAfter.ModTime().Sub(stale) < touchInterval {
		t.Errorf("hit on an object stamped 2h ago left its stamp at %v, want it refreshed", staleAfter.ModTime())
	}
	if !freshAfter.ModTime().Equal(before.ModTime()) {
		t.Errorf("hit on an object stamped 1s ago moved its stamp from %v to %v", before.ModTime(), freshAfter.ModTime())
	}
}

func TestGCReapsStaleTempFiles(t *testing.T) {
	s := openTest(t)
	fill(t, s, 1)
	kindDir := filepath.Dir(objectFile(t, s, testKind, "a"))
	stale := filepath.Join(kindDir, ".tmp-123")
	fresh := filepath.Join(kindDir, ".tmp-456")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * tmpMaxAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := GC(s.Dir(), 1<<30); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale temp file survived GC")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatal("in-flight temp file was reaped")
	}
}

func TestVerifyWalk(t *testing.T) {
	s := openTest(t)
	fill(t, s, 3)

	// All intact.
	res, err := Verify(s.Dir(), false)
	if err != nil || res.Checked != 3 || len(res.Bad) != 0 || res.Stale != 0 {
		t.Fatalf("verify = %+v, %v", res, err)
	}

	// Corrupt one object; verify reports it but leaves it unless asked.
	victim := objectFile(t, s, testKind, "b")
	if err := os.WriteFile(victim, []byte("MDSOgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err = Verify(s.Dir(), false)
	if err != nil || len(res.Bad) != 1 || res.Bad[0].Path != victim {
		t.Fatalf("verify = %+v, %v", res, err)
	}
	if _, err := os.Stat(victim); err != nil {
		t.Fatal("verify without -delete removed the object")
	}

	// With delete, the bad object is reclaimed; intact ones survive.
	if res, err = Verify(s.Dir(), true); err != nil || len(res.Bad) != 1 {
		t.Fatalf("verify -delete = %+v, %v", res, err)
	}
	if _, err := os.Stat(victim); !os.IsNotExist(err) {
		t.Fatal("verify -delete left the bad object")
	}
	res, err = Verify(s.Dir(), false)
	if err != nil || res.Checked != 2 || len(res.Bad) != 0 {
		t.Fatalf("verify after delete = %+v, %v", res, err)
	}
}

// TestVerifyFlagsForeignAndMisfiledObjects pins Verify's name checks: a
// foreign file whose name is not a digest, and an intact object filed under
// another object's name, are both bad.
func TestVerifyFlagsForeignAndMisfiledObjects(t *testing.T) {
	s := openTest(t)
	fill(t, s, 1)
	good := objectFile(t, s, testKind, "a")
	kindDir := filepath.Dir(good)

	// A foreign file with a non-digest name.
	if err := os.WriteFile(filepath.Join(kindDir, "README"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	// An intact object copied under the name of another key.
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	misfiled := s.kinds[testKind].path(keyDigest(testKind, "b"))
	if err := os.WriteFile(misfiled, data, 0o644); err != nil {
		t.Fatal(err)
	}

	res, err := Verify(s.Dir(), false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Checked != 3 || len(res.Bad) != 2 {
		t.Fatalf("verify = %+v", res)
	}
}

// TestShardedLayoutIsIgnored pins the flat layout: an intact object at its
// path under the earlier sharded layout, objects/<kind>/<hh>/<hash>, is never
// read, and the maintenance walks neither count, check nor collect it.
func TestShardedLayoutIsIgnored(t *testing.T) {
	s := openTest(t)
	digest := keyDigest(testKind, "k")
	name := hex.EncodeToString(digest[:])
	sharded := filepath.Join(s.Dir(), "objects", sanitizeKind(testKind), name[:2], name)
	if err := os.MkdirAll(filepath.Dir(sharded), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sharded, appendEnvelope(nil, digest, []byte("v")), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := s.Load(testKind, "k"); ok {
		t.Fatal("an object at its sharded path read as a hit")
	}
	if c := s.Counters(); c.Misses != 1 || c.Corrupt != 0 {
		t.Fatalf("counters = %+v, want one miss", c)
	}
	if u, err := Usage(s.Dir()); err != nil || u.Objects != 0 {
		t.Fatalf("usage = %+v, %v; want the sharded object uncounted", u, err)
	}
	if res, err := Verify(s.Dir(), true); err != nil || res.Checked != 0 || len(res.Bad) != 0 {
		t.Fatalf("verify = %+v, %v; want the sharded object unchecked", res, err)
	}
	if res, err := GC(s.Dir(), 0); err != nil || res.Kept != 0 || res.Evicted != 0 {
		t.Fatalf("gc = %+v, %v; want the sharded object uncounted", res, err)
	}
	if _, err := os.Stat(sharded); err != nil {
		t.Fatalf("the sharded object was removed: %v", err)
	}
}

// TestStrayFileBesideKinds pins the walk's kind level: a regular file
// directly under objects/ is not a kind, so Usage, GC and Verify succeed
// and count only the real objects.
func TestStrayFileBesideKinds(t *testing.T) {
	s := openTest(t)
	paths := fill(t, s, 3)
	stray := filepath.Join(s.Dir(), "objects", "README")
	if err := os.WriteFile(stray, []byte("results of memdep runs"), 0o644); err != nil {
		t.Fatal(err)
	}
	if u, err := Usage(s.Dir()); err != nil || u.Objects != 3 {
		t.Fatalf("usage = %+v, %v; want the 3 objects", u, err)
	}
	if res, err := Verify(s.Dir(), true); err != nil || res.Checked != 3 || len(res.Bad) != 0 {
		t.Fatalf("verify = %+v, %v; want the 3 objects checked and intact", res, err)
	}
	// A budget of two objects evicts the oldest object, not the stray file.
	if res, err := GC(s.Dir(), 2*(headerLen+10)); err != nil || res.Kept != 2 || res.Evicted != 1 {
		t.Fatalf("gc = %+v, %v; want 2 kept and 1 evicted", res, err)
	}
	if _, err := os.Stat(paths[0]); !os.IsNotExist(err) {
		t.Fatalf("the oldest object survived the GC: %v", err)
	}
	if _, err := os.Stat(stray); err != nil {
		t.Fatalf("the stray file was removed: %v", err)
	}
}
