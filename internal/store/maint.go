package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// ObjectInfo describes one on-disk object during a maintenance walk.
type ObjectInfo struct {
	// Path is the object's absolute (or dir-relative, as given) path.
	Path string
	// Kind is the flattened kind directory the object lives under.
	Kind string
	// Size is the file size in bytes (envelope included).
	Size int64
	// ModTime is the object's timestamp; a hit refreshes it when it is
	// older than touchInterval, so it orders objects by last use to within
	// that interval.
	ModTime time.Time
}

// walkObjects visits every object under dir's objects tree in a fixed
// lexical order (os.ReadDir sorts by name), skipping in-flight temp files
// and directories.  A directory inside a kind holds nothing Load reads, such
// as the two-hex-digit shards an earlier, sharded layout wrote, so its
// objects are neither counted, checked nor collected.  Nor is a file beside
// the kind directories, such as a README or the .DS_Store a file browser
// leaves.  A missing objects tree is an empty store, not an error.
func walkObjects(dir string, fn func(ObjectInfo) error) error {
	root := filepath.Join(dir, "objects")
	kinds, err := os.ReadDir(root)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	for _, kind := range kinds {
		if !kind.IsDir() {
			continue
		}
		kindDir := filepath.Join(root, kind.Name())
		ents, err := os.ReadDir(kindDir)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if ok, _ := filepath.Match(tmpPattern, e.Name()); ok || e.IsDir() {
				continue
			}
			path := filepath.Join(kindDir, e.Name())
			fi, err := os.Stat(path)
			if err != nil {
				continue // racing eviction or writer; skip
			}
			if err := fn(ObjectInfo{Path: path, Kind: kind.Name(), Size: fi.Size(), ModTime: fi.ModTime()}); err != nil {
				return err
			}
		}
	}
	return nil
}

// KindUsage is the on-disk footprint of one kind.
type KindUsage struct {
	Objects int   `json:"objects"`
	Bytes   int64 `json:"bytes"`
}

// DiskUsage is the on-disk footprint of a store directory.
type DiskUsage struct {
	Objects int                  `json:"objects"`
	Bytes   int64                `json:"bytes"`
	Kinds   map[string]KindUsage `json:"kinds,omitempty"`
}

// Usage walks a store directory and returns its footprint per kind.
func Usage(dir string) (DiskUsage, error) {
	u := DiskUsage{Kinds: map[string]KindUsage{}}
	err := walkObjects(dir, func(o ObjectInfo) error {
		u.Objects++
		u.Bytes += o.Size
		k := u.Kinds[o.Kind]
		k.Objects++
		k.Bytes += o.Size
		u.Kinds[o.Kind] = k
		return nil
	})
	return u, err
}

// GCResult reports what an eviction pass did.
type GCResult struct {
	Evicted      int   `json:"evicted"`
	EvictedBytes int64 `json:"evicted_bytes"`
	Kept         int   `json:"kept"`
	KeptBytes    int64 `json:"kept_bytes"`
}

// tmpMaxAge is how long an in-flight temp file may linger before GC reaps it
// as the debris of a crashed writer.
const tmpMaxAge = time.Hour

// GC evicts least-recently-used objects until the store fits maxBytes.
// "Recently used" is the object timestamp a hit refreshes when it is older
// than touchInterval; ties break on the object path, so eviction is
// deterministic for a given set of timestamps.  Stale temp files from
// crashed writers are reaped as a side effect.  Eviction races benignly
// with readers and writers: a reader that loses its object takes a miss and
// recomputes.
func GC(dir string, maxBytes int64) (GCResult, error) {
	reapTempFiles(dir)
	var objects []ObjectInfo
	var total int64
	err := walkObjects(dir, func(o ObjectInfo) error {
		objects = append(objects, o)
		total += o.Size
		return nil
	})
	if err != nil {
		return GCResult{}, err
	}
	sort.Slice(objects, func(i, j int) bool {
		if !objects[i].ModTime.Equal(objects[j].ModTime) {
			return objects[i].ModTime.Before(objects[j].ModTime)
		}
		return objects[i].Path < objects[j].Path
	})
	res := GCResult{Kept: len(objects), KeptBytes: total}
	for _, o := range objects {
		if res.KeptBytes <= maxBytes {
			break
		}
		if err := os.Remove(o.Path); err != nil {
			continue // racing eviction; the object is gone either way
		}
		res.Evicted++
		res.EvictedBytes += o.Size
		res.Kept--
		res.KeptBytes -= o.Size
	}
	return res, nil
}

// reapTempFiles removes temp files older than tmpMaxAge anywhere under the
// objects tree.
func reapTempFiles(dir string) {
	_ = filepath.WalkDir(filepath.Join(dir, "objects"), func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil //nolint:nilerr // best-effort hygiene, never fatal
		}
		if ok, _ := filepath.Match(tmpPattern, d.Name()); !ok {
			return nil
		}
		if fi, err := d.Info(); err == nil && time.Since(fi.ModTime()) > tmpMaxAge {
			_ = os.Remove(path)
		}
		return nil
	})
}

// BadObject is one object Verify could not validate.
type BadObject struct {
	Path   string `json:"path"`
	Reason string `json:"reason"`
}

// VerifyResult reports an integrity walk.
type VerifyResult struct {
	// Checked counts the objects visited.
	Checked int `json:"checked"`
	// Stale counts intact objects written under another schema version;
	// they are not corrupt, just awaiting rewrite (or GC).
	Stale int `json:"stale"`
	// Bad lists the objects that failed validation.
	Bad []BadObject `json:"bad,omitempty"`
}

// Verify walks every object and validates it end to end: the file name must
// be a well-formed digest, the envelope's key digest must match it, and the
// payload must match its checksum.  It reads each object as Load does.  With
// deleteBad set, failing objects are removed (they would otherwise be
// rewritten on their next miss anyway; this just reclaims the space
// immediately).
func Verify(dir string, deleteBad bool) (VerifyResult, error) {
	var res VerifyResult
	err := walkObjects(dir, func(o ObjectInfo) error {
		res.Checked++
		reason := verifyObject(o)
		if reason == "" {
			return nil
		}
		if reason == reasonStale {
			res.Stale++
			return nil
		}
		res.Bad = append(res.Bad, BadObject{Path: o.Path, Reason: reason})
		if deleteBad {
			_ = os.Remove(o.Path)
		}
		return nil
	})
	return res, err
}

// reasonStale marks a version-mismatched (but intact) object.
const reasonStale = "stale schema version"

// verifyObject validates one object file, returning "" when it is intact.
func verifyObject(o ObjectInfo) string {
	digestBytes, err := hex.DecodeString(filepath.Base(o.Path))
	if err != nil || len(digestBytes) != sha256.Size {
		return "file name is not a SHA-256 digest"
	}
	data, _, err := readObject(o.Path)
	if err != nil {
		return fmt.Sprintf("unreadable: %v", err)
	}
	if _, err := decodeEnvelope(data, [sha256.Size]byte(digestBytes)); err != nil {
		if errors.Is(err, errWrongVersion) {
			return reasonStale
		}
		return err.Error()
	}
	return ""
}
