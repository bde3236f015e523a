// Package store is the disk-backed, content-addressed second tier beneath
// the engine's in-memory result cache.  Objects are keyed on the canonical
// cache keys the engine job kinds already produce (normalized-spec JSON and
// configuration strings), hashed with SHA-256 and laid out flat as
//
//	<dir>/objects/<kind>/<hash>
//
// where <kind> is the job kind with path separators flattened and <hash> is
// the hex digest of the engine key.  Each file is a versioned envelope
// (format version, key digest, payload checksum -- see envelope.go) written
// atomically via an O_EXCL temp file and rename, so concurrent writers in
// any number of processes race benignly: both write the same content and
// the last rename wins.  The envelope's Version is the only format version:
// it covers every codec's payload too.
//
// The store is an optimization layer, never a source of truth: corrupt,
// truncated or version-mismatched entries are treated as misses and
// rewritten on the next computation, and a write failure only bumps a
// counter.  Kinds opt in through their Codec -- a kind without a registered
// codec bypasses the disk entirely, which keeps cheap or non-deterministic
// jobs memory-only.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Codec translates one job kind's results to and from persistable bytes.
// Encodings must be self-contained (the payload is the only input to Decode)
// and loss-free: a decoded value must be indistinguishable from the computed
// one, since warm results feed the same drivers, goldens and experiment
// tables as cold ones.
type Codec interface {
	// Kind returns the engine job kind this codec persists.
	Kind() string
	// Encode renders a result value of the kind to bytes.
	Encode(v any) ([]byte, error)
	// Decode reconstructs a result value from Encode's bytes.  It must
	// return an error, never panic, on bytes it cannot decode.
	Decode(data []byte) (any, error)
}

// Counters is a snapshot of one kind's (or the whole store's) traffic.
type Counters struct {
	// Hits counts loads served from an intact on-disk object.
	Hits uint64 `json:"hits"`
	// Misses counts loads that found no object (including objects written
	// under another schema version, which are expected invalidations).
	Misses uint64 `json:"misses"`
	// Bypassed counts loads of kinds with no registered codec.
	Bypassed uint64 `json:"bypassed"`
	// Corrupt counts objects that were present but undecodable -- truncated,
	// checksum-mismatched or rejected by the codec.  They are treated as
	// misses and rewritten by the following computation.
	Corrupt uint64 `json:"corrupt"`
	// Writes counts objects persisted.
	Writes uint64 `json:"writes"`
	// WriteErrors counts failed persists (encoding or I/O); the result is
	// still returned to the caller, only the disk copy is lost.
	WriteErrors uint64 `json:"write_errors"`
}

// add accumulates o into c.
func (c *Counters) add(o Counters) {
	c.Hits += o.Hits
	c.Misses += o.Misses
	c.Bypassed += o.Bypassed
	c.Corrupt += o.Corrupt
	c.Writes += o.Writes
	c.WriteErrors += o.WriteErrors
}

// Store is a handle on one store directory.  It is safe for concurrent use
// within a process, and any number of processes may share the directory.
type Store struct {
	dir   string
	kinds map[string]kindDir

	mu sync.Mutex
	//memdep:guardedby mu
	perKind map[string]*Counters
}

// kindDir is a registered kind: its codec and the directory its objects
// live in, <dir>/objects/<kind>, built once by Open.
type kindDir struct {
	codec Codec
	dir   string
}

// path returns the object path of a key digest, the digest in hex inside
// the kind's directory, in one allocation.
func (k kindDir) path(digest [sha256.Size]byte) string {
	var name [2 * sha256.Size]byte
	hex.Encode(name[:], digest[:])
	return k.dir + string(filepath.Separator) + string(name[:])
}

// Open returns a handle on the store rooted at dir with the given kinds
// registered.  Nothing is validated or created eagerly: a directory that
// does not exist yet reads as all-misses and is created by the first write,
// so Open cannot fail and a misconfigured path degrades to a cold cache, not
// a crash.
func Open(dir string, codecs ...Codec) *Store {
	s := &Store{
		dir:     dir,
		kinds:   make(map[string]kindDir, len(codecs)),
		perKind: make(map[string]*Counters),
	}
	for _, c := range codecs {
		s.kinds[c.Kind()] = kindDir{codec: c, dir: filepath.Join(dir, "objects", sanitizeKind(c.Kind()))}
	}
	return s
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Counters returns the aggregate traffic counters since Open.
func (s *Store) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total Counters
	for _, c := range s.perKind {
		total.add(*c)
	}
	return total
}

// KindCounters returns a snapshot of the per-kind traffic counters.
func (s *Store) KindCounters() map[string]Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]Counters, len(s.perKind))
	for kind, c := range s.perKind {
		out[kind] = *c
	}
	return out
}

// bump applies f to the kind's counters.
func (s *Store) bump(kind string, f func(*Counters)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.perKind[kind]
	if c == nil {
		c = &Counters{}
		s.perKind[kind] = c
	}
	f(c)
}

// keyDigest hashes the engine-wide identity of a job, matching engine.Key's
// "kind\x00cachekey" composition.
func keyDigest(kind, key string) [sha256.Size]byte {
	return sha256.Sum256([]byte(kind + "\x00" + key))
}

// sanitizeKind flattens a job kind into one path element.
func sanitizeKind(kind string) string { return strings.ReplaceAll(kind, "/", "-") }

// touchInterval is how stale an object's timestamp may grow before a hit
// refreshes it.  The timestamp is the access stamp GC's LRU eviction sorts
// on (mtime rather than atime, because atime is unreliable under the
// relatime and noatime mount options common on CI hosts), and like relatime
// a hit rewrites it only when it is older than the interval: an hour's
// precision is plenty to order eviction, and a warm run's hits then cost no
// write.
const touchInterval = time.Hour

// Load implements the read side of engine.Tier: it returns the persisted
// result of a (kind, key) job, or reports a miss.  A hit on an object whose
// timestamp is older than touchInterval refreshes it.
func (s *Store) Load(kind, key string) (any, bool) {
	k, ok := s.kinds[kind]
	if !ok {
		s.bump(kind, func(c *Counters) { c.Bypassed++ })
		return nil, false
	}
	digest := keyDigest(kind, key)
	path := k.path(digest)
	data, stamp, err := readObject(path)
	if err != nil {
		s.bump(kind, func(c *Counters) { c.Misses++ })
		return nil, false
	}
	payload, err := decodeEnvelope(data, digest)
	var v any
	if err == nil {
		v, err = k.codec.Decode(payload)
	}
	if err != nil {
		// An envelope of another version is an expected invalidation; the
		// envelope's is the only version, so anything else, a payload the
		// codec refuses included, is corruption.
		if errors.Is(err, errWrongVersion) {
			s.bump(kind, func(c *Counters) { c.Misses++ })
		} else {
			s.bump(kind, func(c *Counters) { c.Corrupt++ })
		}
		return nil, false
	}
	s.bump(kind, func(c *Counters) { c.Hits++ })
	if now := time.Now(); now.Sub(stamp) > touchInterval {
		_ = os.Chtimes(path, now, now) // best-effort LRU touch
	}
	return v, true
}

// Save implements the write side of engine.Tier: it persists a computed
// result, atomically (temp file + rename) and best-effort -- every failure
// is counted, none is surfaced, because the caller already holds the result
// and the disk copy is only an optimization.  Kinds without a codec are
// ignored (Load already counted the bypass for the job).
func (s *Store) Save(kind, key string, v any) {
	k, ok := s.kinds[kind]
	if !ok {
		return
	}
	payload, err := k.codec.Encode(v)
	if err != nil {
		s.bump(kind, func(c *Counters) { c.WriteErrors++ })
		return
	}
	digest := keyDigest(kind, key)
	h := header(digest, payload)
	if err := writeAtomic(k.path(digest), h[:], payload); err != nil {
		s.bump(kind, func(c *Counters) { c.WriteErrors++ })
		return
	}
	s.bump(kind, func(c *Counters) { c.Writes++ })
}

// tmpPattern names in-flight temp files; maintenance walks skip (and GC
// eventually reaps) anything matching it.
const tmpPattern = ".tmp-*"

// writeAtomic publishes an object, its header and then its payload, at path
// via an exclusively created temp file in the same directory and an atomic
// rename, so readers -- in this process or any other -- only ever observe
// complete objects, and concurrent writers of the same object cannot
// interleave.
func writeAtomic(path string, header, payload []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, tmpPattern) // O_EXCL: the temp name is ours alone
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(header)
	if err == nil {
		_, err = f.Write(payload)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp)
	}
	return err
}
