// Package store is the disk-backed, content-addressed second tier beneath
// the engine's in-memory result cache.  Objects are keyed on the canonical
// cache keys the engine job kinds already produce (normalized-spec JSON and
// configuration strings), hashed with SHA-256 and laid out as
//
//	<dir>/objects/<kind>/<hh>/<hash>
//
// where <kind> is the job kind with path separators flattened, <hash> is the
// hex digest of the engine key and <hh> its first two characters (the shard).
// Each file is a versioned envelope (schema version, key digest, payload
// checksum -- see envelope.go) written atomically via an O_EXCL temp file and
// rename, so concurrent writers in any number of processes race benignly:
// both write the same content and the last rename wins.
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
	dir    string
	codecs map[string]Codec

	mu sync.Mutex
	//memdep:guardedby mu
	perKind map[string]*Counters
}

// Open returns a handle on the store rooted at dir with the given kinds
// registered.  Nothing is validated or created eagerly: a directory that
// does not exist yet reads as all-misses and is created by the first write,
// so Open cannot fail and a misconfigured path degrades to a cold cache, not
// a crash.
func Open(dir string, codecs ...Codec) *Store {
	s := &Store{
		dir:     dir,
		codecs:  make(map[string]Codec, len(codecs)),
		perKind: make(map[string]*Counters),
	}
	for _, c := range codecs {
		s.codecs[c.Kind()] = c
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

// objectPath returns the sharded object path for a key digest.
func (s *Store) objectPath(kind string, digest [sha256.Size]byte) string {
	h := hex.EncodeToString(digest[:])
	return filepath.Join(s.dir, "objects", sanitizeKind(kind), h[:2], h)
}

// Load implements the read side of engine.Tier: it returns the persisted
// result of a (kind, key) job, or reports a miss.  A hit refreshes the
// object's timestamp, which is the access stamp GC's LRU eviction sorts on
// (mtime rather than atime, because atime is unreliable under the relatime
// and noatime mount options common on CI hosts).
func (s *Store) Load(kind, key string) (any, bool) {
	codec := s.codecs[kind]
	if codec == nil {
		s.bump(kind, func(c *Counters) { c.Bypassed++ })
		return nil, false
	}
	digest := keyDigest(kind, key)
	path := s.objectPath(kind, digest)
	data, err := os.ReadFile(path)
	if err != nil {
		s.bump(kind, func(c *Counters) { c.Misses++ })
		return nil, false
	}
	payload, err := decodeEnvelope(data, digest)
	var v any
	if err == nil {
		v, err = codec.Decode(payload)
	}
	if err != nil {
		// A version mismatch, of the envelope or of the codec's own format,
		// is an expected invalidation; anything else is corruption.
		if errors.Is(err, errWrongVersion) {
			s.bump(kind, func(c *Counters) { c.Misses++ })
		} else {
			s.bump(kind, func(c *Counters) { c.Corrupt++ })
		}
		return nil, false
	}
	s.bump(kind, func(c *Counters) { c.Hits++ })
	now := time.Now()
	_ = os.Chtimes(path, now, now) // best-effort LRU touch
	return v, true
}

// encBuffer is the reusable envelope-assembly buffer Save draws from a pool:
// work-item payloads run to a megabyte, and pooling the backing array keeps
// repeated saves from re-growing it every time.
//
//memdep:resettable
type encBuffer struct {
	b []byte
}

// Reset empties the buffer, keeping its capacity.
func (e *encBuffer) Reset() { e.b = e.b[:0] }

var encPool = sync.Pool{New: func() any { return new(encBuffer) }}

// Save implements the write side of engine.Tier: it persists a computed
// result, atomically (temp file + rename) and best-effort -- every failure
// is counted, none is surfaced, because the caller already holds the result
// and the disk copy is only an optimization.  Kinds without a codec are
// ignored (Load already counted the bypass for the job).
func (s *Store) Save(kind, key string, v any) {
	codec := s.codecs[kind]
	if codec == nil {
		return
	}
	payload, err := codec.Encode(v)
	if err != nil {
		s.bump(kind, func(c *Counters) { c.WriteErrors++ })
		return
	}
	digest := keyDigest(kind, key)
	buf := encPool.Get().(*encBuffer)
	defer encPool.Put(buf)
	buf.Reset()
	buf.b = appendEnvelope(buf.b, digest, payload)
	if err := writeAtomic(s.objectPath(kind, digest), buf.b); err != nil {
		s.bump(kind, func(c *Counters) { c.WriteErrors++ })
		return
	}
	s.bump(kind, func(c *Counters) { c.Writes++ })
}

// tmpPattern names in-flight temp files; maintenance walks skip (and GC
// eventually reaps) anything matching it.
const tmpPattern = ".tmp-*"

// writeAtomic publishes data at path via an exclusively created temp file in
// the same directory and an atomic rename, so readers -- in this process or
// any other -- only ever observe complete objects, and concurrent writers of
// the same object cannot interleave.
func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, tmpPattern) // O_EXCL: the temp name is ours alone
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(data)
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
