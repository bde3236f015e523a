// Package fleet implements memdep-server's HTTP surface and the sharded
// simulation fleet behind it: the coordinator/worker topology that lets grid
// throughput scale with machines instead of cores.
//
// Every role serves the simulation routes through one handler set over a
// Backend: Local runs requests on an in-process sim.Session (the standalone
// and worker roles), and *Coordinator routes them to workers.  A fleet is one
// coordinator process and N worker processes, all running the same
// cmd/memdep-server binary under different -role flags.  Workers are
// standalone servers that additionally announce themselves to the
// coordinator; the coordinator owns no session at all -- it consistent-hashes
// each request's canonical normalized JSON (sim.Request.CanonicalJSON, the
// same identity the engine cache and the persistent store key on) and
// proxies the request to the owning worker.  Routing on the cache key is what
// makes the fleet share work, not just load: repeats of a request always
// land on the worker whose caches already hold the result.
//
// The moving parts:
//
//   - handler: decoding, validation, admission, buffered and streaming
//     NDJSON grids and error mapping, shared by every role.
//   - Local and Coordinator: the two Backends.
//   - ring: the consistent-hash ring (this file).
//   - Registry: the worker set, with periodic health checks, TTL expiry of
//     silent workers and drain-on-deregister.
//   - Limiter: bounded admission control; overload is a 429 with a
//     Retry-After estimate, not an unbounded queue.
//   - Agent: the worker-side registration loop (register, heartbeat,
//     deregister on shutdown).
package fleet

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// ring is a consistent-hash ring over worker names.  Each member is hashed
// at `replicas` points; a key belongs to the first point at or clockwise
// from the key's own hash.  Membership changes therefore move only the keys
// that hashed to the departed (or arrived) member's points -- about 1/N of
// the key space -- while everything else keeps its owner, preserving the
// workers' warm session caches.
//
// A ring is immutable once built; the Registry builds a fresh one on every
// membership or health change and swaps it in under its lock.
type ring struct {
	points []point // sorted by (hash, name)
}

// point is one virtual node: a member name hashed with a replica index.
type point struct {
	hash uint64
	name string
}

// replicas is the number of virtual nodes per member: smooth key
// distribution at negligible rebuild cost.
const replicas = 64

// buildRing constructs the ring for the given member names, at `replicas`
// points per member.  The ring is deterministic in the member set: the same
// names produce the same ring regardless of insertion order.
func buildRing(names []string) *ring {
	pts := make([]point, 0, replicas*len(names))
	for _, name := range names {
		for i := 0; i < replicas; i++ {
			pts = append(pts, point{hash: hashString(name + "#" + strconv.Itoa(i)), name: name})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].hash != pts[j].hash {
			return pts[i].hash < pts[j].hash
		}
		// Equal hashes are astronomically rare but must not leave the
		// ring order (and therefore routing) dependent on insertion order.
		return pts[i].name < pts[j].name
	})
	return &ring{points: pts}
}

// owners returns the distinct members in ring order starting at the key's
// successor: owners(key)[0] is the primary owner and the remainder is the
// failover order a rerouted request walks.  An empty ring returns nil.
func (r *ring) owners(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := hashString(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[string]bool)
	var out []string
	for n := 0; n < len(r.points); n++ {
		p := r.points[(start+n)%len(r.points)]
		if !seen[p.name] {
			seen[p.name] = true
			out = append(out, p.name)
		}
	}
	return out
}

// hashString hashes a routing key or a virtual node label: FNV-1a 64-bit
// (cheap, dependency-free and stable across platforms and Go versions,
// which keeps routing deterministic fleet-wide) followed by a murmur-style
// finalizer.  The finalizer matters: a member's replica labels share a long
// prefix and differ only in their last bytes, and raw FNV gives those
// inputs clustered, lattice-like hashes -- skewed enough that one of four
// members can end up owning under 5% of the key space.
func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the murmur3 64-bit finalizer: a bijective avalanche so nearby
// inputs land far apart on the ring.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
