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
// coordinator; the coordinator owns no session at all -- it rendezvous-hashes
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
//   - Registry: the worker set and the routing table in one, with periodic
//     health checks, TTL expiry of silent workers and drain-on-deregister.
//     Route gives a key to the healthy worker of highest rendezvous weight.
//   - Limiter: bounded admission control; overload is a 429 with a
//     Retry-After estimate, not an unbounded queue.
//   - Agent: the worker-side registration loop (register, heartbeat,
//     deregister on shutdown).
package fleet
