package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"

	"memdep/sim"
)

// synthOps is the committed-instruction length of every synthetic workload
// the server workloads send: long enough that the timing core dominates a
// cold request, short enough that a run holds a few hundred of them.
const synthOps = 20000

// derive returns a seed for one purpose and index, fixed by the run seed.
func derive(seed uint64, purpose string, i int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, purpose, i)
	return h.Sum64() | 1 // the generator treats seed 0 as its default
}

// rotatingPolicies are the policies the distinct-request workloads rotate
// through: the paper's two mechanisms against blind speculation and the
// perfect-synchronization oracle.
var rotatingPolicies = []sim.Policy{sim.PolicyESync, sim.PolicyAlways, sim.PolicySync, sim.PolicyPerfectSync}

// coldRequests returns n distinct synthetic requests: every one misses every
// cache tier of a fresh server.
func coldRequests(seed uint64, n, ops int) []sim.Request {
	reqs := make([]sim.Request, n)
	for i := range reqs {
		reqs[i] = sim.Request{
			Synth:  &sim.SynthSpec{Seed: derive(seed, "cold", i), Ops: ops},
			Stages: []int{4, 8}[(i/len(rotatingPolicies))%2],
			Policy: rotatingPolicies[i%len(rotatingPolicies)],
		}
	}
	return reqs
}

// hotRequests returns n distinct requests, half paper benchmarks at scale 1
// truncated to 40,000 instructions (the -quick bounds) and half synthetic
// specs, spread over stage counts, every policy and every predictor
// organization.
func hotRequests(seed uint64, n, ops int) []sim.Request {
	rng := rand.New(rand.NewPCG(seed, derive(seed, "hot", 0)))
	var benches []string
	for _, b := range sim.Benchmarks() {
		benches = append(benches, b.Name)
	}
	rng.Shuffle(len(benches), func(i, j int) { benches[i], benches[j] = benches[j], benches[i] })
	pols, preds := sim.Policies(), sim.TableKinds()
	reqs := make([]sim.Request, n)
	for i := range reqs {
		j := i / 2 // index within the request's half
		r := sim.Request{
			Stages:    []int{4, 8}[(j/len(pols))%2],
			Policy:    pols[j%len(pols)],
			Predictor: preds[(j/(2*len(pols)))%len(preds)],
		}
		if i%2 == 0 {
			r.Bench = benches[j%len(benches)]
			r.Scale = 1
			r.MaxInstructions = 40000
		} else {
			r.Synth = &sim.SynthSpec{Seed: derive(seed, "hot", i), Ops: ops}
		}
		reqs[i] = r
	}
	return reqs
}

// gridRequests returns repetition rep's grid: each of the workloads
// synthetic specs under every policy at 4 and 8 stages, workload-major, so
// every workload is shared by 2·len(policies) cells.
func gridRequests(seed uint64, rep, workloads, ops int) []sim.Request {
	var reqs []sim.Request
	for w := 0; w < workloads; w++ {
		spec := &sim.SynthSpec{Seed: derive(seed, "grid", rep*workloads+w), Ops: ops}
		for _, pol := range sim.Policies() {
			for _, stages := range []int{4, 8} {
				reqs = append(reqs, sim.Request{Synth: spec, Stages: stages, Policy: pol})
			}
		}
	}
	return reqs
}

// checkInputs rejects generated requests that are invalid or repeated: a
// workload must not fail, and a repeated request would be a cache hit.
func checkInputs(reqs []sim.Request) error {
	seen := make(map[string]bool, len(reqs))
	for i, r := range reqs {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("generated request %d: %w", i, err)
		}
		k := r.CanonicalJSON()
		if seen[k] {
			return fmt.Errorf("generated request %d repeats an earlier one", i)
		}
		seen[k] = true
	}
	return nil
}

// bodies encodes each request as a POST /v1/simulate body.
func bodies(reqs []sim.Request) ([][]byte, error) {
	out := make([][]byte, len(reqs))
	for i, r := range reqs {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}
