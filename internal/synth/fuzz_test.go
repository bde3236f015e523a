package synth

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"testing"

	"memdep/internal/program"
)

// digestProgram renders a program into a canonical byte form -- every field,
// map keys sorted -- so two structurally identical programs digest
// byte-identically and any divergence (an extra instruction, a shifted data
// word, a moved task boundary) shows up as a byte difference.
func digestProgram(p *program.Program) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "name=%q entry=%d base=%d size=%d stack=%d\n",
		p.Name, p.Entry, p.DataBase, p.DataSize, p.StackBase)
	for i, ins := range p.Code {
		fmt.Fprintf(&b, "%d: %+v\n", i, ins)
	}
	for _, addr := range slices.Sorted(maps.Keys(p.DataInit)) {
		fmt.Fprintf(&b, "data %d = %d\n", addr, p.DataInit[addr])
	}
	for _, idx := range slices.Sorted(maps.Keys(p.TaskEntries)) {
		fmt.Fprintf(&b, "task %d\n", idx)
	}
	for _, name := range slices.Sorted(maps.Keys(p.Labels)) {
		fmt.Fprintf(&b, "label %s = %d\n", name, p.Labels[name])
	}
	for _, name := range slices.Sorted(maps.Keys(p.Symbols)) {
		fmt.Fprintf(&b, "sym %s = %d\n", name, p.Symbols[name])
	}
	return b.Bytes()
}

// FuzzSynthBuild checks the generator's determinism contract on random
// specs: a valid spec builds a byte-identical program on every call, the
// normalized spec builds the same program as the raw one, and the cache key
// is stable across normalization.  Any platform- or iteration-order
// dependence in generation breaks workload memoization and run-to-run
// reproducibility, so it must show up here first.
func FuzzSynthBuild(f *testing.F) {
	f.Add(uint64(1), 4096, 64, 12, 4, 0.25, 0.15, 0.5, 1, 0.25, 1)
	f.Add(uint64(99), 0, 0, 0, 0, 0.0, 0.0, 0.0, 0, 0.0, 2)
	f.Add(uint64(7), 8192, 128, 20, 19, 0.4, 0.3, 1.0, 5, 1.0, 3)
	f.Add(uint64(1234567), 1000, 16, 3, 1, 0.9, 0.05, 0.1, 64, 0.5, 1)
	f.Fuzz(func(t *testing.T, seed uint64, ops, body, taskSize, taskSpread int,
		loadFrac, storeFrac, depFrac float64, alias int, loopCarried float64, scale int) {
		spec := Spec{
			Seed:         seed,
			Ops:          ops,
			Body:         body,
			TaskSize:     taskSize,
			TaskSpread:   taskSpread,
			LoadFrac:     loadFrac,
			StoreFrac:    storeFrac,
			DepFrac:      depFrac,
			AliasSetSize: alias,
			LoopCarried:  loopCarried,
		}
		if spec.Validate() != nil {
			t.Skip("invalid spec; the facade rejects it before Build")
		}
		norm := spec.Normalize()
		// Keep the fuzz budget on spec variety, not giant programs.
		if norm.Ops > 65536 || norm.Body > 2048 || norm.AliasSetSize > 1024 {
			t.Skip("oversized workload")
		}
		if scale < 1 || scale > 3 {
			scale = 1
		}

		if specKey, normKey := spec.CanonicalJSON(), norm.CanonicalJSON(); specKey != normKey {
			t.Errorf("cache key changed across Normalize:\nraw:  %s\nnorm: %s", specKey, normKey)
		}
		first := digestProgram(spec.Build(scale))
		if again := digestProgram(spec.Build(scale)); !bytes.Equal(first, again) {
			t.Errorf("Build is not deterministic: two builds of %+v at scale %d differ", spec, scale)
		}
		if normed := digestProgram(norm.Build(scale)); !bytes.Equal(first, normed) {
			t.Errorf("normalized spec builds a different program than the raw spec: %+v", spec)
		}
	})
}
