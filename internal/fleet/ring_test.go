package fleet

import (
	"fmt"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf(`{"bench":"compress","stages":%d}`, i)
	}
	return out
}

func TestRingDeterministicInMemberOrder(t *testing.T) {
	a := buildRing([]string{"w1", "w2", "w3", "w4"})
	b := buildRing([]string{"w4", "w2", "w1", "w3"})
	for _, k := range keys(500) {
		ao, bo := a.owners(k), b.owners(k)
		if len(ao) != len(bo) {
			t.Fatalf("owner count differs for %q: %v vs %v", k, ao, bo)
		}
		for i := range ao {
			if ao[i] != bo[i] {
				t.Fatalf("owner order differs for %q: %v vs %v", k, ao, bo)
			}
		}
	}
}

func TestRingOwnersCoverAllMembersOnce(t *testing.T) {
	members := []string{"w1", "w2", "w3"}
	r := buildRing(members)
	for _, k := range keys(100) {
		o := r.owners(k)
		if len(o) != len(members) {
			t.Fatalf("owners(%q) = %v, want %d distinct members", k, o, len(members))
		}
		seen := map[string]bool{}
		for _, name := range o {
			if seen[name] {
				t.Fatalf("owners(%q) repeats %q: %v", k, name, o)
			}
			seen[name] = true
		}
	}
}

func TestRingConsistencyUnderMembershipChange(t *testing.T) {
	all := []string{"w1", "w2", "w3", "w4", "w5", "w6", "w7", "w8", "w9", "w10"}
	before := buildRing(all)
	after := buildRing(all[:9]) // w10 leaves

	ks := keys(2000)
	moved := 0
	for _, k := range ks {
		oldOwner := before.owners(k)[0]
		newOwner := after.owners(k)[0]
		if oldOwner != "w10" && oldOwner != newOwner {
			t.Fatalf("key %q moved from surviving %q to %q", k, oldOwner, newOwner)
		}
		if oldOwner == "w10" {
			moved++
		}
	}
	// Expect roughly 1/10 of the key space to have belonged to the departed
	// member; allow generous slack around the expectation.
	if moved < len(ks)/30 || moved > len(ks)/3 {
		t.Fatalf("departed member owned %d/%d keys, want roughly 1/10", moved, len(ks))
	}
}

func TestRingDistribution(t *testing.T) {
	members := []string{"w1", "w2", "w3", "w4"}
	r := buildRing(members)
	counts := map[string]int{}
	ks := keys(4000)
	for _, k := range ks {
		counts[r.owners(k)[0]]++
	}
	for _, m := range members {
		frac := float64(counts[m]) / float64(len(ks))
		if frac < 0.10 || frac > 0.45 {
			t.Fatalf("member %q owns %.1f%% of keys, want a roughly even split: %v", m, 100*frac, counts)
		}
	}
}

func TestRingEmpty(t *testing.T) {
	if got := buildRing(nil).owners("anything"); got != nil {
		t.Fatalf("empty ring owners = %v, want nil", got)
	}
}
