package arb

import (
	"reflect"
	"testing"
)

// xorshift64 with a fixed seed keeps the drive deterministic.
type resetRand uint64

func (r *resetRand) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = resetRand(x)
	return x
}

// TestResetEquivalence drives the ARB through loads, stores, commits and
// squashes, Resets it and drives it again: the second drive must observably
// match a fresh instance.  A bank entry, touched-address list or free-list
// record surviving Reset diverges the digests.
func TestResetEquivalence(t *testing.T) {
	drive := func(a *ARB) any {
		rnd := resetRand(7)
		var digest []any
		for i := 0; i < 400; i++ {
			addr := (rnd.next() % 64) * 8
			task := rnd.next() % 6
			switch i % 5 {
			case 0, 1:
				digest = append(digest, load(a, addr, task, 0x1000+addr))
			case 2:
				v, violated, ok := store(a, addr, task)
				digest = append(digest, v, violated, ok)
			case 3:
				a.CommitTask(task)
			case 4:
				a.SquashTask(task)
			}
		}
		return append(digest, tracked(a), a.Stats())
	}

	cfg := Config{Banks: 2, EntriesPerBank: 8}
	reused := newARB(cfg)
	drive(reused)
	reused.Reset(testAddrs, testTasks)
	got := drive(reused)
	want := drive(newARB(cfg))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("drive after Reset diverges from fresh instance:\nreset: %+v\nfresh: %+v", got, want)
	}
}
