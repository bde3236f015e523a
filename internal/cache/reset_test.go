package cache

import (
	"reflect"
	"testing"
)

// xorshift64 with a fixed seed keeps the drives deterministic.
type resetRand uint64

func (r *resetRand) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = resetRand(x)
	return x
}

// TestResetEquivalence drives each cache structure, Resets it and drives it
// again: the second drive must observably match a fresh instance.  Leaked
// tags, LRU clocks or bus occupancy diverge the digests.
func TestResetEquivalence(t *testing.T) {
	cases := []struct {
		name  string
		fresh func() interface{ Reset() }
		drive func(r interface{ Reset() }) any
	}{
		{
			name:  "SetAssoc",
			fresh: func() interface{ Reset() } { return MustNewSetAssoc(4*1024, 2, 64) },
			drive: func(r interface{ Reset() }) any {
				c := r.(*SetAssoc)
				rnd := resetRand(1)
				var digest []any
				for i := 0; i < 500; i++ {
					addr := (rnd.next() % 256) * 64
					if i%5 == 4 {
						digest = append(digest, present(c, addr))
					} else {
						digest = append(digest, c.Access(addr))
					}
				}
				return append(digest, c.hits, c.misses)
			},
		},
		{
			name:  "Bus",
			fresh: func() interface{ Reset() } { return NewBus(4) },
			drive: func(r interface{ Reset() }) any {
				b := r.(*Bus)
				rnd := resetRand(2)
				var digest []any
				now := int64(0)
				for i := 0; i < 100; i++ {
					now += int64(rnd.next() % 6)
					digest = append(digest, b.Acquire(now))
				}
				return append(digest, b.Transfers(), b.TotalWait())
			},
		},
		{
			name:  "Hierarchy",
			fresh: func() interface{ Reset() } { return NewHierarchy(4) },
			drive: func(r interface{ Reset() }) any {
				h := r.(*Hierarchy)
				rnd := resetRand(3)
				var digest []any
				now := int64(0)
				for i := 0; i < 400; i++ {
					now += int64(rnd.next() % 4)
					if i%2 == 0 {
						digest = append(digest, h.InstrFetch(int(rnd.next()%uint64(len(h.icache))), (rnd.next()%512)*64, now))
					} else {
						digest = append(digest, h.DataAccess((rnd.next()%512)*64, now))
					}
				}
				return append(digest, h.Stats())
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reused := tc.fresh()
			tc.drive(reused)
			reused.Reset()
			got := tc.drive(reused)
			want := tc.drive(tc.fresh())
			if !reflect.DeepEqual(got, want) {
				t.Errorf("drive after Reset diverges from fresh instance:\nreset: %+v\nfresh: %+v", got, want)
			}
		})
	}
}
