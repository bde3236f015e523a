package memdep

import (
	"cmp"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
)

// Fuzz operation kinds, the low three bits of an operation's first byte.
const (
	opRecord     = 0 // 0-1: record a mis-speculation
	opMatchLoad  = 2
	opMatchStore = 3
	opLookup     = 4
	opStrengthen = 5
	opWeaken     = 6
	opReset      = 7
)

// fuzzGeometry encodes a table organization as FuzzMDPTAgainstReference's
// first two bytes.  ways 0 takes the default of 4.
func fuzzGeometry(table TableKind, entries, ways, counterBits int, always bool) []byte {
	b := byte(0)
	if table == TableSetAssoc {
		b |= 1
	}
	if counterBits == 2 {
		b |= 2
	}
	if always {
		b |= 4
	}
	return []byte{b, byte(entries-1) | byte(ways)<<4}
}

// fuzzOp encodes one operation: load and store are PC indexes (0-7 and
// 0-3), taskPC a task PC index (0-15).
func fuzzOp(kind, load, store, dist, taskPC byte) []byte {
	return []byte{kind | load<<3, store | dist<<2 | taskPC<<4}
}

// mdptFuzzSeeds returns the committed seed corpus.  The first seed is
// written by hand: on a two-set, two-way table, two pairs that share a
// store PC land in one set in the reverse of their slot order, so a store
// index kept in allocation order touches them in the wrong order and then
// evicts the wrong one.  The others are pseudo-random sequences of 200
// operations, one per geometry, weighted towards mis-speculations so that
// sets fill and evict.
func mdptFuzzSeeds() [][]byte {
	const load0, load2, load4, load6 = 0, 2, 4, 6 // all in set 0 of 2
	const store0, store1, store2 = 0, 1, 2
	hand := slices.Concat(
		fuzzGeometry(TableSetAssoc, 4, 2, 3, false),
		fuzzOp(opRecord, load0, store1, 1, 1),     // slot 0
		fuzzOp(opRecord, load2, store0, 1, 2),     // slot 1
		fuzzOp(opMatchLoad, load2, 0, 0, 0),       // slot 0 is now the set's LRU
		fuzzOp(opRecord, load4, store0, 2, 3),     // evicts slot 0: store0 in slots 1, 0
		fuzzOp(opMatchStore, 0, store0, 0, 0),     // touches slot 0, then slot 1
		fuzzOp(opRecord, load6, store2, 1, 4),     // evicts slot 0, the older touch
		fuzzOp(opMatchStore, 0, store0, 0, 0),     // only load2's pair is left
		fuzzOp(opLookup, load4, store0, 0, 0),     // gone
		fuzzOp(opMatchLoad, load6, 0, 0, 0),       // present
		fuzzOp(opReset, 0, 0, 0, 0),               // empty again
		fuzzOp(opMatchStore, 0, store0, 0, 0),     // no match
		fuzzOp(opStrengthen, load2, store0, 0, 0), // unknown pair: ignored
	)
	seeds := [][]byte{hand}
	geometries := [][]byte{
		fuzzGeometry(TableFullAssoc, 4, 0, 3, false),
		fuzzGeometry(TableFullAssoc, 16, 0, 2, false),
		fuzzGeometry(TableFullAssoc, 1, 0, 3, true),
		fuzzGeometry(TableSetAssoc, 16, 4, 3, false),
		fuzzGeometry(TableSetAssoc, 8, 2, 2, false),
		fuzzGeometry(TableSetAssoc, 4, 4, 3, true),
		fuzzGeometry(TableSetAssoc, 10, 4, 3, false),
		fuzzGeometry(TableSetAssoc, 6, 0, 2, true),
		fuzzGeometry(TableSetAssoc, 16, 1, 3, false),
	}
	for g, geometry := range geometries {
		rnd := resetRand(uint64(g) + 1)
		data := slices.Clone(geometry)
		for range 200 {
			r := rnd.next()
			var kind byte
			switch r % 16 {
			case 0, 1, 2, 3, 4:
				kind = opRecord
			case 5, 6, 7:
				kind = opMatchLoad
			case 8, 9, 10:
				kind = opMatchStore
			case 11:
				kind = opLookup
			case 12, 13:
				kind = opStrengthen
			case 14:
				kind = opWeaken
			default:
				kind = opReset
				if r>>40%4 != 0 {
					kind = opRecord // keep resets rare
				}
			}
			data = append(data, fuzzOp(kind, byte(r>>8)&7, byte(r>>16)&3, byte(r>>24)&3, byte(r>>32)&15)...)
		}
		seeds = append(seeds, data)
	}
	return seeds
}

// FuzzMDPTAgainstReference is the pair table's differential oracle: it
// decodes a geometry and a sequence of operations, drives NewPredictor's
// table and the scan-only reference with them, and requires equal return
// values and, after every step, equal tables: the same valid pairs with the
// same distance, counter and store task PC.  A wrong eviction or counter
// update therefore fails at the step that makes it.
//
// The first byte picks the organization (bit 0: full or setassoc), the
// counter width (bit 1: 3 or 2 bits) and the predictor (bit 2: SYNC or
// ALWAYS-SYNC); the second the entries (low nibble plus one, so 1-16) and
// the ways (high nibble, 0 for the default).  Each operation then takes two
// bytes: the kind (low three bits) and the load PC (next three bits), then
// the store PC (low two bits), the distance (next two) and the store's task
// PC (high nibble).  Eight load PCs and four store PCs keep pairs sharing
// PCs and sets.
func FuzzMDPTAgainstReference(f *testing.F) {
	for _, seed := range mdptFuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cfg := Config{Entries: 1 + int(data[1]&15), Ways: int(data[1] >> 4), CounterBits: 3}
		if data[0]&1 != 0 {
			cfg.Table = TableSetAssoc
		}
		if data[0]&2 != 0 {
			cfg.CounterBits = 2
		}
		if data[0]&4 != 0 {
			cfg.Predictor = PredictAlways
		}
		p, ref := NewPredictor(cfg), newRefMDPT(cfg)
		if m, ok := p.(*MDPT); !ok || m.sets != ref.sets || m.ways != ref.ways {
			t.Fatalf("%+v: NewPredictor built %T, want an MDPT of %d sets × %d ways", cfg, p, ref.sets, ref.ways)
		}
		sentinel := []Prediction{{Dist: 99}} // matches must append after it
		for i := 2; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			pair := PairKey{LoadPC: 0x1000 + uint64(op>>3&7)*4, StorePC: 0x2000 + uint64(arg&3)*4}
			dist, taskPC := uint64(arg>>2&3), 0x3000+uint64(arg>>4)*4
			var step string
			switch kind := op & 7; {
			case kind < opMatchLoad:
				step = fmt.Sprintf("record %v at distance %d", pair, dist)
				p.RecordMisspeculation(pair, dist, taskPC)
				ref.RecordMisspeculation(pair, dist, taskPC)
			case kind == opMatchLoad:
				step = fmt.Sprintf("match load %#x", pair.LoadPC)
				got := p.MatchesForLoad(pair.LoadPC, slices.Clone(sentinel))
				if want := ref.MatchesForLoad(pair.LoadPC, slices.Clone(sentinel)); !slices.Equal(got, want) {
					t.Fatalf("step %d, %s:\ngot       %+v\nreference %+v", i/2, step, got, want)
				}
			case kind == opMatchStore:
				step = fmt.Sprintf("match store %#x", pair.StorePC)
				got := p.MatchesForStore(pair.StorePC, slices.Clone(sentinel))
				if want := ref.MatchesForStore(pair.StorePC, slices.Clone(sentinel)); !slices.Equal(got, want) {
					t.Fatalf("step %d, %s:\ngot       %+v\nreference %+v", i/2, step, got, want)
				}
			case kind == opLookup:
				step = fmt.Sprintf("look up %v", pair)
				got, ok := lookup(p, pair)
				if want, wok := lookup(ref, pair); got != want || ok != wok {
					t.Fatalf("step %d, %s: (%+v, %v), reference (%+v, %v)", i/2, step, got, ok, want, wok)
				}
			case kind == opStrengthen:
				step = fmt.Sprintf("strengthen %v", pair)
				p.Strengthen(pair)
				ref.Strengthen(pair)
			case kind == opWeaken:
				step = fmt.Sprintf("weaken %v", pair)
				p.Weaken(pair)
				ref.Weaken(pair)
			default:
				step = "reset"
				p.Reset()
				ref.Reset()
			}
			if got, want := tableState(p), tableState(ref); !maps.Equal(got, want) {
				t.Fatalf("step %d, %s: entries\ngot       %+v\nreference %+v", i/2, step, got, want)
			}
		}
	})
}

// TestMDPTFuzzSeedCorpusCommitted pins that the committed corpus under
// testdata/fuzz/FuzzMDPTAgainstReference holds mdptFuzzSeeds byte for byte
// (go test runs committed corpus entries even without -fuzz), and
// regenerates the files when MEMDEP_UPDATE_CORPUS=1 is set.
func TestMDPTFuzzSeedCorpusCommitted(t *testing.T) {
	checkCorpus(t, "FuzzMDPTAgainstReference", mdptFuzzSeeds())
}

// TestMDSTFuzzSeedCorpusCommitted is the same pin for mdstFuzzSeeds.
func TestMDSTFuzzSeedCorpusCommitted(t *testing.T) {
	checkCorpus(t, "FuzzMDSTAgainstReference", mdstFuzzSeeds())
}

// checkCorpus requires testdata/fuzz/<target> to hold the seeds, one file
// each, writing them first when MEMDEP_UPDATE_CORPUS=1 is set.
func checkCorpus(t *testing.T, target string, seeds [][]byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	update := os.Getenv("MEMDEP_UPDATE_CORPUS") == "1"
	if update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for i, seed := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(seed)))
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if update {
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		got, err := os.ReadFile(name)
		if err != nil || string(got) != body {
			t.Fatalf("seed corpus entry %s is missing or stale (regenerate with MEMDEP_UPDATE_CORPUS=1): %v", name, err)
		}
	}
}

// MDST fuzz operation kinds, the low three bits of an operation's first
// byte.
const (
	syncWait         = 0 // 0-1: a load allocates a waiting entry
	syncSignal       = 2 // 2-3: a store signals
	syncReleaseLoad  = 4
	syncReleaseStore = 5
	syncHasWaiter    = 6
	syncReset        = 7 // bit 7 set: resize too
)

// syncOp encodes one MDST operation: load and store are PC indexes (0-3),
// instance 0-3 and id 0-63 (taken modulo the sized ids).
func syncOp(kind, load, store, instance, id byte) []byte {
	return []byte{kind | load<<3 | store<<5, instance | id<<2}
}

// syncResetOp encodes a reset to ids identifiers and, when capacity is not
// zero, a resize to capacity entries.
func syncResetOp(ids, capacity int) []byte {
	b := byte(syncReset)
	if capacity > 0 {
		b |= 1 << 7
	}
	return []byte{b, byte(ids-1) | byte(max(capacity-1, 0))<<4}
}

// mdstFuzzSeeds returns the committed seed corpus.  The first seeds are
// written by hand: the victim must be the least recently used full entry,
// and a duplicate signal that re-tags an entry's store moves it to the new
// store's chain.  The others are pseudo-random sequences of 240 operations
// over several sizes, weighted towards allocations so the table fills and
// evicts.
func mdstFuzzSeeds() [][]byte {
	victim := slices.Concat(
		[]byte{3 | 15<<4},              // 4 entries, 16 ids
		syncOp(syncSignal, 0, 0, 0, 1), // full A
		syncOp(syncSignal, 1, 1, 0, 2), // full B
		syncOp(syncWait, 2, 2, 0, 3),   // waiting C
		syncOp(syncSignal, 3, 3, 0, 4), // full D
		syncOp(syncSignal, 0, 0, 0, 5), // duplicate: A is the MRU full entry, stid 5
		syncOp(syncWait, 3, 0, 1, 6),   // evicts B, the LRU full entry
		syncOp(syncWait, 3, 1, 1, 7),   // evicts D
		syncOp(syncWait, 3, 2, 1, 8),   // evicts A, the last full entry
		syncOp(syncWait, 3, 3, 1, 9),   // evicts C, the LRU waiting entry
		syncOp(syncHasWaiter, 0, 0, 0, 3),
	)
	retag := slices.Concat(
		[]byte{7 | 15<<4},              // 8 entries, 16 ids
		syncOp(syncSignal, 0, 0, 0, 1), // full, stid 1
		syncOp(syncSignal, 1, 0, 0, 1), // full, stid 1
		syncOp(syncSignal, 0, 0, 0, 2), // duplicate: moves to stid 2
		syncOp(syncReleaseStore, 0, 0, 0, 1),
		syncOp(syncReleaseStore, 0, 0, 0, 2),
		syncOp(syncWait, 0, 0, 0, 3),
		syncOp(syncWait, 0, 1, 0, 3),
		syncOp(syncWait, 0, 0, 0, 4), // re-tags the waiting entry to ldid 4
		syncOp(syncHasWaiter, 0, 0, 0, 3),
		syncOp(syncReleaseLoad, 0, 0, 0, 4),
		syncOp(syncReleaseLoad, 0, 0, 0, 3),
		syncResetOp(4, 2),
		syncOp(syncWait, 1, 1, 1, 3),
		syncResetOp(16, 8),
		syncOp(syncHasWaiter, 0, 0, 0, 3),
	)
	seeds := [][]byte{victim, retag}
	for g, geometry := range []byte{0 | 3<<4, 3 | 7<<4, 7 | 15<<4, 15 | 15<<4, 1 | 1<<4} {
		rnd := resetRand(uint64(g) + 11)
		data := []byte{geometry}
		for range 240 {
			r := rnd.next()
			var kind byte
			switch r % 16 {
			case 0, 1, 2, 3, 4:
				kind = syncWait
			case 5, 6, 7, 8, 9:
				kind = syncSignal
			case 10, 11:
				kind = syncReleaseLoad
			case 12, 13:
				kind = syncReleaseStore
			case 14:
				kind = syncHasWaiter
			default:
				kind = syncReset
				if r>>40%4 != 0 {
					kind = syncSignal // keep resets rare
				}
			}
			op := syncOp(kind, byte(r>>8)&3, byte(r>>16)&3, byte(r>>24)&3, byte(r>>32)&63)
			if kind == syncReset && r>>48%2 == 0 {
				op[0] |= 1 << 7 // resize too
			}
			data = append(data, op...)
		}
		seeds = append(seeds, data)
	}
	return seeds
}

// FuzzMDSTAgainstReference is the synchronization table's differential
// oracle: it decodes a size and a sequence of operations, drives MDST and
// the scan-only reference with them, and requires equal return values and,
// after every step, equal tables: the same valid entries (pair, instance,
// LDID, STID, full) in the same replacement order.  Freed pairs are compared
// as multisets, because MDST does not keep slot order (see ReleaseLoad).
// After every step the MDST's indexes must also agree with its entries
// (checkMDSTIndexes).
//
// The first byte gives the entries (low nibble plus one, so 1-16) and the
// identifier range (high nibble plus one).  Each operation then takes two
// bytes: the kind (low three bits), the load PC and the store PC (two bits
// each) and, for a reset, a resize flag (bit 7); then the instance (low two
// bits) and the identifier (the rest, modulo the identifier range).  A
// reset takes its new identifier range from the second byte's low nibble
// and, with the flag, its new size from the high nibble.
func FuzzMDSTAgainstReference(f *testing.F) {
	for _, seed := range mdstFuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		capacity, ids := 1+int(data[0]&15), 1+int(data[0]>>4)
		m, ref := NewMDST(capacity, ids), newRefMDST(capacity)
		for i := 1; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			pair := PairKey{LoadPC: 0x1000 + uint64(op>>3&3)*4, StorePC: 0x2000 + uint64(op>>5&3)*4}
			instance, id := uint64(arg&3), int64(arg>>2)%int64(ids)
			var step string
			switch kind := op & 7; {
			case kind < syncSignal:
				step = fmt.Sprintf("load %d waits on %v instance %d", id, pair, instance)
				if got, want := m.AllocWaiting(pair, instance, id), ref.AllocWaiting(pair, instance, id); got != want {
					t.Fatalf("step %d, %s: must wait %v, reference %v", i/2, step, got, want)
				}
			case kind < syncReleaseLoad:
				step = fmt.Sprintf("store %d signals %v instance %d", id, pair, instance)
				ld, rel := m.Signal(pair, instance, id)
				if wld, wrel := ref.Signal(pair, instance, id); ld != wld || rel != wrel {
					t.Fatalf("step %d, %s: (%d, %v), reference (%d, %v)", i/2, step, ld, rel, wld, wrel)
				}
			case kind == syncReleaseLoad:
				step = fmt.Sprintf("release load %d", id)
				if got, want := sortedPairs(m.ReleaseLoad(id)), sortedPairs(ref.ReleaseLoad(id)); !slices.Equal(got, want) {
					t.Fatalf("step %d, %s: freed %v, reference %v", i/2, step, got, want)
				}
			case kind == syncReleaseStore:
				step = fmt.Sprintf("release store %d", id)
				if got, want := sortedPairs(m.ReleaseStore(id)), sortedPairs(ref.ReleaseStore(id)); !slices.Equal(got, want) {
					t.Fatalf("step %d, %s: freed %v, reference %v", i/2, step, got, want)
				}
			case kind == syncHasWaiter:
				step = fmt.Sprintf("has waiter %d", id)
				if got, want := m.HasWaiter(id), ref.HasWaiter(id); got != want {
					t.Fatalf("step %d, %s: %v, reference %v", i/2, step, got, want)
				}
			default:
				ids = 1 + int(arg&15)
				step = fmt.Sprintf("reset to %d ids", ids)
				if op>>7 != 0 {
					capacity = 1 + int(arg>>4)
					step += fmt.Sprintf(", %d entries", capacity)
					m.resize(capacity)
					ref = newRefMDST(capacity)
				}
				m.Reset(ids)
				ref.Reset()
			}
			if got, want := syncEntries(m), syncEntries(ref); !slices.Equal(got, want) {
				t.Fatalf("step %d, %s: entries\ngot       %+v\nreference %+v", i/2, step, got, want)
			}
			if err := checkMDSTIndexes(m); err != nil {
				t.Fatalf("step %d, %s: %v", i/2, step, err)
			}
		}
	})
}

// sortedPairs returns a sorted copy of pairs, the canonical form of a
// multiset of freed pairs.
func sortedPairs(pairs []PairKey) []PairKey {
	out := slices.Clone(pairs)
	slices.SortFunc(out, func(a, b PairKey) int {
		return cmp.Or(cmp.Compare(a.LoadPC, b.LoadPC), cmp.Compare(a.StorePC, b.StorePC))
	})
	return out
}

// checkMDSTIndexes rebuilds the MDST's indexes from its entries, the source
// of truth, and reports the first disagreement: every valid entry is in the
// hash bucket of its instance, in the LRU list of its kind and in the chain
// of its identifier (its LDID while waiting, its STID while full), each
// exactly once and linked both ways; no invalid entry is in any of them; the
// free stack holds exactly the invalid slots; and every head past the sized
// identifiers is empty.
func checkMDSTIndexes(m *MDST) error {
	const inBucket, inList, inChain, isFree = 1, 1 << 4, 1 << 8, 1 << 12
	seen := make([]int, len(m.entries))
	steps := 0
	walk := func(what string, from int32, next func(i int32) int32, ok func(i, prev int32, e *mdstEntry) bool, mark int) (int32, error) {
		prev := noSlot
		for i := from; i != noSlot; i = next(i) {
			if steps++; steps > 4*len(m.entries)+len(m.buckets)+2*len(m.ldHead)+4 {
				return noSlot, fmt.Errorf("%s: cycle through slot %d", what, i)
			}
			if e := &m.entries[i]; !e.valid || !ok(i, prev, e) {
				return noSlot, fmt.Errorf("%s: slot %d (%+v) does not belong after slot %d", what, i, *e, prev)
			}
			seen[i] += mark
			prev = i
		}
		return prev, nil
	}
	for b := range m.buckets {
		_, err := walk(fmt.Sprintf("bucket %d", b), m.buckets[b], func(i int32) int32 { return m.entries[i].hashNext },
			func(_, _ int32, e *mdstEntry) bool {
				return m.bucket(PairKey{LoadPC: e.loadPC, StorePC: e.storePC}, e.instance) == &m.buckets[b]
			}, inBucket)
		if err != nil {
			return err
		}
	}
	for kind, l := range m.lru {
		tail, err := walk(fmt.Sprintf("LRU list %d", kind), l.head, func(i int32) int32 { return m.lruLinks[i].next },
			func(i, prev int32, e *mdstEntry) bool { return e.full == (kind == 1) && m.lruLinks[i].prev == prev }, inList)
		if err != nil {
			return err
		}
		if tail != l.tail {
			return fmt.Errorf("LRU list %d ends at slot %d, its tail says %d", kind, tail, l.tail)
		}
	}
	for _, c := range []struct {
		heads []int32
		full  bool
	}{{m.ldHead, false}, {m.stHead, true}} {
		for id := range c.heads {
			_, err := walk(fmt.Sprintf("chain of id %d (full %v)", id, c.full), c.heads[id], func(i int32) int32 { return m.entries[i].idNext },
				func(_, prev int32, e *mdstEntry) bool {
					own := e.ldid
					if e.full {
						own = e.stid
					}
					return e.full == c.full && own == int64(id) && e.idPrev == prev
				}, inChain)
			if err != nil {
				return err
			}
		}
		for id, h := range c.heads[len(c.heads):cap(c.heads)] {
			if h != noSlot {
				return fmt.Errorf("head of id %d, past the %d sized, is slot %d", len(c.heads)+id, len(c.heads), h)
			}
		}
	}
	for _, i := range m.free {
		if m.entries[i].valid {
			return fmt.Errorf("free stack holds valid slot %d", i)
		}
		seen[i] += isFree
	}
	for i := range m.entries {
		want := isFree
		if m.entries[i].valid {
			want = inBucket + inList + inChain
		}
		if seen[i] != want {
			return fmt.Errorf("slot %d (%+v) is indexed %#x times over (bucket, list, chain, free), want %#x", i, m.entries[i], seen[i], want)
		}
	}
	return nil
}
