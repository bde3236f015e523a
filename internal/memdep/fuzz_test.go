package memdep

import (
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
	dir := filepath.Join("testdata", "fuzz", "FuzzMDPTAgainstReference")
	update := os.Getenv("MEMDEP_UPDATE_CORPUS") == "1"
	if update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for i, seed := range mdptFuzzSeeds() {
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
