package arb

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"testing"
)

// fuzzAddrs are the addresses FuzzARBAgainstReference touches; an address's
// id is its index.  With 64-byte blocks they fall in seven blocks, two of
// them sharing block 0, so both one and two banks see shared and distinct
// blocks.
var fuzzAddrs = [8]uint64{0x000, 0x008, 0x040, 0x080, 0x0c8, 0x100, 0x1f8, 0x238}

// fuzzTasks bounds the fuzzed task ids.
const fuzzTasks = 8

// Fuzz operation kinds, the low three bits of an operation's first byte.
const (
	opLoad   = 0 // 0-2: load
	opStore  = 3 // 3-4: store
	opCommit = 5
	opSquash = 6
	opReset  = 7
)

// arbFuzzSeeds returns the committed seed corpus: one pseudo-random sequence
// of 150 operations for each of the eight geometries, weighted towards loads
// and stores so that banks fill up and violations occur.
func arbFuzzSeeds() [][]byte {
	var seeds [][]byte
	for g := byte(0); g < 8; g++ {
		rnd := resetRand(uint64(g) + 1)
		data := []byte{g}
		for range 150 {
			r := rnd.next()
			var kind byte
			switch r % 16 {
			case 0, 1, 2, 3, 4, 5, 6:
				kind = opLoad
			case 7, 8, 9, 10, 11:
				kind = opStore
			case 12, 13:
				kind = opCommit
			case 14:
				kind = opSquash
			default:
				kind = opReset
			}
			data = append(data, kind|byte(r>>8)&0x38, byte(r>>16))
		}
		seeds = append(seeds, data)
	}
	return seeds
}

// FuzzARBAgainstReference is the ARB's differential oracle: it decodes a
// geometry (1-2 banks of 1-4 entries, so the full-bank path is hit
// constantly) and a sequence of loads, stores, commits, squashes and resets,
// drives the dense-id ARB and the map-based reference with it, and after
// every step requires equal return values, the same tracked addresses with
// the same task records, and equal Stats.
//
// The first byte picks the geometry.  Each operation then takes two bytes:
// the first holds the kind (low three bits) and the address index (next
// three), the second the task id (low three bits) and the load PC.  A reset
// also resizes the ARB from the second byte, so its arrays grow and shrink.
func FuzzARBAgainstReference(f *testing.F) {
	for _, seed := range arbFuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := Config{Banks: 1 + int(data[0]&1), EntriesPerBank: 1 + int(data[0]>>1&3), BlockSize: 64}
		a, ref := New(cfg), newRefARB(cfg)
		a.Reset(len(fuzzAddrs), fuzzTasks)
		for i := 1; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			k := op >> 3 & 7
			addr, id := fuzzAddrs[k], int32(k)
			task, pc := uint64(arg&7), 0x1000+uint64(arg>>3)*4
			var step string
			switch kind := op & 7; {
			case kind < opStore:
				step = fmt.Sprintf("load %#x by task %d", addr, task)
				if got, want := a.Load(addr, id, task, pc), ref.Load(addr, task, pc); got != want {
					t.Fatalf("step %d, %s: ok = %v, reference %v", i/2, step, got, want)
				}
			case kind < opCommit:
				step = fmt.Sprintf("store %#x by task %d", addr, task)
				v, violated, ok := a.Store(addr, id, task)
				wv, wviolated, wok := ref.Store(addr, task)
				if v != wv || violated != wviolated || ok != wok {
					t.Fatalf("step %d, %s: (%+v, %v, %v), reference (%+v, %v, %v)",
						i/2, step, v, violated, ok, wv, wviolated, wok)
				}
			case kind == opCommit:
				step = fmt.Sprintf("commit task %d", task)
				a.CommitTask(task)
				ref.CommitTask(task)
			case kind == opSquash:
				step = fmt.Sprintf("squash task %d", task)
				a.SquashTask(task)
				ref.SquashTask(task)
			default:
				addrs, tasks := len(fuzzAddrs)+int(arg&7), fuzzTasks+int(arg>>3&7)
				step = fmt.Sprintf("reset to %d addresses, %d tasks", addrs, tasks)
				a.Reset(addrs, tasks)
				ref.Reset()
			}
			if got, want := tracked(a), ref.Entries(); got != want {
				t.Fatalf("step %d, %s: %d addresses tracked, reference %d", i/2, step, got, want)
			}
			if got, want := arbState(a), refState(ref); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d, %s: records\ngot       %+v\nreference %+v", i/2, step, got, want)
			}
			if got, want := a.Stats(), ref.Stats(); got != want {
				t.Fatalf("step %d, %s: Stats = %+v, reference %+v", i/2, step, got, want)
			}
		}
	})
}

// TestARBFuzzSeedCorpusCommitted pins that the committed corpus under
// testdata/fuzz/FuzzARBAgainstReference holds arbFuzzSeeds byte for byte (go
// test runs committed corpus entries even without -fuzz), and regenerates
// the files when MEMDEP_UPDATE_CORPUS=1 is set.
func TestARBFuzzSeedCorpusCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzARBAgainstReference")
	update := os.Getenv("MEMDEP_UPDATE_CORPUS") == "1"
	if update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for i, seed := range arbFuzzSeeds() {
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

// sortRecords orders an address's records by task.
func sortRecords(recs []taskRecord) []taskRecord {
	slices.SortFunc(recs, func(x, y taskRecord) int { return cmp.Compare(x.id, y.id) })
	return recs
}

// arbState snapshots every address the buffer tracks, address → its task
// records.  Address id i is fuzzAddrs[i].
func arbState(a *ARB) map[uint64][]taskRecord {
	out := map[uint64][]taskRecord{}
	for id, s := range a.slot {
		if s != 0 {
			out[fuzzAddrs[id]] = sortRecords(append([]taskRecord(nil), a.entries[s-1].tasks...))
		}
	}
	return out
}

// refState snapshots the reference buffer as arbState does the ARB.
func refState(a *refARB) map[uint64][]taskRecord {
	out := map[uint64][]taskRecord{}
	for _, bank := range a.banks {
		for addr, e := range bank {
			var recs []taskRecord
			for _, r := range e.tasks {
				recs = append(recs, taskRecord(r))
			}
			out[addr] = sortRecords(recs)
		}
	}
	return out
}
