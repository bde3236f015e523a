package multiscalar

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"memdep/internal/engine"
	"memdep/internal/memdep"
	"memdep/internal/policy"
	"memdep/internal/synth"
	"memdep/internal/trace"
	"memdep/internal/workload"
)

// compressItem is the work-item spec of the paper's compress benchmark at its
// default scale, as the sim facade declares it.
func compressItem() engine.Spec {
	return PreprocessJob{Program: workload.BuildJob{Name: "compress", Scale: workload.MustGet("compress").DefaultScale}}
}

func simKey(cfg Config) string {
	return engine.Key(SimulateJob{Item: compressItem(), Config: cfg})
}

// TestCacheKeyEquivalences pins which configurations share a job: those the
// simulator runs identically share a key, and those it runs differently do
// not.
func TestCacheKeyEquivalences(t *testing.T) {
	withMemDep := func(pol policy.Kind, md memdep.Config) Config {
		cfg := DefaultConfig(8, pol)
		cfg.MemDep = md
		return cfg
	}
	setassoc := memdep.TableSetAssoc
	cases := []struct {
		name string
		a, b Config
		same bool
	}{
		{"counter bits 0 and 3", withMemDep(policy.Sync, memdep.Config{}), withMemDep(policy.Sync, memdep.Config{CounterBits: 3}), true},
		{"entries 0 and 64", withMemDep(policy.ESync, memdep.Config{}), withMemDep(policy.ESync, memdep.Config{Entries: 64}), true},
		{"setassoc ways 0 and 4", withMemDep(policy.ESync, memdep.Config{Table: setassoc}), withMemDep(policy.ESync, memdep.Config{Table: setassoc, Ways: 4}), true},
		{"full-assoc ways 0 and 7", withMemDep(policy.ESync, memdep.Config{}), withMemDep(policy.ESync, memdep.Config{Ways: 7}), true},
		{"setassoc entries 10 and 8 at 4 ways", withMemDep(policy.ESync, memdep.Config{Table: setassoc, Entries: 10, Ways: 4}), withMemDep(policy.ESync, memdep.Config{Table: setassoc, Entries: 8, Ways: 4}), true},
		{"zero stages and 8", Config{Policy: policy.ESync}, DefaultConfig(8, policy.ESync), true},
		{"always-sync and sync", withMemDep(policy.Sync, memdep.Config{Predictor: memdep.PredictAlways}), DefaultConfig(8, policy.Sync), false},
		{"counter bits 3 and 2", withMemDep(policy.Sync, memdep.Config{}), withMemDep(policy.Sync, memdep.Config{CounterBits: 2}), false},
		{"counter bits 16 and 40", withMemDep(policy.Sync, memdep.Config{CounterBits: 16}), withMemDep(policy.Sync, memdep.Config{CounterBits: 40}), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ka, kb := simKey(tc.a), simKey(tc.b)
			if (ka == kb) != tc.same {
				t.Errorf("same key = %v, want %v:\n%s\n%s", ka == kb, tc.same, ka, kb)
			}
		})
	}
}

// TestCacheKeysMatchFormulas holds the simulate, preprocess and program
// build keys, which are appended without fmt, to the fmt formulas they
// replaced, byte for byte, over stage counts, every policy, every table
// organization, ways, counter bits, address tagging, DDC sizes, cycle and
// instruction limits, and both named-benchmark and synthetic programs.  A
// key that drifts would turn every persisted object into a miss.
func TestCacheKeysMatchFormulas(t *testing.T) {
	programs := []engine.Spec{
		workload.BuildJob{Name: "compress", Scale: 1},
		workload.BuildJob{Name: "126.gcc", Scale: 0},
		workload.BuildJob{Name: "xlisp", Scale: -2},
		synth.BuildJob{Spec: synth.Spec{Seed: 7, Ops: 20_000}.Normalize(), Scale: 1},
		synth.BuildJob{Spec: synth.Spec{Seed: 3, Ops: 400, AliasSetSize: 4, LoopCarried: 0.25}.Normalize(), Scale: 12},
	}
	programKey := func(p engine.Spec) string {
		switch p := p.(type) {
		case workload.BuildJob:
			return fmt.Sprintf("%s\x00%s@%d", workload.BuildKind, p.Name, p.Scale)
		case synth.BuildJob:
			return fmt.Sprintf("%s\x00%s@%d", synth.BuildKind, p.Spec.CanonicalJSON(), p.Scale)
		}
		t.Fatalf("no formula for %T", p)
		return ""
	}
	maxInsts := []uint64{0, 40_000, 1 << 40}
	stages := []int{0, 1, 4, 8, 16}
	tables := []memdep.TableKind{memdep.TableFullAssoc, memdep.TableSetAssoc, memdep.TableStoreSet}
	predictors := []memdep.PredictorKind{memdep.PredictSync, memdep.PredictESync, memdep.PredictAlways}
	ways, bits, entries := []int{0, 2, 4}, []int{0, 2, 3, 16}, []int{0, 8, 64}
	ddcs := [][]int{nil, {}, {32}, {32, 128, 512}}
	maxCycles := []int64{0, 1 << 20, 123_456_789_012}
	i := 0
	for _, prog := range programs {
		for _, maxInst := range maxInsts {
			item := PreprocessJob{Program: prog, Trace: trace.Config{MaxInstructions: maxInst}}
			itemKey := fmt.Sprintf("%s\x00%s|max=%d", PreprocessKind, programKey(prog), maxInst)
			if got := engine.Key(item); got != itemKey {
				t.Fatalf("preprocess key\n got %q\nwant %q", got, itemKey)
			}
			for _, st := range stages {
				for _, pol := range policy.All() {
					for _, table := range tables {
						i++
						cfg := DefaultConfig(st, pol)
						cfg.MemDep = memdep.Config{
							Table:        table,
							Entries:      entries[i%len(entries)],
							Ways:         ways[i%len(ways)],
							CounterBits:  bits[i%len(bits)],
							Predictor:    predictors[i%len(predictors)],
							TagByAddress: i%2 == 1,
						}
						cfg.DDCSizes = ddcs[i%len(ddcs)]
						cfg.MaxCycles = maxCycles[i%len(maxCycles)]
						c := cfg.withDefaults()
						md := c.MemDep
						want := fmt.Sprintf("%s\x00%s|stages=%d,policy=%v,mdpt=%v/%dx%d,bits=%d,pred=%v,addrtag=%t,ddc=%v,max=%d",
							SimulateKind, itemKey, c.Stages, c.Policy, md.Table, md.Entries, md.Ways,
							md.CounterBits, md.Predictor, md.TagByAddress, c.DDCSizes, c.MaxCycles)
						if got := engine.Key(SimulateJob{Item: item, Config: cfg}); got != want {
							t.Fatalf("simulate key\n got %q\nwant %q", got, want)
						}
					}
				}
			}
		}
	}
}

// TestCacheKeyPaperSize bounds the key of the paper's ESYNC compress job,
// which every hot request computes.
func TestCacheKeyPaperSize(t *testing.T) {
	k := simKey(DefaultConfig(8, policy.ESync))
	if len(k) >= 256 {
		t.Errorf("key is %d bytes, want under 256: %q", len(k), k)
	}
	if !strings.Contains(k, "policy=ESYNC") || !strings.Contains(k, "stages=8") {
		t.Errorf("key does not name the configuration: %q", k)
	}
}

// keyExempt lists the fields that may leave the key unchanged, with the
// reason.
var keyExempt = map[string]string{
	"Core":             "both run loops produce identical Results (TestCoresCycleIdentical)",
	"MemDep.SyncSlots": "derived from Stages by withDefaults",
}

// keyPerturb sets each keyed field to a value that changes what the
// simulator runs, starting from keyBase.
var keyPerturb = map[string]func(*Config){
	"Stages":              func(c *Config) { c.Stages = 4 },
	"Policy":              func(c *Config) { c.Policy = policy.ESync },
	"MemDep.Entries":      func(c *Config) { c.MemDep.Entries = 32 },
	"MemDep.Predictor":    func(c *Config) { c.MemDep.Predictor = memdep.PredictAlways },
	"MemDep.Table":        func(c *Config) { c.MemDep.Table = memdep.TableStoreSet },
	"MemDep.Ways":         func(c *Config) { c.MemDep.Ways = 2 },
	"MemDep.CounterBits":  func(c *Config) { c.MemDep.CounterBits = 4 },
	"MemDep.TagByAddress": func(c *Config) { c.MemDep.TagByAddress = true },
	"DDCSizes":            func(c *Config) { c.DDCSizes = []int{8} },
	"MaxCycles":           func(c *Config) { c.MaxCycles = 1_000 },
}

func keyBase() Config {
	cfg := DefaultConfig(8, policy.Sync)
	cfg.MemDep.Table = memdep.TableSetAssoc
	return cfg
}

// TestCacheKeyCoversConfig walks every field of Config and memdep.Config:
// each must change the key, or be exempt with a reason.  A field added
// later without joining the key fails here.
func TestCacheKeyCoversConfig(t *testing.T) {
	base := simKey(keyBase())
	var walk func(prefix string, typ reflect.Type)
	walk = func(prefix string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name := prefix + f.Name
			if f.Type == reflect.TypeOf(memdep.Config{}) {
				walk(name+".", f.Type)
				continue
			}
			if _, ok := keyExempt[name]; ok {
				continue
			}
			perturb, ok := keyPerturb[name]
			if !ok {
				t.Errorf("field %s is neither in the key (keyPerturb) nor exempt (keyExempt)", name)
				continue
			}
			cfg := keyBase()
			perturb(&cfg)
			if simKey(cfg) == base {
				t.Errorf("changing %s leaves the key unchanged: %s", name, base)
			}
		}
	}
	walk("", reflect.TypeOf(Config{}))
}

// TestAlwaysSyncSurvivesNormalization runs the ablation's ALWAYS-SYNC
// predictor under the SYNC policy: withDefaults must not replace it with the
// policy's counter, so the run differs from SYNC's on sc.
func TestAlwaysSyncSurvivesNormalization(t *testing.T) {
	always := DefaultConfig(8, policy.Sync)
	always.MemDep.Predictor = memdep.PredictAlways
	if got := always.withDefaults().MemDep.Predictor; got != memdep.PredictAlways {
		t.Fatalf("effective predictor = %v, want ALWAYS-SYNC", got)
	}
	if simKey(always) == simKey(DefaultConfig(8, policy.Sync)) {
		t.Fatal("ALWAYS-SYNC and SYNC share a key")
	}
	w, err := Preprocess(workload.MustGet("sc").Build(1), trace.Config{MaxInstructions: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	a, err := SimulateContext(context.Background(), w, always)
	if err != nil {
		t.Fatal(err)
	}
	s := simulate(t, w, 8, policy.Sync)
	if a.Cycles == s.Cycles && a.MemDep == s.MemDep {
		t.Errorf("ALWAYS-SYNC ran exactly as SYNC on sc: %d cycles, %+v", a.Cycles, a.MemDep)
	}
}
