// Package synth generates synthetic workloads from a seeded, parameterized
// model of memory-dependence behaviour.
//
// The committed benchmark suite (internal/workload) mimics the paper's fixed
// SPEC stand-ins; this package opens the scenario space beyond it: a Spec
// describes the *dependence structure* of a workload -- trace length, task
// sizes, instruction mix, a store→load dependence-distance histogram, alias
// intensity and a loop-carried-dependence rate -- and Build deterministically
// assembles a program (internal/program) whose committed instruction stream
// exhibits that structure.  The program is an ordinary program of the
// repository's ISA, so every downstream layer (functional trace, window
// analysis, Multiscalar preprocess + simulate, predictors, experiments)
// consumes it unchanged.
//
// Determinism is the core contract: the same Spec and Seed produce a
// byte-identical program -- and therefore a byte-identical committed trace
// and DeepEqual simulation results -- on every platform and at every engine
// worker count.  All randomness comes from a self-contained splitmix64
// generator (no dependence on math/rand sequences), and all sampling happens
// at build time; the generated program itself is branch-deterministic.
//
// The generated shape is a single counted loop over a straight-line body:
// recurring static PCs are what make the dependences *learnable* (the MDPT
// and store-set predictors key on static load/store PCs), exactly like the
// paper's hot static pairs.  Each store owns a small "alias set" of
// addresses; with AliasSetSize 1 the store hits the same word every
// iteration (a stable, perfectly predictable dependence), while larger sets
// rotate the store over the set so its dependent load -- which always reads
// the set's first element -- collides only every AliasSetSize-th iteration:
// an intermittent, mispredict-prone dependence that stresses the prediction
// counters.  Loop-carried dependences read words whose producing store sits
// *later* in the body, so the value arrives from the previous iteration,
// crossing the loop latch (and, for per-iteration tasks, a task boundary).
package synth

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"memdep/internal/isa"
	"memdep/internal/program"
)

// DistBucket is one bucket of the dependence-distance histogram: Weight
// relative units of dependences at (approximately) Dist dynamic instructions
// between the producing store and the dependent load.
type DistBucket struct {
	// Dist is the target store→load distance in dynamic instructions.
	Dist int `json:"dist"`
	// Weight is the relative frequency of the bucket.
	Weight int `json:"weight"`
}

// Default model parameters, applied by Normalize to zero fields.
const (
	DefaultName         = "synth"
	DefaultOps          = 32768
	DefaultBody         = 512
	DefaultTaskSize     = 28
	DefaultTaskSpread   = 12
	DefaultLoadFrac     = 0.25
	DefaultStoreFrac    = 0.15
	DefaultDepFrac      = 0.5
	DefaultAliasSetSize = 1
)

// MaxOps bounds a workload's dynamic length: both the Ops field and the
// scaled run (Build multiplies iterations by scale) are capped here, so a
// request cannot generate unbounded simulation work.
const MaxOps = 5_000_000

// DefaultDepDists returns the default dependence-distance histogram: mostly
// short dependences with a tail reaching across several tasks.
func DefaultDepDists() []DistBucket {
	return []DistBucket{{Dist: 8, Weight: 4}, {Dist: 32, Weight: 2}, {Dist: 128, Weight: 1}}
}

// Spec parameterizes one synthetic workload.  The zero value of every field
// selects the default above, so the empty Spec is a complete, valid workload
// description (`{"synth": {}}` is a complete facade request workload).  The
// canonical JSON encoding of the normalized Spec (CanonicalJSON) is the
// workload's identity: it seeds the program generator and keys the engine's
// memoized cache, so two requests naming the same spec and seed share one
// build, one trace and one preprocessed work item.  The JSON tags are the
// field names of the facade's "synth" request object.
type Spec struct {
	// Name labels the workload in output ("" = "synth").  It participates in
	// the cache key but not in generation: renaming a spec re-runs nothing
	// but the label.
	Name string `json:"name,omitempty"`
	// Seed seeds the generator.  Different seeds produce structurally
	// different programs under the same model parameters.
	Seed uint64 `json:"seed,omitempty"`
	// Ops is the approximate committed dynamic instruction count (0 = 32768).
	Ops int `json:"ops,omitempty"`
	// Body is the approximate static loop-body length in instructions
	// (0 = 512).  It bounds the number of distinct static load/store PCs and
	// hence the predictor working set.
	Body int `json:"body,omitempty"`
	// TaskSize is the mean task size in instructions (0 = 28); task
	// boundaries are sampled uniformly from TaskSize ± TaskSpread.
	TaskSize int `json:"task_size,omitempty"`
	// TaskSpread is the half-width of the task-size distribution (0 = 12).
	TaskSpread int `json:"task_spread,omitempty"`
	// LoadFrac is the fraction of body slots that are loads (0 = 0.25).
	LoadFrac float64 `json:"load_frac,omitempty"`
	// StoreFrac is the fraction of body slots that are stores (0 = 0.15).
	StoreFrac float64 `json:"store_frac,omitempty"`
	// DepFrac is the fraction of loads that participate in an engineered
	// store→load dependence (0 = 0.5); the rest read a never-written pool.
	DepFrac float64 `json:"dep_frac,omitempty"`
	// DepDists is the dependence-distance histogram (nil = 8:4, 32:2, 128:1).
	DepDists []DistBucket `json:"dep_dists,omitempty"`
	// AliasSetSize is the number of addresses each store rotates over
	// (0 = 1).  1 makes every engineered dependence fire on every iteration;
	// k > 1 makes it fire on every k-th iteration only, which is the
	// mispredict-prone regime.  Normalize rounds it up to a power of two.
	AliasSetSize int `json:"alias_set_size,omitempty"`
	// LoopCarried is the fraction of engineered dependences whose producing
	// store executes in the previous loop iteration (0 = none: every
	// engineered dependence is produced in the same iteration).
	LoopCarried float64 `json:"loop_carried,omitempty"`
}

// Normalize returns the spec with every defaulted field materialized and the
// alias-set size rounded up to a power of two, without touching the receiver.
// Invalid fields are left as they are; Validate reports them.
func (s Spec) Normalize() Spec {
	if s.Name == "" {
		s.Name = DefaultName
	}
	if s.Ops == 0 {
		s.Ops = DefaultOps
	}
	if s.Body == 0 {
		s.Body = DefaultBody
	}
	if s.TaskSize == 0 {
		s.TaskSize = DefaultTaskSize
	}
	if s.TaskSpread == 0 {
		s.TaskSpread = DefaultTaskSpread
	}
	if s.TaskSpread >= s.TaskSize && s.TaskSize > 0 {
		s.TaskSpread = s.TaskSize - 1
	}
	if s.LoadFrac == 0 {
		s.LoadFrac = DefaultLoadFrac
	}
	if s.StoreFrac == 0 {
		s.StoreFrac = DefaultStoreFrac
	}
	if s.DepFrac == 0 {
		s.DepFrac = DefaultDepFrac
	}
	if len(s.DepDists) == 0 {
		s.DepDists = DefaultDepDists()
	} else {
		s.DepDists = append([]DistBucket(nil), s.DepDists...)
	}
	if s.AliasSetSize == 0 {
		s.AliasSetSize = DefaultAliasSetSize
	}
	if s.AliasSetSize > 0 {
		s.AliasSetSize = ceilPow2(s.AliasSetSize)
	}
	return s
}

// ceilPow2 rounds n up to the next power of two.  The result is capped at
// 2^30 so that absurd (validation-rejected) sizes cannot overflow p into an
// endless loop -- Normalize runs on raw specs before Validate.
func ceilPow2(n int) int {
	p := 1
	for p < n && p < 1<<30 {
		p <<= 1
	}
	return p
}

// Problem describes one invalid Spec field.
type Problem struct {
	// Field is the JSON name of the offending field.
	Field string
	// Value is the offending value.
	Value string
	// Msg says what is wrong with it.
	Msg string
}

// Problems reports every invalid field of the raw (un-normalized) spec.
func (s Spec) Problems() []Problem {
	var out []Problem
	add := func(field string, value any, msg string) {
		out = append(out, Problem{Field: field, Value: fmt.Sprint(value), Msg: msg})
	}
	if len(s.Name) > 64 {
		add("name", s.Name[:16]+"...", "at most 64 characters")
	}
	if s.Ops < 0 || s.Ops > MaxOps {
		add("ops", s.Ops, fmt.Sprintf("must be in [1, %d] (0 = default)", MaxOps))
	}
	if s.Body < 0 || (s.Body > 0 && s.Body < 16) || s.Body > 8192 {
		add("body", s.Body, "must be in [16, 8192] (0 = default)")
	}
	if s.TaskSize < 0 || (s.TaskSize > 0 && s.TaskSize < 4) || s.TaskSize > 1024 {
		add("task_size", s.TaskSize, "must be in [4, 1024] (0 = default)")
	}
	if s.TaskSpread < 0 || s.TaskSpread > 1024 {
		add("task_spread", s.TaskSpread, "must be in [0, 1024]")
	}
	checkFrac := func(field string, v float64) {
		if v < 0 || v > 1 {
			add(field, v, "must be in [0, 1]")
		}
	}
	checkFrac("load_frac", s.LoadFrac)
	checkFrac("store_frac", s.StoreFrac)
	checkFrac("dep_frac", s.DepFrac)
	checkFrac("loop_carried", s.LoopCarried)
	// The mix bound is checked on the *effective* (defaulted) fractions:
	// a zero field means the default, so {store_frac: 0.9} alone would
	// otherwise slip past the cap and normalize to a 1.15 mix.
	lf, sf := s.LoadFrac, s.StoreFrac
	if lf == 0 {
		lf = DefaultLoadFrac
	}
	if sf == 0 {
		sf = DefaultStoreFrac
	}
	if lf >= 0 && sf >= 0 && lf+sf > 0.95 {
		add("load_frac", lf+sf, "effective load_frac + store_frac must not exceed 0.95")
	}
	if len(s.DepDists) > 16 {
		add("dep_dists", len(s.DepDists), "at most 16 histogram buckets")
	}
	for i, b := range s.DepDists {
		if b.Dist < 1 || b.Dist > 1_000_000 {
			add("dep_dists", fmt.Sprintf("[%d].dist=%d", i, b.Dist), "distances must be in [1, 1000000]")
		}
		if b.Weight < 1 || b.Weight > 1_000_000 {
			add("dep_dists", fmt.Sprintf("[%d].weight=%d", i, b.Weight), "weights must be in [1, 1000000]")
		}
	}
	if s.AliasSetSize < 0 || s.AliasSetSize > 4096 {
		add("alias_set_size", s.AliasSetSize, "must be in [1, 4096] (0 = default)")
	}
	return out
}

// Validate reports the spec's problems as one error (nil when well-formed).
func (s Spec) Validate() error {
	probs := s.Problems()
	if len(probs) == 0 {
		return nil
	}
	msgs := make([]string, len(probs))
	for i, p := range probs {
		msgs[i] = fmt.Sprintf("%s: %s (%s)", p.Field, p.Msg, p.Value)
	}
	return errors.New("synth: invalid spec: " + strings.Join(msgs, "; "))
}

// CanonicalJSON returns the canonical JSON encoding of the normalized spec:
// the workload's identity for caching and reporting.  Two specs with the
// same encoding build byte-identical programs.
func (s Spec) CanonicalJSON() string {
	data, err := json.Marshal(s.Normalize())
	if err != nil {
		// A Spec contains only plain values; Marshal cannot fail.
		panic(fmt.Sprintf("synth: marshal spec: %v", err))
	}
	return string(data)
}

// Register conventions of the generated programs (compatible with the loop
// helpers of internal/program).
const (
	regBaseAlias = isa.Reg(27) // base of the alias-set region (stores + dependent loads)
	regBasePool  = isa.Reg(26) // base of the never-written read pool (independent loads)
	regLimit     = isa.Reg(25) // loop limit
	regCount     = isa.Reg(24) // loop counter (iteration index)
	regScratch   = isa.Reg(19) // address scratch for rotating stores
	tempLo       = isa.Reg(2)  // temps are r2..r18, written round-robin
	tempHi       = isa.Reg(18)
)

// poolWords is the size of the read-only pool independent loads draw from.
const poolWords = 256

// slot kinds of the body plan.
type slotKind int

const (
	slotALU slotKind = iota
	slotLoad
	slotStore
)

// slot is one planned body position.
type slot struct {
	kind slotKind
	pos  int // emitted-instruction offset of the slot within the body

	// Store fields.
	group int // alias-group index (offset group*aliasSetSize words)

	// Load fields.
	dep     bool  // engineered dependence (false: read the independent pool)
	prodOff int64 // byte offset of the producer group's first element
	poolOff int64 // byte offset into the read pool for independent loads
}

// latchOverhead is the per-iteration loop overhead (exit check, counter
// increment, back jump) separating the last body instruction of one
// iteration from the first of the next; loop-carried distance targeting
// accounts for it.
const latchOverhead = 3

// Build assembles the workload's program.  Scale values below 1 are treated
// as 1; larger scales multiply the iteration count (and hence the dynamic
// instruction count) linearly, mirroring workload.Workload.Build.
func (s Spec) Build(scale int) *program.Program {
	s = s.Normalize()
	if scale < 1 {
		scale = 1
	}
	r := newRNG(s.Seed)
	k := s.AliasSetSize

	// Pass A: sample the kind of every body slot.
	kinds := make([]slotKind, s.Body)
	for i := range kinds {
		switch u := r.float(); {
		case u < s.LoadFrac:
			kinds[i] = slotLoad
		case u < s.LoadFrac+s.StoreFrac:
			kinds[i] = slotStore
		default:
			kinds[i] = slotALU
		}
	}

	// Pass B: lay the slots out in emitted-instruction positions.  Rotating
	// stores expand to an address computation plus the store itself.
	storeLen := 1
	if k > 1 {
		storeLen = 4
	}
	slots := make([]slot, s.Body)
	type storeRef struct {
		pos   int
		group int
	}
	var stores []storeRef
	pos := 0
	for i, kind := range kinds {
		slots[i] = slot{kind: kind, pos: pos}
		switch kind {
		case slotStore:
			slots[i].group = len(stores)
			stores = append(stores, storeRef{pos: pos, group: len(stores)})
			pos += storeLen
		default:
			pos++
		}
	}
	bodyLen := pos

	// Pass C: choose each load's producer so that the realized store→load
	// distances follow the histogram.  Intra-iteration dependences pick a
	// store *earlier* in the body (distance = load pos - store pos);
	// loop-carried dependences pick a store *later* in the body, whose most
	// recent write when the load executes happened in the previous iteration
	// (distance = body length + latch - store pos + load pos).
	groupBytes := int64(k) * isa.WordSize
	for i := range slots {
		sl := &slots[i]
		if sl.kind != slotLoad {
			continue
		}
		if r.float() >= s.DepFrac || len(stores) == 0 {
			sl.poolOff = int64(r.intn(poolWords)) * isa.WordSize
			continue
		}
		d := s.sampleDist(r)
		carried := r.float() < s.LoopCarried
		// Candidate filter; fall back to the other direction when the body
		// has no store on the wanted side of the load.
		var best storeRef
		bestErr := -1
		consider := func(ref storeRef, dist int) {
			e := dist - d
			if e < 0 {
				e = -e
			}
			if bestErr < 0 || e < bestErr {
				best, bestErr = ref, e
			}
		}
		for _, ref := range stores {
			switch {
			case carried && ref.pos > sl.pos:
				consider(ref, bodyLen+latchOverhead-ref.pos+sl.pos)
			case !carried && ref.pos < sl.pos:
				consider(ref, sl.pos-ref.pos)
			}
		}
		if bestErr < 0 {
			// No store on the wanted side: take the nearest-distance match
			// over all stores, whichever side it falls on.
			for _, ref := range stores {
				if ref.pos < sl.pos {
					consider(ref, sl.pos-ref.pos)
				} else if ref.pos > sl.pos {
					consider(ref, bodyLen+latchOverhead-ref.pos+sl.pos)
				}
			}
		}
		if bestErr < 0 {
			sl.poolOff = int64(r.intn(poolWords)) * isa.WordSize
			continue
		}
		sl.dep = true
		sl.prodOff = int64(best.group) * groupBytes
	}

	// The iteration count targets the requested dynamic length.  The scaled
	// run is clamped to MaxOps as a safety net (the facade rejects
	// over-scaled requests before they reach a build): the cap both bounds
	// the work a job can represent and keeps iters*scale from overflowing.
	iters := 1
	if bodyLen > 0 {
		iters = (s.Ops + bodyLen - 1) / bodyLen
		if iters < 1 {
			iters = 1
		}
		if maxIters := MaxOps / bodyLen; maxIters >= 1 && scale > maxIters/iters+1 {
			scale = maxIters/iters + 1
		}
	}
	iters *= scale

	// Pass D: emit.
	b := program.NewBuilder(s.Name)
	aliasWords := len(stores) * k
	if aliasWords == 0 {
		aliasWords = 1
	}
	alias := b.AllocWords("alias", aliasWords)
	b.AllocWords("pool", poolWords)
	// Deterministic non-zero "input data": the alias region and the first
	// temporaries start at seed-derived values.
	for w := 0; w < aliasWords; w++ {
		b.InitWord(alias+uint64(w)*isa.WordSize, int64(r.intn(1<<20)))
	}

	b.LoadAddr(regBaseAlias, "alias")
	b.LoadAddr(regBasePool, "pool")
	temps := int(tempHi - tempLo + 1)
	for t := 0; t < 4; t++ {
		b.LoadImm(tempLo+isa.Reg(t), int64(r.intn(1<<12)))
	}
	b.LoadImm(regLimit, int64(iters))

	tempIdx := 0
	nextTemp := func() isa.Reg {
		reg := tempLo + isa.Reg(tempIdx%temps)
		tempIdx++
		return reg
	}
	lastTemp := func() isa.Reg {
		if tempIdx == 0 {
			return tempLo
		}
		return tempLo + isa.Reg((tempIdx-1)%temps)
	}
	aluOps := []isa.Op{isa.ADD, isa.SUB, isa.XOR, isa.AND, isa.OR, isa.SLT}

	sinceTask := 0
	nextTask := s.sampleTaskSize(r)
	b.Loop(regCount, regLimit, false, func() {
		for _, sl := range slots {
			if sinceTask >= nextTask {
				b.TaskEntry()
				sinceTask = 0
				nextTask = s.sampleTaskSize(r)
			}
			switch sl.kind {
			case slotALU:
				op := aluOps[r.intn(len(aluOps))]
				src1 := tempLo + isa.Reg(r.intn(temps))
				src2 := tempLo + isa.Reg(r.intn(temps))
				b.Op3(op, nextTemp(), src1, src2)
				sinceTask++
			case slotLoad:
				if sl.dep {
					// Dependent loads always read the first element of the
					// producer's alias set.
					b.Load(nextTemp(), regBaseAlias, sl.prodOff)
				} else {
					b.Load(nextTemp(), regBasePool, sl.poolOff)
				}
				sinceTask++
			case slotStore:
				groupOff := int64(sl.group) * groupBytes
				if k > 1 {
					// The store rotates over its alias set with the
					// iteration index: it hits the set's first element (the
					// dependent loads' target) every k-th iteration only.
					b.AndI(regScratch, regCount, int64(k-1))
					b.SllI(regScratch, regScratch, 3)
					b.Add(regScratch, regScratch, regBaseAlias)
					b.Store(lastTemp(), regScratch, groupOff)
					sinceTask += 4
				} else {
					b.Store(lastTemp(), regBaseAlias, groupOff)
					sinceTask++
				}
			}
		}
	})

	b.Load(isa.RV, regBaseAlias, 0)
	b.Halt()
	return b.MustBuild()
}

// sampleDist draws a target dependence distance from the histogram.
func (s Spec) sampleDist(r *rng) int {
	total := 0
	for _, bkt := range s.DepDists {
		total += bkt.Weight
	}
	if total <= 0 {
		return 1
	}
	pick := r.intn(total)
	for _, bkt := range s.DepDists {
		pick -= bkt.Weight
		if pick < 0 {
			return bkt.Dist
		}
	}
	return s.DepDists[len(s.DepDists)-1].Dist
}

// sampleTaskSize draws a task size from TaskSize ± TaskSpread.
func (s Spec) sampleTaskSize(r *rng) int {
	size := s.TaskSize
	if s.TaskSpread > 0 {
		size += r.intn(2*s.TaskSpread+1) - s.TaskSpread
	}
	if size < 1 {
		size = 1
	}
	return size
}
