// Package memdep implements the paper's primary contribution: dynamic memory
// dependence prediction and synchronization.
//
// The package provides:
//
//   - MDPT, the memory dependence prediction table (section 4.1): identifies
//     static store→load pairs whose dynamic instances have caused
//     mis-speculations and predicts whether future instances should be
//     synchronized.
//   - MDST, the memory dependence synchronization table (section 4.2): a pool
//     of condition variables (full/empty flags) used to synchronize a dynamic
//     instance of a predicted store→load pair.
//   - System, the combined structure evaluated in section 5.5 of the paper
//     (one prediction entry carrying one synchronization slot per stage),
//     which is the interface the Multiscalar timing simulator drives.
//   - Predictors: always-synchronize, the 3-bit up/down counter ("SYNC") and
//     the counter enhanced with the producing task's PC ("ESYNC").
//   - DDC, the data dependence cache used by the dependence-locality studies
//     of section 5.3 (Tables 5 and 7).
//
// Dynamic instances of a static dependence are distinguished with the
// dependence-distance scheme of section 3: instance numbers are approximated
// by Multiscalar task numbers, and an MDPT entry records the distance between
// the mis-speculated store and load instances.  The data-address tagging
// alternative the paper sketches is available behind Config.TagByAddress for
// ablation studies.
package memdep

import (
	"fmt"
	"sort"
)

// PairKey identifies a static dependence edge by the program counters of the
// load and the store.
type PairKey struct {
	LoadPC  uint64
	StorePC uint64
}

// String implements fmt.Stringer.
func (k PairKey) String() string {
	return fmt.Sprintf("(st@%#x -> ld@%#x)", k.StorePC, k.LoadPC)
}

// PairCount couples a static dependence pair with an observed event count.
type PairCount struct {
	Pair PairKey
	N    uint64
}

// SortedPairCounts flattens a pair→count map into a slice ordered by
// decreasing count, with ties broken by store then load PC so the order is
// deterministic across runs.
func SortedPairCounts(counts map[PairKey]uint64) []PairCount {
	out := make([]PairCount, 0, len(counts))
	for k, v := range counts {
		out = append(out, PairCount{Pair: k, N: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].N != out[j].N {
			return out[i].N > out[j].N
		}
		if out[i].Pair.StorePC != out[j].Pair.StorePC {
			return out[i].Pair.StorePC < out[j].Pair.StorePC
		}
		return out[i].Pair.LoadPC < out[j].Pair.LoadPC
	})
	return out
}

// PredictorKind selects the prediction policy attached to MDPT entries.  The
// zero value is the SYNC counter, the predictor of the paper's baseline.
type PredictorKind int

const (
	// PredictSync is the baseline up/down saturating counter: a dependence
	// is predicted at or above Threshold ("SYNC" in section 5.5).
	PredictSync PredictorKind = iota
	// PredictESync is the enhanced predictor: the counter plus the PC of the
	// task that issued the store; synchronization is enforced only when the
	// task at the recorded dependence distance matches ("ESYNC").
	PredictESync
	// PredictAlways omits the prediction field: any matching entry predicts
	// synchronization (section 4.1 notes the field is optional).
	PredictAlways
)

// String implements fmt.Stringer.
func (k PredictorKind) String() string {
	switch k {
	case PredictAlways:
		return "ALWAYS-SYNC"
	case PredictSync:
		return "SYNC"
	case PredictESync:
		return "ESYNC"
	default:
		return fmt.Sprintf("predictor(%d)", int(k))
	}
}

// The paper's prediction-table parameters (section 5.5).
const (
	// DefaultEntries is the MDPT size the paper evaluates.
	DefaultEntries = 64
	// Threshold is the counter value at or above which a dependence (and
	// hence synchronization) is predicted.
	Threshold = 3
	// defaultWays is the associativity of the set-associative and store-set
	// organizations when Config.Ways is unset.
	defaultWays = 4
	// defaultCounterBits is the width of the up/down counter.
	defaultCounterBits = 3
	// maxCounterBits bounds the counter width so 1<<CounterBits cannot
	// overflow.
	maxCounterBits = 16
)

// Config describes a prediction/synchronization system.  Zero values take
// the paper's configuration.
type Config struct {
	// Entries is the number of MDPT entries (default DefaultEntries).  The
	// set-associative and store-set organizations round it down to whole
	// sets of Ways.
	Entries int
	// SyncSlots is the number of MDST entries carried per prediction entry in
	// the combined structure -- one per stage in the paper's evaluated
	// configuration.
	SyncSlots int
	// Predictor selects the prediction policy.
	Predictor PredictorKind
	// Table selects the prediction-table organization (default: the paper's
	// fully associative MDPT).
	Table TableKind
	// Ways is the associativity of the set-associative organization and the
	// per-set member bound of the store-set organization (default 4, clamped
	// to Entries).  Ignored -- and normalized to zero -- for the fully
	// associative table, which is one set of Entries ways.
	Ways int
	// CounterBits is the width of the up/down counter (default 3).  It must
	// hold Threshold, so at least 2.
	CounterBits int
	// TagByAddress switches dynamic-instance tagging from the dependence
	// distance scheme to the data-address scheme (ablation).
	TagByAddress bool
}

// withDefaults fills unset fields and clamps inconsistent ones.  Clamping is
// deliberately forgiving (a constructed table always behaves sanely);
// Validate reports the raw inconsistencies for callers that want an error
// instead of a silent repair.
func (c Config) withDefaults() Config {
	if c.Entries <= 0 {
		c.Entries = DefaultEntries
	}
	if c.SyncSlots <= 0 {
		c.SyncSlots = 4
	}
	if c.CounterBits <= 0 {
		c.CounterBits = defaultCounterBits
	}
	if c.Table == TableFullAssoc {
		c.Ways = 0 // ignored; normalized so equivalent configs share cache keys
	} else {
		if c.Ways <= 0 {
			c.Ways = defaultWays
		}
		c.Ways = min(c.Ways, c.Entries)
		c.Entries -= c.Entries % c.Ways // whole sets only
	}
	return c
}

// Effective returns the configuration a table built from c actually runs
// with: defaults applied and inconsistent fields clamped.  Tools that echo a
// configuration should report these values, not the raw inputs.
func (c Config) Effective() Config { return c.withDefaults() }

// counterMax returns the saturation value of the up/down counter.  A width
// beyond maxCounterBits, which Validate rejects, is clamped here rather than
// in withDefaults, so the invalid configuration keeps a key of its own.
func (c Config) counterMax() int { return (1 << min(c.CounterBits, maxCounterBits)) - 1 }

// initialCounter is the counter value given to a newly allocated entry:
// Threshold+1, so a fresh mis-speculation predicts synchronization with a
// little hysteresis, but never stronger than the counter saturates at.
func (c Config) initialCounter() int { return min(Threshold+1, c.counterMax()) }

// syncPredicted applies the prediction policy to a counter value.
func (c Config) syncPredicted(counter int) bool {
	if c.Predictor == PredictAlways {
		return true
	}
	return counter >= Threshold
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.CounterBits > maxCounterBits {
		return fmt.Errorf("memdep: %d counter bits is unreasonably wide (max %d)",
			c.CounterBits, maxCounterBits)
	}
	d := c.withDefaults()
	if !d.Table.Valid() {
		return fmt.Errorf("memdep: invalid predictor table %d", int(d.Table))
	}
	if Threshold > d.counterMax() {
		return fmt.Errorf("memdep: threshold %d does not fit in %d counter bits",
			Threshold, d.CounterBits)
	}
	return nil
}
