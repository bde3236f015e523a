package memdep

import (
	"fmt"
	"strings"
)

// Predictor is the interface of a memory dependence prediction table.  The
// MDPT of the paper (section 4.1) is one organization of it; the package
// provides three, in two types:
//
//   - MDPT: the LRU-managed pair table, either fully associative as
//     evaluated in the paper (TableFullAssoc, the default) or
//     set-associative and indexed by the load PC, with per-set LRU
//     (TableSetAssoc).  The fully associative table is the set-associative
//     one with a single set.
//   - StoreSetPredictor: a store-set-style organization that groups the
//     loads and stores of transitively related dependences into one set with
//     a shared confidence counter (TableStoreSet)
//
// All implementations are driven through the same dynamic events: lookups on
// load/store issue, learning on mis-speculation, and non-speculative
// strengthen/weaken updates on commit and release.  The interface declares
// exactly the calls System makes; the tables keep no statistics of their
// own, because System counts the events (SystemStats).
//
// MatchesForLoad and MatchesForStore append into a caller-owned buffer and
// return the extended slice.  Because the predictor never retains or reuses
// the buffer, results held by the caller stay intact across subsequent calls
// -- the earlier scratch-slice contract ("valid until the next call") is
// gone, and with it the aliasing hazard it carried.  Callers that want an
// allocation-free hot path pass a reusable buffer (see System).
type Predictor interface {
	// MatchesForLoad appends the predictions of all valid entries whose load
	// PC matches (a load may have multiple static dependences, section 4.4.4)
	// and returns the extended slice.  Matching entries are touched for LRU.
	MatchesForLoad(loadPC uint64, dst []Prediction) []Prediction
	// MatchesForStore appends the predictions of all valid entries whose
	// store PC matches and returns the extended slice.
	MatchesForStore(storePC uint64, dst []Prediction) []Prediction
	// RecordMisspeculation allocates an entry for the pair (or strengthens an
	// existing one).  dist is the dependence distance and storeTaskPC
	// identifies the task that issued the store (used by ESYNC).
	RecordMisspeculation(pair PairKey, dist uint64, storeTaskPC uint64)
	// Strengthen increases the confidence of the pair's entry; unknown pairs
	// are ignored.
	Strengthen(pair PairKey)
	// Weaken decreases the confidence of the pair's entry; unknown pairs are
	// ignored.
	Weaken(pair PairKey)
	// Reset invalidates all entries.
	Reset()
}

// TableKind selects the prediction-table organization.
type TableKind int

const (
	// TableFullAssoc is the paper's fully associative, LRU-managed MDPT
	// (the default).
	TableFullAssoc TableKind = iota
	// TableSetAssoc is the set-associative, load-PC-indexed MDPT: Entries
	// slots organized as Entries/Ways sets, with per-set LRU replacement.
	TableSetAssoc
	// TableStoreSet is the store-set-style organization: related loads and
	// stores are merged into one set with a shared confidence counter.
	TableStoreSet

	numTableKinds
)

// String returns the flag spelling of the organization.
func (k TableKind) String() string {
	switch k {
	case TableFullAssoc:
		return "full"
	case TableSetAssoc:
		return "setassoc"
	case TableStoreSet:
		return "storeset"
	default:
		return fmt.Sprintf("table(%d)", int(k))
	}
}

// Valid reports whether k names a defined organization.
func (k TableKind) Valid() bool { return k >= 0 && k < numTableKinds }

// ParseTableKind parses the -predictor flag values "full", "setassoc" and
// "storeset", case-insensitively (matching policy.Parse).
func ParseTableKind(s string) (TableKind, error) {
	n := strings.ToLower(strings.TrimSpace(s))
	for k := TableFullAssoc; k < numTableKinds; k++ {
		if k.String() == n {
			return k, nil
		}
	}
	return 0, fmt.Errorf("memdep: unknown predictor table %q (want \"full\", \"setassoc\" or \"storeset\")", s)
}

// NewPredictor creates the prediction table selected by cfg.Table.
func NewPredictor(cfg Config) Predictor {
	if cfg.Table == TableStoreSet {
		return NewStoreSetPredictor(cfg)
	}
	return NewMDPT(cfg)
}
