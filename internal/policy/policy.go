// Package policy enumerates the data dependence speculation policies compared
// in section 5.4 and 5.5 of the paper.
package policy

import (
	"fmt"
	"strings"

	"memdep/internal/memdep"
)

// Kind identifies a data dependence speculation policy.
type Kind int

const (
	// Never performs no data dependence speculation: a load waits until all
	// stores of all earlier in-flight tasks have executed.
	Never Kind = iota
	// Always speculates blindly: every load issues as soon as its operands
	// are ready; violations are detected afterwards and squash the offending
	// task (the policy of the modern processors cited by the paper).
	Always
	// Wait is selective speculation with perfect dependence prediction: loads
	// that have a true dependence on an in-flight store are not speculated
	// and wait for all earlier stores to resolve; independent loads issue
	// freely.  No explicit synchronization is performed.
	Wait
	// PerfectSync is ideal speculation/synchronization: dependent loads wait
	// exactly for the store that produces their value; independent loads
	// issue freely; no mis-speculations occur.
	PerfectSync
	// Sync uses the MDPT/MDST mechanism with the baseline up/down counter
	// predictor.
	Sync
	// ESync uses the MDPT/MDST mechanism with the enhanced predictor that
	// also records the producing task's PC.
	ESync

	numKinds
)

// All returns every policy in presentation order.
func All() []Kind {
	return []Kind{Never, Always, Wait, PerfectSync, Sync, ESync}
}

// String implements fmt.Stringer using the paper's names.
func (k Kind) String() string {
	switch k {
	case Never:
		return "NEVER"
	case Always:
		return "ALWAYS"
	case Wait:
		return "WAIT"
	case PerfectSync:
		return "PSYNC"
	case Sync:
		return "SYNC"
	case ESync:
		return "ESYNC"
	default:
		return fmt.Sprintf("policy(%d)", int(k))
	}
}

// Valid reports whether k names a defined policy.
func (k Kind) Valid() bool { return k >= 0 && k < numKinds }

// Parse converts a policy name back to its Kind.  It accepts the canonical
// paper names printed by String (case-insensitively) plus the long-form
// aliases some tools and documents use for the perfect-synchronization
// oracle: "PERFECT-SYNC" and "PERFECTSYNC" parse to the same Kind as
// "PSYNC", and String always canonicalizes back to the paper's spelling.
func Parse(name string) (Kind, error) {
	n := strings.ToUpper(strings.TrimSpace(name))
	for _, k := range All() {
		if k.String() == n {
			return k, nil
		}
	}
	switch n {
	case "PERFECT-SYNC", "PERFECTSYNC":
		return PerfectSync, nil
	}
	return 0, fmt.Errorf("policy: unknown policy %q", name)
}

// UsesPredictor reports whether the policy drives the MDPT/MDST hardware.
func (k Kind) UsesPredictor() bool { return k == Sync || k == ESync }

// PredictorKind returns the memdep predictor used by the policy; ok is false
// for policies that do not use the prediction hardware.
func (k Kind) PredictorKind() (memdep.PredictorKind, bool) {
	switch k {
	case Sync:
		return memdep.PredictSync, true
	case ESync:
		return memdep.PredictESync, true
	default:
		return 0, false
	}
}

// Description returns a one-line description suitable for documentation and
// tool output.
func (k Kind) Description() string {
	switch k {
	case Never:
		return "no data dependence speculation: loads wait for all prior in-flight stores"
	case Always:
		return "blind speculation: loads never wait; violations squash the offending task"
	case Wait:
		return "selective speculation (perfect prediction): dependent loads wait for all prior stores"
	case PerfectSync:
		return "perfect prediction and synchronization: dependent loads wait only for their producer"
	case Sync:
		return "MDPT/MDST mechanism with up/down counter predictor"
	case ESync:
		return "MDPT/MDST mechanism with counter + producing-task PC predictor"
	default:
		return "unknown policy"
	}
}
