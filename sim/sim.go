// Package sim is the public facade of the memdep simulator: a stable,
// JSON-serializable request/response API over the reproduction of "Dynamic
// Speculation and Synchronization of Data Dependences" (Moshovos, Breach,
// Vijaykumar, Sohi; ISCA 1997).
//
// The layering is deliberate:
//
//	sim (public requests, results, sessions)
//	 └── internal/engine (parallel job scheduling, memoized singleflight cache)
//	      └── internal/{workload,trace,window,multiscalar,memdep,...} (simulators)
//
// Everything below this package stays internal: the simulator packages trade
// API stability for the freedom to restructure hot paths (the event-driven
// timing core, the predictor organizations), while this package commits to a
// versioned surface that other programs -- and the cmd/memdep-server HTTP
// service -- can depend on.
//
// The entry point is a Session, which wraps one job engine and its memoized
// cache:
//
//	s := sim.NewSession()
//	res, err := s.Run(ctx, sim.Request{Bench: "compress", Stages: 8, Policy: sim.PolicyESync})
//
// Grid requests fan out through the engine's worker pool and share the
// session cache, so overlapping configurations (the same benchmark under
// several policies, for example) preprocess the workload exactly once:
//
//	results, err := s.RunGrid(ctx, requests)
//
// Every request, result and enum in this package round-trips through
// encoding/json, which is what the HTTP service serves directly.
package sim

import (
	"fmt"
	"strings"

	"memdep/internal/memdep"
	"memdep/internal/policy"
)

// Policy identifies a data dependence speculation policy by the paper's name.
// The zero value selects the session default (ESYNC).  Parsing and JSON
// decoding are case-insensitive and canonicalize to the paper's spelling.
type Policy string

// The policies of the paper's evaluation (sections 5.4 and 5.5).
const (
	// PolicyNever performs no data dependence speculation.
	PolicyNever Policy = "NEVER"
	// PolicyAlways speculates blindly; violations squash the offending task.
	PolicyAlways Policy = "ALWAYS"
	// PolicyWait is selective speculation with perfect dependence prediction.
	PolicyWait Policy = "WAIT"
	// PolicyPerfectSync is ideal speculation and synchronization.  "PERFECT-SYNC"
	// and "PERFECTSYNC" parse to the same policy.
	PolicyPerfectSync Policy = "PSYNC"
	// PolicySync is the MDPT/MDST mechanism with the up/down counter predictor.
	PolicySync Policy = "SYNC"
	// PolicyESync is the mechanism with the enhanced (counter + producing task
	// PC) predictor.
	PolicyESync Policy = "ESYNC"
)

// Policies returns every policy in the paper's presentation order.
func Policies() []Policy {
	return []Policy{PolicyNever, PolicyAlways, PolicyWait, PolicyPerfectSync, PolicySync, PolicyESync}
}

// ParsePolicy parses a policy name case-insensitively, accepting the
// long-form aliases of the perfect-synchronization oracle, and returns the
// canonical spelling.
func ParsePolicy(s string) (Policy, error) {
	k, err := policy.Parse(s)
	if err != nil {
		return "", err
	}
	return Policy(k.String()), nil
}

// String returns the canonical spelling.
func (p Policy) String() string { return string(p) }

// Description returns a one-line description of the policy.
func (p Policy) Description() string {
	k, err := p.kind()
	if err != nil {
		return "unknown policy"
	}
	return k.Description()
}

// UnmarshalText implements encoding.TextUnmarshaler: JSON decoding
// canonicalizes any spelling ParsePolicy accepts.  Unknown names are kept
// as-is and rejected by Request.Validate, so a malformed request reports
// every bad field together instead of dying on the first decode error.
func (p *Policy) UnmarshalText(text []byte) error {
	if v, err := ParsePolicy(string(text)); err == nil {
		*p = v
	} else {
		*p = Policy(text)
	}
	return nil
}

// kind converts to the internal policy enum; the empty value selects the
// default policy (ESYNC).
func (p Policy) kind() (policy.Kind, error) {
	if p == "" {
		p = PolicyESync
	}
	return policy.Parse(string(p))
}

// TableKind selects the prediction-table organization.  The zero value
// selects the session default (the paper's fully associative MDPT).
type TableKind string

// The prediction-table organizations.
const (
	// TableFullAssoc is the paper's fully associative, LRU-managed MDPT.
	TableFullAssoc TableKind = "full"
	// TableSetAssoc is the set-associative, load-PC-indexed organization.
	TableSetAssoc TableKind = "setassoc"
	// TableStoreSet is the store-set-style organization.
	TableStoreSet TableKind = "storeset"
)

// TableKinds returns every organization.
func TableKinds() []TableKind { return []TableKind{TableFullAssoc, TableSetAssoc, TableStoreSet} }

// ParseTableKind parses an organization name case-insensitively and returns
// the canonical spelling.
func ParseTableKind(s string) (TableKind, error) {
	k, err := memdep.ParseTableKind(s)
	if err != nil {
		return "", err
	}
	return TableKind(k.String()), nil
}

// String returns the canonical spelling.
func (t TableKind) String() string { return string(t) }

// UnmarshalText implements encoding.TextUnmarshaler: decoding canonicalizes
// known spellings and defers unknown ones to Request.Validate.
func (t *TableKind) UnmarshalText(text []byte) error {
	if v, err := ParseTableKind(string(text)); err == nil {
		*t = v
	} else {
		*t = TableKind(text)
	}
	return nil
}

// kind converts to the internal table enum; the empty value selects the
// fully associative default.
func (t TableKind) kind() (memdep.TableKind, error) {
	if t == "" {
		t = TableFullAssoc
	}
	return memdep.ParseTableKind(string(t))
}

// CoreMode is the type of the deprecated Request.Core field.  The
// event-driven timing core is the only one, so the field selects nothing:
// Normalize maps "", "event" and "stepped", in any case, to CoreEvent, and
// Validate rejects every other value.
type CoreMode string

// CoreEvent names the event-driven timing core.
const CoreEvent CoreMode = "event"

// valid reports whether the deprecated core field accepts the spelling.
func (m CoreMode) valid() bool {
	switch strings.ToLower(strings.TrimSpace(string(m))) {
	case "", "event", "stepped":
		return true
	}
	return false
}

// FieldError describes one invalid Request field.
type FieldError struct {
	// Field is the JSON name of the offending field.
	Field string `json:"field"`
	// Value is the rejected value, rendered as a string.
	Value string `json:"value"`
	// Msg says what is wrong with it.
	Msg string `json:"msg"`
}

// Error implements the error interface.
func (e FieldError) Error() string {
	return fmt.Sprintf("%s: %s (got %q)", e.Field, e.Msg, e.Value)
}

// ValidationError collects every invalid field of a Request.  Callers that
// want per-field detail (the HTTP service renders them as structured JSON)
// unwrap it with errors.As.
type ValidationError struct {
	// Fields lists the per-field failures, one entry per invalid field.
	Fields []FieldError `json:"fields"`
}

// Error implements the error interface.
func (e *ValidationError) Error() string {
	msgs := make([]string, len(e.Fields))
	for i, f := range e.Fields {
		msgs[i] = f.Error()
	}
	return "invalid request: " + strings.Join(msgs, "; ")
}

// errs returns nil when no field failed, so callers can `return v.errs()`.
func (e *ValidationError) errs() error {
	if len(e.Fields) == 0 {
		return nil
	}
	return e
}

func (e *ValidationError) add(field, value, msg string) {
	e.Fields = append(e.Fields, FieldError{Field: field, Value: value, Msg: msg})
}
