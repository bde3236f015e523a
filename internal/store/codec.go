package store

import (
	"encoding/json"
	"errors"
	"fmt"

	"memdep/internal/multiscalar"
	"memdep/internal/program"
	"memdep/internal/synth"
)

// DefaultCodecs returns the persisted kinds of the simulation stack: timing
// results, preprocessed work items and built synthetic programs.  The
// remaining kinds stay memory-only deliberately -- workload/build assembles a
// committed static program in microseconds, and trace/run and window/analyze
// results are intermediate products the persisted kinds already subsume.
func DefaultCodecs() []Codec {
	return []Codec{resultCodec{}, workItemCodec{}, programCodec{}}
}

// resultCodec persists multiscalar/simulate results as JSON.  The encoding
// is pinned loss-free by the multiscalar JSON round-trip test (PairKey map
// keys included), which is exactly the property a warm run needs to be
// byte-identical to a cold one.
type resultCodec struct{}

func (resultCodec) Kind() string { return multiscalar.SimulateKind }

func (resultCodec) Encode(v any) ([]byte, error) {
	res, ok := v.(multiscalar.Result)
	if !ok {
		return nil, fmt.Errorf("store: %s result is %T, want multiscalar.Result", multiscalar.SimulateKind, v)
	}
	return json.Marshal(res)
}

func (resultCodec) Decode(data []byte) (any, error) {
	var res multiscalar.Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, err
	}
	return res, nil
}

// workItemCodec persists multiscalar/preprocess state in the compact binary
// work-item encoding (the dominant payload: 6-8.5 bytes per committed
// instruction, versus a functional re-run to recompute it).  A payload in
// another work-item format version is stale, not corrupt: Load counts it as
// a miss, like an envelope of another schema version.
type workItemCodec struct{}

func (workItemCodec) Kind() string { return multiscalar.PreprocessKind }

func (workItemCodec) Encode(v any) ([]byte, error) {
	w, ok := v.(*multiscalar.WorkItem)
	if !ok {
		return nil, fmt.Errorf("store: %s result is %T, want *multiscalar.WorkItem", multiscalar.PreprocessKind, v)
	}
	return multiscalar.AppendWorkItem(nil, w), nil
}

func (workItemCodec) Decode(data []byte) (any, error) {
	w, err := multiscalar.DecodeWorkItem(data)
	if errors.Is(err, multiscalar.ErrWorkItemVersion) {
		return nil, fmt.Errorf("%w: %w", errWrongVersion, err)
	}
	return w, err
}

// programCodec persists synth/build programs as JSON (every Program field is
// exported, and map keys marshal deterministically).  Decoded programs are
// re-validated: a payload that passes its checksum but fails structural
// validation is treated as corrupt rather than handed to the simulator.
type programCodec struct{}

func (programCodec) Kind() string { return synth.BuildKind }

func (programCodec) Encode(v any) ([]byte, error) {
	p, ok := v.(*program.Program)
	if !ok {
		return nil, fmt.Errorf("store: %s result is %T, want *program.Program", synth.BuildKind, v)
	}
	return json.Marshal(p)
}

func (programCodec) Decode(data []byte) (any, error) {
	p := &program.Program{}
	if err := json.Unmarshal(data, p); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
