package store

import (
	"encoding/json"
	"errors"
	"fmt"

	"memdep/internal/multiscalar"
)

// DefaultCodecs returns the persisted kinds of the simulation stack: timing
// results and preprocessed work items.  The remaining kinds stay memory-only
// deliberately.  A program build is cheaper than reading it back:
// workload/build assembles a committed static program in microseconds, and
// synth/build generates a 20k-op program in about a tenth of a millisecond,
// where decoding and validating its JSON took over ten times as long.
// trace/run and window/analyze results are intermediate products the
// persisted kinds already subsume.
func DefaultCodecs() []Codec {
	return []Codec{resultCodec{}, workItemCodec{}}
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
