package store

import (
	"encoding/json"
	"errors"
	"fmt"

	"memdep/internal/multiscalar"
	"memdep/internal/window"
)

// DefaultCodecs returns the persisted kinds of the simulation stack: timing
// results, window analyses and preprocessed work items.  A warm run reads
// back the small results it prints, a few kilobytes of JSON each, and needs
// a work item only to simulate a new configuration.  The other kinds stay
// memory-only deliberately.  A program build is cheaper than reading it
// back: workload/build assembles a committed static program in
// microseconds, and synth/build generates a 20k-op program in about a tenth
// of a millisecond, where decoding and validating its JSON took over ten
// times as long.  trace/run results are intermediate products the work item
// already subsumes.
func DefaultCodecs() []Codec {
	return []Codec{
		jsonCodec[multiscalar.Result]{multiscalar.SimulateKind},
		jsonCodec[[]window.Result]{window.AnalyzeKind},
		workItemCodec{},
	}
}

// jsonCodec persists one kind's results, of type T, as JSON.  The encodings
// are pinned loss-free, PairKey map keys and fractional miss rates included,
// by multiscalar.TestResultJSONRoundTrip and TestWindowCodecRoundTrip:
// exactly the property a warm run needs to be byte-identical to a cold one.
type jsonCodec[T any] struct{ kind string }

func (c jsonCodec[T]) Kind() string { return c.kind }

func (c jsonCodec[T]) Encode(v any) ([]byte, error) {
	x, ok := v.(T)
	if !ok {
		return nil, fmt.Errorf("store: %s result is %T, want %T", c.kind, v, x)
	}
	return json.Marshal(x)
}

func (jsonCodec[T]) Decode(data []byte) (any, error) {
	var x T
	if err := json.Unmarshal(data, &x); err != nil {
		return nil, err
	}
	return x, nil
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
