package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"

	"memdep/internal/multiscalar"
	"memdep/internal/window"
)

// DefaultCodecs returns the persisted kinds of the simulation stack: timing
// results, window analyses and preprocessed work items.  A warm run reads
// back the small results it prints, a few hundred bytes each in the result
// codec, and needs a work item only to simulate a new configuration.  The
// other kinds stay memory-only deliberately.  A program build is cheaper
// than reading it back: workload/build assembles a committed static program
// in microseconds, and synth/build generates a 20k-op program in about a
// tenth of a millisecond, where decoding and validating its JSON took over
// ten times as long.  trace/run results are intermediate products the work
// item already subsumes.
func DefaultCodecs() []Codec {
	return []Codec{resultCodec, windowCodec, workItemCodec{}}
}

// The result codecs are compiled once, from the types they persist.
var (
	resultCodec = newBinCodec[multiscalar.Result](multiscalar.SimulateKind)
	windowCodec = newBinCodec[[]window.Result](window.AnalyzeKind)
)

// binCodec persists one kind's results, of type T, in a binary encoding
// compiled from T's shape by a reflect walk:
//
//   - a signed integer as a zigzag varint, an unsigned one as a varint;
//   - a float64 as its IEEE-754 bits, 8 bytes little-endian;
//   - a string as its varint length, then its bytes;
//   - an array as its elements, a struct as its fields in declaration order;
//   - a slice or a map as a varint count, 0 for nil and n+1 for n elements,
//     then its elements, a map's entries in ascending order of their
//     encoded keys.
//
// The encoding is positional: no field name is written, so a field added,
// removed, moved or retyped changes what a payload means, and
// TestResultEncodingPinned or TestWindowResultEncodingPinned fails until
// Version is bumped.  Decode accepts
// only canonical input -- minimal varints, in-range integers, strictly
// ascending map keys, no trailing bytes -- so an accepted payload re-encodes
// byte-identically (FuzzResultCodec), and anything else is an error, never
// a panic.
type binCodec[T any] struct {
	kind string
	enc  encodeFunc
	dec  decodeFunc
}

// encodeFunc appends the encoding of v to dst.
type encodeFunc func(dst []byte, v reflect.Value) []byte

// decodeFunc decodes one value from r into v, which holds a zero value or
// one that every leaf of the decode overwrites.
type decodeFunc func(r *reader, v reflect.Value) error

// newBinCodec compiles T's codec.  It panics on a type the encoding does
// not cover, which only a change to a persisted type can bring about.
func newBinCodec[T any](kind string) binCodec[T] {
	enc, dec, _ := compile(reflect.TypeFor[T]())
	return binCodec[T]{kind: kind, enc: enc, dec: dec}
}

func (c binCodec[T]) Kind() string { return c.kind }

func (c binCodec[T]) Encode(v any) ([]byte, error) {
	if _, ok := v.(T); !ok {
		return nil, fmt.Errorf("store: %s result is %T, want %s", c.kind, v, reflect.TypeFor[T]())
	}
	// A simulation result encodes to about a hundred bytes and a window
	// analysis to a few hundred: start big enough not to regrow a result.
	return c.enc(make([]byte, 0, 256), reflect.ValueOf(v)), nil
}

func (c binCodec[T]) Decode(data []byte) (any, error) {
	x := new(T)
	r := reader{data}
	if err := c.dec(&r, reflect.ValueOf(x).Elem()); err != nil {
		return nil, err
	}
	if len(r.b) != 0 {
		return nil, errTrailing
	}
	return *x, nil
}

var (
	errTruncated = errors.New("store: result payload truncated")
	errVarint    = errors.New("store: result payload holds a non-minimal or overlong varint")
	errRange     = errors.New("store: result payload holds an integer out of its field's range")
	errKeyOrder  = errors.New("store: result payload's map keys are not strictly ascending")
	errTrailing  = errors.New("store: result payload has trailing bytes")
)

// reader consumes a payload from the front.
type reader struct{ b []byte }

// uvarint reads a minimally encoded varint.
func (r *reader) uvarint() (uint64, error) {
	x, n := binary.Uvarint(r.b)
	switch {
	case n == 0:
		return 0, errTruncated
	case n < 0 || (n > 1 && r.b[n-1] == 0):
		return 0, errVarint
	}
	r.b = r.b[n:]
	return x, nil
}

// count reads a slice's or map's count: ok is false for nil, and n is at
// most the number of elements of at least minSize bytes the rest of the
// payload can hold.
func (r *reader) count(minSize int) (n int, ok bool, err error) {
	c, err := r.uvarint()
	if err != nil || c == 0 {
		return 0, false, err
	}
	if c-1 > uint64(len(r.b)/minSize) {
		return 0, false, errTruncated
	}
	return int(c - 1), true, nil
}

// compile returns the codec of t and the fewest bytes a value of t encodes
// to, which bounds the counts a decode believes.
func compile(t reflect.Type) (encodeFunc, decodeFunc, int) {
	switch t.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return func(dst []byte, v reflect.Value) []byte {
				return binary.AppendVarint(dst, v.Int())
			}, func(r *reader, v reflect.Value) error {
				u, err := r.uvarint()
				if err != nil {
					return err
				}
				x := int64(u>>1) ^ -int64(u&1) // zigzag, as binary.Varint
				if v.OverflowInt(x) {
					return errRange
				}
				v.SetInt(x)
				return nil
			}, 1
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return func(dst []byte, v reflect.Value) []byte {
				return binary.AppendUvarint(dst, v.Uint())
			}, func(r *reader, v reflect.Value) error {
				x, err := r.uvarint()
				if err != nil {
					return err
				}
				if v.OverflowUint(x) {
					return errRange
				}
				v.SetUint(x)
				return nil
			}, 1
	case reflect.Float64:
		return func(dst []byte, v reflect.Value) []byte {
				return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Float()))
			}, func(r *reader, v reflect.Value) error {
				if len(r.b) < 8 {
					return errTruncated
				}
				v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(r.b)))
				r.b = r.b[8:]
				return nil
			}, 8
	case reflect.String:
		return func(dst []byte, v reflect.Value) []byte {
				dst = binary.AppendUvarint(dst, uint64(v.Len()))
				return append(dst, v.String()...)
			}, func(r *reader, v reflect.Value) error {
				n, err := r.uvarint()
				if err != nil {
					return err
				}
				if n > uint64(len(r.b)) {
					return errTruncated
				}
				v.SetString(string(r.b[:n]))
				r.b = r.b[n:]
				return nil
			}, 1
	case reflect.Array:
		enc, dec, size := compile(t.Elem())
		n := t.Len()
		return func(dst []byte, v reflect.Value) []byte {
				for i := range n {
					dst = enc(dst, v.Index(i))
				}
				return dst
			}, func(r *reader, v reflect.Value) error {
				for i := range n {
					if err := dec(r, v.Index(i)); err != nil {
						return err
					}
				}
				return nil
			}, n * size
	case reflect.Struct:
		encs := make([]encodeFunc, t.NumField())
		decs := make([]decodeFunc, t.NumField())
		size := 0
		for i := range t.NumField() {
			if !t.Field(i).IsExported() {
				panic(fmt.Sprintf("store: cannot persist unexported field %s.%s", t, t.Field(i).Name))
			}
			var n int
			encs[i], decs[i], n = compile(t.Field(i).Type)
			size += n
		}
		return func(dst []byte, v reflect.Value) []byte {
				for i, enc := range encs {
					dst = enc(dst, v.Field(i))
				}
				return dst
			}, func(r *reader, v reflect.Value) error {
				for i, dec := range decs {
					if err := dec(r, v.Field(i)); err != nil {
						return err
					}
				}
				return nil
			}, size
	case reflect.Slice:
		enc, dec, size := compile(t.Elem())
		mustHaveSize(t, size)
		return func(dst []byte, v reflect.Value) []byte {
				if v.IsNil() {
					return append(dst, 0)
				}
				dst = binary.AppendUvarint(dst, uint64(v.Len())+1)
				for i := range v.Len() {
					dst = enc(dst, v.Index(i))
				}
				return dst
			}, func(r *reader, v reflect.Value) error {
				n, ok, err := r.count(size)
				if !ok {
					v.SetZero()
					return err
				}
				s := reflect.MakeSlice(t, n, n)
				for i := range n {
					if err := dec(r, s.Index(i)); err != nil {
						return err
					}
				}
				v.Set(s)
				return nil
			}, 1
	case reflect.Map:
		return compileMap(t)
	}
	panic(fmt.Sprintf("store: cannot persist %s values (kind %s)", t, t.Kind()))
}

// compileMap returns the codec of map type t.  Encoding writes each entry
// behind the count, then sorts the entries by their encoded keys.
func compileMap(t reflect.Type) (encodeFunc, decodeFunc, int) {
	kenc, kdec, ksize := compile(t.Key())
	venc, vdec, vsize := compile(t.Elem())
	mustHaveSize(t, ksize+vsize)
	return func(dst []byte, v reflect.Value) []byte {
			if v.IsNil() {
				return append(dst, 0)
			}
			dst = binary.AppendUvarint(dst, uint64(v.Len())+1)
			if v.Len() == 0 {
				return dst
			}
			// entry locates one encoded entry, key then value, in dst.
			type entry struct{ start, keyEnd, end int }
			entries := make([]entry, 0, v.Len())
			k, e := reflect.New(t.Key()).Elem(), reflect.New(t.Elem()).Elem()
			base := len(dst)
			for it := v.MapRange(); it.Next(); {
				k.SetIterKey(it)
				e.SetIterValue(it)
				start := len(dst)
				dst = kenc(dst, k)
				keyEnd := len(dst)
				dst = venc(dst, e)
				entries = append(entries, entry{start - base, keyEnd - base, len(dst) - base})
			}
			if len(entries) == 1 {
				return dst
			}
			written := bytes.Clone(dst[base:])
			slices.SortFunc(entries, func(a, b entry) int {
				return bytes.Compare(written[a.start:a.keyEnd], written[b.start:b.keyEnd])
			})
			dst = dst[:base]
			for _, en := range entries {
				dst = append(dst, written[en.start:en.end]...)
			}
			return dst
		}, func(r *reader, v reflect.Value) error {
			n, ok, err := r.count(ksize + vsize)
			if !ok {
				v.SetZero()
				return err
			}
			m := reflect.MakeMapWithSize(t, n)
			k, e := reflect.New(t.Key()).Elem(), reflect.New(t.Elem()).Elem()
			var prev []byte
			for i := range n {
				rest := r.b
				if err := kdec(r, k); err != nil {
					return err
				}
				key := rest[:len(rest)-len(r.b)]
				if i > 0 && bytes.Compare(prev, key) >= 0 {
					return errKeyOrder
				}
				prev = key
				if err := vdec(r, e); err != nil {
					return err
				}
				m.SetMapIndex(k, e)
			}
			v.Set(m)
			return nil
		}, 1
}

// mustHaveSize rejects a slice or map whose elements may encode to no
// bytes: nothing would bound the count a decode believes.
func mustHaveSize(t reflect.Type, elemSize int) {
	if elemSize == 0 {
		panic(fmt.Sprintf("store: cannot persist %s: its elements may encode to no bytes", t))
	}
}

// workItemCodec persists multiscalar/preprocess state in the compact binary
// work-item encoding (the dominant payload: 6-8.5 bytes per committed
// instruction, versus a functional re-run to recompute it).  The encoding
// carries no version of its own: Version covers it, and
// TestWorkItemEncodingPinned fails when it changes.
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
	return multiscalar.DecodeWorkItem(data)
}
