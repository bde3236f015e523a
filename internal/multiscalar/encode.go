package multiscalar

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"memdep/internal/isa"
)

// workItemVersion versions the binary WorkItem encoding below.  Bump it
// whenever the wire layout or the meaning of a field changes; the persistent
// store reads a version mismatch as an expected invalidation (a cache miss),
// so readers of an older format simply recompute.
const workItemVersion = 2

// ErrWorkItemVersion reports an encoding written under another format
// version.  DecodeWorkItem wraps it, so callers can tell a stale encoding
// (recompute and rewrite) from a corrupt one.
var ErrWorkItemVersion = errors.New("multiscalar: work-item encoding version mismatch")

// memProdFlag marks an encoded load that carries a memory producer.
const memProdFlag = 1

// AppendWorkItem appends a compact binary encoding of w to dst and returns
// the extended slice.  The encoding stores only the irreducible fields of the
// preprocessed stream -- task boundaries, per-instruction op/pc/address and
// the resolved register and memory producers; everything Preprocess derives
// (instruction classes, source counts, load ordinals, address ids, per-task
// and global op counts) is reconstructed by DecodeWorkItem, so the two can
// never disagree.
//
// Format version 2, every integer a uvarint unless marked otherwise:
//
//	version (2)
//	name length, name bytes
//	instruction count, task count
//	per task:        pc, instruction count (>= 1)
//	per instruction: op (byte), flags (byte; bit 0: memory producer follows)
//	                 pc, address
//	                 one producer delta per register source
//	                 if flagged (loads only): producer delta, task delta
//
// Instructions are numbered globally in stream order.  A producer delta is
// self - producer, so producers only ever point backwards and 0 means "no
// producer".  The task delta is the load's task minus the producing store's
// task.  The header counts let the decoder allocate the work item once.
func AppendWorkItem(dst []byte, w *WorkItem) []byte {
	// The paper and synthetic workloads encode in 5.7-8.5 bytes per
	// instruction, so one allocation almost always suffices.
	dst = slices.Grow(dst, 32+len(w.Name)+4*len(w.tasks)+10*len(w.insts))
	dst = binary.AppendUvarint(dst, workItemVersion)
	dst = binary.AppendUvarint(dst, uint64(len(w.Name)))
	dst = append(dst, w.Name...)
	dst = binary.AppendUvarint(dst, uint64(len(w.insts)))
	dst = binary.AppendUvarint(dst, uint64(len(w.tasks)))
	for ti := range w.tasks {
		t := &w.tasks[ti]
		dst = binary.AppendUvarint(dst, t.pc)
		dst = binary.AppendUvarint(dst, uint64(t.end-t.start))
		for self := t.start; self < t.end; self++ {
			r := &w.insts[self]
			var flags byte
			if r.memProd >= 0 {
				flags = memProdFlag
			}
			dst = append(dst, byte(r.op), flags)
			dst = binary.AppendUvarint(dst, r.pc)
			dst = binary.AppendUvarint(dst, r.addr)
			for s := 0; s < int(r.nSrc); s++ {
				dst = binary.AppendUvarint(dst, prodDelta(self, r.src[s]))
			}
			if flags != 0 {
				dst = binary.AppendUvarint(dst, prodDelta(self, r.memProd))
				dst = binary.AppendUvarint(dst, uint64(int32(ti)-r.memTask))
			}
		}
	}
	return dst
}

// prodDelta encodes a producer of instruction self as self - producer, with
// 0 for "no producer".
func prodDelta(self, prod int32) uint64 {
	if prod < 0 {
		return 0
	}
	return uint64(self - prod)
}

// wiReader is a bounds-checked cursor over an encoded WorkItem; the first
// failed read latches err and every later read returns zero, so the decode
// loop stays linear instead of threading errors through every call.
type wiReader struct {
	data []byte
	off  int
	err  error
}

func (d *wiReader) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *wiReader) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail("multiscalar: truncated uvarint at offset %d", d.off)
		return 0
	}
	// Only the shortest form is accepted, so a decoded item has exactly one
	// encoding.
	if n > 1 && d.data[d.off+n-1] == 0 {
		d.fail("multiscalar: overlong uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *wiReader) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.data) {
		d.fail("multiscalar: truncated byte at offset %d", d.off)
		return 0
	}
	b := d.data[d.off]
	d.off++
	return b
}

func (d *wiReader) bytes(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.data)-d.off) {
		d.fail("multiscalar: %d-byte field exceeds the %d remaining bytes", n, len(d.data)-d.off)
		return nil
	}
	b := d.data[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// producer reads the producer delta of instruction self.  A producer must
// precede its consumer, so a delta larger than self is the one invalid case.
func (d *wiReader) producer(self int32) int32 {
	delta := d.uvarint()
	switch {
	case delta == 0:
		return -1
	case delta > uint64(self):
		d.fail("multiscalar: producer delta %d does not precede instruction %d", delta, self)
		return -1
	}
	return self - int32(delta)
}

// DecodeWorkItem decodes an AppendWorkItem encoding.  It never panics on
// malformed input: the header counts are capped against the input size
// before the one allocation, every producer must precede its consumer, a
// memory producer must be a store to the load's address inside the task the
// encoding names, and any violation returns an error.  An encoding of another
// format version returns an error wrapping ErrWorkItemVersion.  Derived state
// (classes, source counts, load ordinals, address ids, op counts) is
// recomputed exactly as Preprocess computes it; address ids borrow
// Preprocess's pooled address numbering, so a warm decode allocates only the
// work item.
func DecodeWorkItem(data []byte) (*WorkItem, error) {
	d := &wiReader{data: data}
	if v := d.uvarint(); d.err == nil && v != workItemVersion {
		return nil, fmt.Errorf("%w: encoding version %d, want %d", ErrWorkItemVersion, v, workItemVersion)
	}
	name := string(d.bytes(d.uvarint()))
	numInsts, numTasks := d.uvarint(), d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	// An instruction costs at least four bytes on the wire.
	if numInsts > uint64(len(data)-d.off)/4 || numInsts > math.MaxInt32 {
		return nil, fmt.Errorf("multiscalar: instruction count %d exceeds the input size", numInsts)
	}
	if numTasks == 0 || numTasks > numInsts {
		return nil, fmt.Errorf("multiscalar: %d tasks for %d instructions", numTasks, numInsts)
	}
	w := &WorkItem{
		Name:         name,
		Instructions: numInsts,
		insts:        make([]inst, numInsts),
		tasks:        make([]task, numTasks),
	}
	b := prepPool.Get().(*prepScratch)
	defer prepPool.Put(b)
	b.Reset()
	self := int32(0)
	for ti := range w.tasks {
		t := &w.tasks[ti]
		t.pc = d.uvarint()
		n := d.uvarint()
		if d.err != nil {
			return nil, d.err
		}
		if n == 0 || n > numInsts-uint64(self) {
			return nil, fmt.Errorf("multiscalar: task %d claims %d of the %d remaining instructions",
				ti, n, numInsts-uint64(self))
		}
		t.start, t.end = self, self+int32(n)
		for ; self < t.end && d.err == nil; self++ {
			op := isa.Op(d.byte())
			flags := d.byte()
			if d.err != nil {
				break
			}
			if !op.Valid() {
				return nil, fmt.Errorf("multiscalar: invalid op %d at instruction %d", op, self)
			}
			if flags&^byte(memProdFlag) != 0 || (flags != 0 && !isa.IsLoad(op)) {
				return nil, fmt.Errorf("multiscalar: invalid flags %#x for %v at instruction %d", flags, op, self)
			}
			r := &w.insts[self]
			*r = inst{
				op:      op,
				class:   isa.ClassOf(op),
				pc:      d.uvarint(),
				addr:    d.uvarint(),
				src:     [2]int32{-1, -1},
				memProd: -1,
				memTask: -1,
			}
			// The source count is a function of the opcode, exactly as
			// Preprocess derives it from the static instruction.
			_, nSrc := isa.Instruction{Op: op}.Uses()
			r.nSrc = uint8(nSrc)
			for s := 0; s < nSrc; s++ {
				r.src[s] = d.producer(self)
			}
			switch {
			case isa.IsLoad(op):
				r.flags = flagLoad
				r.loadOrd = t.loads
				t.loads++
				w.Loads++
				if flags == 0 {
					r.addrID = b.id(r.addr)
				} else {
					if err := d.memProducer(w, int32(ti), self); err != nil {
						return nil, err
					}
					// The producer stored to this address, so it is numbered.
					r.addrID = w.insts[r.memProd].addrID
				}
			case isa.IsStore(op):
				r.flags = flagStore
				r.addrID = b.id(r.addr)
				t.stores++
				w.Stores++
			}
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(data) {
		return nil, fmt.Errorf("multiscalar: %d trailing bytes after the work item", len(data)-d.off)
	}
	if uint64(self) != numInsts {
		return nil, fmt.Errorf("multiscalar: tasks cover %d of %d instructions", self, numInsts)
	}
	w.addrs = len(b.ids)
	return w, nil
}

// memProducer reads and validates the memory producer of load self in task
// ti: an earlier store to the same address, inside the task the encoding
// names.
func (d *wiReader) memProducer(w *WorkItem, ti, self int32) error {
	prod := d.producer(self)
	taskDelta := d.uvarint()
	if d.err != nil {
		return d.err
	}
	if prod < 0 {
		return fmt.Errorf("multiscalar: memory producer flagged but absent at instruction %d", self)
	}
	if taskDelta > uint64(ti) {
		return fmt.Errorf("multiscalar: memory producer task delta %d precedes the first task", taskDelta)
	}
	pt := ti - int32(taskDelta)
	r, p := &w.insts[self], &w.insts[prod]
	if prod < w.tasks[pt].start || prod >= w.tasks[pt].end || !p.isStore() || p.addr != r.addr {
		return fmt.Errorf("multiscalar: memory producer %d of instruction %d is not a store to %#x in task %d",
			prod, self, r.addr, pt)
	}
	r.memProd, r.memTask = prod, pt
	return nil
}
