package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"memdep/internal/isa"
	"memdep/internal/program"
	"memdep/internal/synth"
	"memdep/internal/workload"
)

// streamDigest runs p and returns a SHA-256 over every field of every
// committed DynInst, in stream order, followed by the run's Stats.
func streamDigest(t *testing.T, p *program.Program, cfg Config) string {
	t.Helper()
	h := sha256.New()
	st, err := Run(p, cfg, func(d *DynInst) bool {
		hashInst(h, d)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for _, v := range []uint64{st.Instructions, st.Loads, st.Stores, st.Branches, st.TakenBranch, st.Tasks} {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	h.Write(append(buf, b2u(st.Halted)))
	return hex.EncodeToString(h.Sum(nil))
}

func hashInst(h hash.Hash, d *DynInst) {
	var buf [80]byte
	b := binary.LittleEndian.AppendUint64(buf[:0], d.Seq)
	b = binary.LittleEndian.AppendUint64(b, uint64(d.Index))
	b = binary.LittleEndian.AppendUint64(b, d.PC)
	b = append(b, byte(d.Op))
	b = binary.LittleEndian.AppendUint64(b, d.Addr)
	b = binary.LittleEndian.AppendUint64(b, uint64(d.Value))
	b = append(b, b2u(d.Taken))
	b = binary.LittleEndian.AppendUint64(b, uint64(d.NextIndex))
	b = binary.LittleEndian.AppendUint64(b, d.TaskID)
	b = binary.LittleEndian.AppendUint64(b, d.TaskPC)
	b = append(b, b2u(d.TaskStart))
	h.Write(b)
}

func b2u(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// buildCallProgram calls a function that doubles its argument and stores
// the result to "out": a jump, a call, a register return and a store.
func buildCallProgram() *program.Program {
	b := program.NewBuilder("call")
	b.AllocWords("out", 1)
	b.Jump("main")
	b.Func("double", func() {
		b.Add(isa.RV, 4, 4)
	})
	b.Label("main")
	b.LoadImm(4, 21)
	b.Call("double")
	b.LoadAddr(9, "out")
	b.Store(isa.RV, 9, 0)
	b.Halt()
	b.SetEntry("main")
	return b.MustBuild()
}

// TestStreamDigest pins the committed stream, field for field, of three
// programs: the compress stand-in cut at 50k instructions, a 20k-op
// synthetic workload and the call/return program.  The digests were taken
// from the functional simulator that returned each record by value, before
// the machine reused one record in place: a field that leaks from one
// instruction into the next (a load's address on an ALU op, a branch's
// Taken on a store) changes the digest.
func TestStreamDigest(t *testing.T) {
	cases := []struct {
		name string
		p    *program.Program
		cfg  Config
		want string
	}{
		{"compress-50k", workload.MustGet("compress").Build(1), Config{MaxInstructions: 50_000},
			"f670d4ef4e7ac36ed5c5cd438059066d7e96a3f67c85098169767757f83233f2"},
		{"synth-20k", synth.Spec{Seed: 7, Ops: 20_000, AliasSetSize: 4}.Build(1), Config{},
			"2d5b9563413ed45721de49ba4bde94f3f9379d2e8eb57646f2821125604a58ba"},
		{"call", buildCallProgram(), Config{},
			"eaf2fca849695c81ffa2fac828976d4ddca6dbcf707e2498d6369345e2fda6ca"},
	}
	for _, c := range cases {
		if got := streamDigest(t, c.p, c.cfg); got != c.want {
			t.Errorf("%s: stream digest %s, want %s", c.name, got, c.want)
		}
	}
}
