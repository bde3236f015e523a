package multiscalar

import (
	"fmt"
	"strings"

	"memdep/internal/arb"
	"memdep/internal/cache"
	"memdep/internal/ctrlflow"
	"memdep/internal/isa"
	"memdep/internal/memdep"
	"memdep/internal/policy"
)

// CoreMode selects the run-loop implementation of the timing simulator.
// CoreEvent is the only one a caller can name; the stepped reference loop
// is unexported, so only this package's tests can select it.
type CoreMode int

const (
	// CoreEvent (the default) advances the clock directly to the earliest
	// pending event: a task's restart cycle, a fetch or operand becoming
	// ready, a functional unit freeing up, or the head task's completion.
	CoreEvent CoreMode = iota
	// coreStepped is the reference loop: the clock advances one cycle at a
	// time and every in-flight task is polled each cycle.  It is the oracle
	// the equivalence tests compare the event-driven core against.
	coreStepped
)

// String returns the mode's name, which job cache keys print.
func (m CoreMode) String() string {
	switch m {
	case CoreEvent:
		return "event"
	case coreStepped:
		return "stepped"
	default:
		return fmt.Sprintf("CoreMode(%d)", int(m))
	}
}

// ParseCoreMode parses "event" case-insensitively (matching policy.Parse),
// the one core a caller can name.
func ParseCoreMode(s string) (CoreMode, error) {
	if !strings.EqualFold(strings.TrimSpace(s), "event") {
		return 0, fmt.Errorf("multiscalar: unknown core mode %q (want \"event\")", s)
	}
	return CoreEvent, nil
}

// Config describes one Multiscalar processor configuration and speculation
// policy.  Zero values take the defaults of section 5.2 of the paper.
type Config struct {
	// Stages is the number of processing units (4 or 8 in the paper).
	Stages int
	// Core selects the run-loop implementation (default: event-driven).
	Core CoreMode
	// Policy selects the data dependence speculation policy.
	Policy policy.Kind
	// MemDep configures the MDPT/MDST system for the SYNC and ESYNC
	// policies.  The Predictor and SyncSlots fields are overridden from the
	// policy and stage count; Entries defaults to 64.
	MemDep memdep.Config
	// IssueWidth is the per-unit issue width (2).
	IssueWidth int
	// Latencies are the functional unit latencies (Table 2).
	Latencies isa.LatencyTable
	// FUs is the per-unit functional unit mix.
	FUs isa.FUCount
	// Cache configures the memory hierarchy.
	Cache cache.Config
	// ARB configures the address resolution buffer.
	ARB arb.Config
	// Sequencer configures the task predictor, descriptor cache and RAS.
	Sequencer ctrlflow.SequencerConfig
	// RingHop is the per-hop latency of the unidirectional register ring (1).
	RingHop int
	// DispatchLatency is the cost of assigning a task to a freed unit (1).
	DispatchLatency int
	// MispredictPenalty is the extra dispatch cost charged when the
	// sequencer's next-task prediction was wrong (8).
	MispredictPenalty int
	// DescriptorMissPenalty is the extra dispatch cost of a task descriptor
	// cache miss (4).
	DescriptorMissPenalty int
	// SquashPenalty is the cost of restarting a squashed task (5).
	SquashPenalty int
	// DDCSizes optionally requests that the stream of mis-speculated static
	// pairs be fed into data dependence caches of these sizes (Table 7).
	DDCSizes []int
	// MaxCycles bounds the simulation as a safety net (default 200M).
	MaxCycles int64
}

// DefaultConfig returns the configuration of the paper for the given number
// of stages and policy.
func DefaultConfig(stages int, pol policy.Kind) Config {
	return Config{Stages: stages, Policy: pol}.withDefaults()
}

func (c Config) withDefaults() Config {
	if c.Stages <= 0 {
		c.Stages = 4
	}
	if c.IssueWidth <= 0 {
		c.IssueWidth = 2
	}
	var zeroLat isa.LatencyTable
	if c.Latencies == zeroLat {
		c.Latencies = isa.DefaultLatencies()
	}
	var zeroFU isa.FUCount
	if c.FUs == zeroFU {
		c.FUs = isa.DefaultFUCount()
	}
	if c.Cache.Units <= 0 {
		cc := c.Cache
		cc.Units = c.Stages
		c.Cache = cc
	}
	if c.ARB.Banks <= 0 {
		c.ARB = arb.DefaultConfig(c.Stages)
	}
	if c.RingHop <= 0 {
		c.RingHop = 1
	}
	if c.DispatchLatency <= 0 {
		c.DispatchLatency = 1
	}
	if c.MispredictPenalty <= 0 {
		c.MispredictPenalty = 8
	}
	if c.DescriptorMissPenalty <= 0 {
		c.DescriptorMissPenalty = 4
	}
	if c.SquashPenalty <= 0 {
		c.SquashPenalty = 5
	}
	if c.MaxCycles <= 0 {
		c.MaxCycles = 200_000_000
	}
	// Memory dependence system defaults.
	md := c.MemDep
	if md.Entries <= 0 {
		md.Entries = 64
	}
	md.SyncSlots = c.Stages
	if pk, ok := c.Policy.PredictorKind(); ok {
		md.Predictor = pk
	}
	c.MemDep = md
	return c
}

// Validate reports configuration problems.
func (c Config) Validate() error {
	d := c.withDefaults()
	if !d.Policy.Valid() {
		return fmt.Errorf("multiscalar: invalid policy %d", int(d.Policy))
	}
	if d.Core != CoreEvent && d.Core != coreStepped {
		return fmt.Errorf("multiscalar: invalid core mode %d", int(d.Core))
	}
	if d.Stages > 64 {
		return fmt.Errorf("multiscalar: %d stages is unreasonably large", d.Stages)
	}
	if err := d.MemDep.Validate(); err != nil {
		return err
	}
	return nil
}

// PredictionBreakdown counts committed loads by predicted-vs-actual
// dependence outcome, the four rows of Table 8.  Indexing is
// [predicted][actual] with 0 = no dependence, 1 = dependence.
type PredictionBreakdown [2][2]uint64

// Total returns the number of classified loads.
func (p PredictionBreakdown) Total() uint64 {
	return p[0][0] + p[0][1] + p[1][0] + p[1][1]
}

// Percent returns the percentage of loads in the given cell.
func (p PredictionBreakdown) Percent(predicted, actual int) float64 {
	t := p.Total()
	if t == 0 {
		return 0
	}
	return 100 * float64(p[predicted][actual]) / float64(t)
}

// Result summarises one simulation run.  Results escape into the engine's
// memoization cache and outlive the run that produced them: nothing stored
// in one may alias the Simulator arena's backing storage.
//
//memdep:escapes
type Result struct {
	// Benchmark is the work item name.
	Benchmark string
	// Stages and Policy echo the configuration.
	Stages int
	Policy policy.Kind

	// Cycles is the total execution time.
	Cycles int64
	// Instructions, Loads and Stores are committed counts (identical across
	// policies for the same work item).
	Instructions uint64
	Loads        uint64
	Stores       uint64
	// Tasks is the number of committed tasks.
	Tasks uint64

	// Misspeculations is the number of memory dependence violations detected
	// (each one squashes the offending task and its successors).
	Misspeculations uint64
	// Squashes is the number of task squash events (>= Misspeculations may
	// differ because one violation squashes several tasks).
	Squashes uint64
	// SquashedInstructions is the amount of issued work discarded by
	// squashes.
	SquashedInstructions uint64
	// LoadsWaited counts loads that were made to wait by the policy.
	LoadsWaited uint64
	// WaitCycles is the total number of cycles loads spent waiting.
	WaitCycles uint64
	// FalseDependenceReleases counts loads that waited for a synchronization
	// that never came and were released when all prior stores resolved.
	FalseDependenceReleases uint64
	// ARBBypasses counts memory operations that could not be tracked because
	// their ARB bank was full and proceeded unmonitored (a potential source
	// of undetected mis-speculation; the paper's configuration makes this
	// rare, but the counter keeps it observable).
	ARBBypasses uint64

	// Breakdown classifies committed loads for Table 8.
	Breakdown PredictionBreakdown

	// DDCMissRate reports, for each requested DDC size, the percentage of
	// mis-speculations whose static pair missed in the DDC (Table 7).
	DDCMissRate map[int]float64

	// MisspecPairs counts detected violations per static store→load pair
	// (diagnostic; also the input of the Table 7 DDC study).
	MisspecPairs map[memdep.PairKey]uint64

	// Subsystem statistics.
	MemDep    memdep.SystemStats
	ARB       arb.Stats
	Cache     cache.Stats
	Sequencer ctrlflow.SequencerStats
}

// IPC returns committed instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// MisspecsPerCommittedLoad returns the Table 9 metric.
func (r Result) MisspecsPerCommittedLoad() float64 {
	if r.Loads == 0 {
		return 0
	}
	return float64(r.Misspeculations) / float64(r.Loads)
}

// SpeedupOver returns the percentage speedup of r relative to base (positive
// when r is faster).
func (r Result) SpeedupOver(base Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return 100 * (float64(base.Cycles)/float64(r.Cycles) - 1)
}
