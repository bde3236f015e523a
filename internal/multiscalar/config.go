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

// The fixed machine of section 5.2 and Table 2 of the paper.  The cache
// hierarchy's and the sequencer's parameters live in internal/cache and
// internal/ctrlflow, the ARB's in arb.DefaultConfig.
const (
	// DefaultStages is the stage count of the paper's main configuration.
	DefaultStages = 8
	// issueWidth is the per-unit issue width.
	issueWidth = 2
	// ringHop is the per-hop latency of the unidirectional register ring.
	ringHop = 1
	// dispatchLatency is the cost of assigning a task to a freed unit.
	dispatchLatency = 1
	// mispredictPenalty is the extra dispatch cost charged when the
	// sequencer's next-task prediction was wrong.
	mispredictPenalty = 8
	// descriptorMissPenalty is the extra dispatch cost of a task descriptor
	// cache miss.
	descriptorMissPenalty = 4
	// squashPenalty is the cost of restarting a squashed task.
	squashPenalty = 5
	// defaultMaxCycles is the safety-net bound on a run.
	defaultMaxCycles = 200_000_000
)

// fus is the per-unit functional-unit mix of Table 2.
var fus = isa.DefaultFUCount()

// opLatency and fuOccupancy give, per op, its latency under Table 2's
// functional-unit latencies and the cycles it holds its unit: one for a
// pipelined class, the whole latency otherwise.  They are tabulated once so
// the core indexes an array per issue instead of copying the latency table
// and switching on the op's class.
var opLatency, fuOccupancy = opTables(isa.DefaultLatencies())

func opTables(lat isa.LatencyTable) (latency, occupancy [256]int64) {
	for op := range latency {
		latency[op] = int64(lat.OpLatency(isa.Op(op)))
		occupancy[op] = 1
		if !lat[isa.ClassOf(isa.Op(op))].Pipelined {
			occupancy[op] = latency[op]
		}
	}
	return latency, occupancy
}

// Config describes what the paper's evaluation varies on its one machine:
// the stage count, the speculation policy and the dependence predictor.
// Zero values take the paper's configuration.
type Config struct {
	// Stages is the number of processing units (4 or 8 in the paper;
	// default DefaultStages).
	Stages int
	// Core selects the run-loop implementation.  CoreEvent is the only one
	// a caller outside this package can name.
	Core CoreMode
	// Policy selects the data dependence speculation policy.
	Policy policy.Kind
	// MemDep configures the MDPT/MDST system for the SYNC and ESYNC
	// policies.  SyncSlots is derived from the stage count, and the policy
	// picks the Predictor unless it is memdep.PredictAlways, the
	// ALWAYS-SYNC variant the ablation runs under SYNC.
	MemDep memdep.Config
	// DDCSizes optionally requests that the stream of mis-speculated static
	// pairs be fed into data dependence caches of these sizes (Table 7).
	DDCSizes []int
	// maxCycles bounds the simulation as a safety net (default 200M).  Only
	// this package's tests lower it.
	maxCycles int64
}

// DefaultConfig returns the configuration of the paper for the given number
// of stages and policy.
func DefaultConfig(stages int, pol policy.Kind) Config {
	return Config{Stages: stages, Policy: pol}.withDefaults()
}

// withDefaults returns the complete effective configuration: the one value
// both the simulator and the job cache key consume.
func (c Config) withDefaults() Config {
	if c.Stages <= 0 {
		c.Stages = DefaultStages
	}
	if c.maxCycles <= 0 {
		c.maxCycles = defaultMaxCycles
	}
	md := c.MemDep
	md.SyncSlots = c.Stages
	if pk, ok := c.Policy.PredictorKind(); ok && md.Predictor != memdep.PredictAlways {
		md.Predictor = pk
	}
	c.MemDep = md.Effective()
	return c
}

// Validate reports configuration problems.
func (c Config) Validate() error { return c.withDefaults().validate() }

// validate checks an effective configuration.
func (c Config) validate() error {
	if !c.Policy.Valid() {
		return fmt.Errorf("multiscalar: invalid policy %d", int(c.Policy))
	}
	if c.Core != CoreEvent && c.Core != coreStepped {
		return fmt.Errorf("multiscalar: invalid core mode %d", int(c.Core))
	}
	if c.Stages > 64 {
		return fmt.Errorf("multiscalar: %d stages is unreasonably large", c.Stages)
	}
	return c.MemDep.Validate()
}

// PredictionBreakdown counts committed loads by predicted-vs-actual
// dependence outcome, the four rows of Table 8.  Indexing is
// [predicted][actual] with 0 = no dependence, 1 = dependence; it encodes to
// JSON as a nested array [[n/n, n/y], [y/n, y/y]].
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

// AvgTaskSize returns the mean dynamic task size in instructions.  Every
// task commits exactly once, so this is the work item's mean.
func (r Result) AvgTaskSize() float64 {
	if r.Tasks == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Tasks)
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
