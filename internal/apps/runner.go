package apps

import (
	"fmt"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/faults"
	"atomicsmodel/internal/invariant"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/metrics"
	"atomicsmodel/internal/sim"
	"atomicsmodel/internal/stats"
)

// RunConfig parameterizes an application benchmark.
type RunConfig struct {
	Machine   *machine.Machine
	Arbiter   coherence.Arbiter // nil means FIFO
	Placement machine.Placement // nil means Compact
	Threads   int
	// Build constructs the application once the simulated memory
	// exists (apps need the memory to seed their data structures).
	Build func(eng *sim.Engine, mem *atomics.Memory) App
	// Warmup and Duration bound the run (defaults 20µs / 200µs).
	Warmup   sim.Time
	Duration sim.Time
	Seed     uint64
	// Metrics enables the per-cell observability registry (see
	// internal/metrics and workload.Config.Metrics); the snapshot lands
	// in RunResult.Metrics.
	Metrics bool
	// Check installs the online invariant checker (internal/invariant);
	// see workload.Config.Check.
	Check bool
	// Faults is this cell's simulation-layer fault plan
	// (internal/faults); nil injects nothing.
	Faults *faults.CellPlan
}

// RunResult reports an application benchmark's measurements.
type RunResult struct {
	App            string
	Threads        int
	Ops            uint64
	PerThreadOps   []uint64
	Latency        *stats.Histogram
	ThroughputMops float64
	Jain, MinMax   float64
	// Mem is the memory the app ran on, for post-run correctness
	// checks (counter values, lock data). It is excluded from the JSON
	// encoding used by the harness resume cache; table assembly must
	// not depend on it.
	Mem *atomics.Memory `json:"-"`
	// TotalOps counts operations completed over the whole run
	// including warmup, for invariant checks against app state.
	TotalOps uint64
	// Attempts counts the structure's retry-loop body executions (the
	// gating RMW issues, successful or not) over the whole run, when the
	// app reports them (RetryStats); zero otherwise. Attempts/TotalOps
	// is the measured retry factor internal/predict consumes.
	Attempts uint64 `json:"attempts,omitempty"`
	// Eliminations counts operations completed via a collision array
	// (elimination stacks); zero for other structures.
	Eliminations uint64 `json:"eliminations,omitempty"`
	// Violations counts observed mutual-exclusion breaches (RW locks;
	// must be 0); zero for other structures.
	Violations int `json:"violations,omitempty"`
	// Metrics is the per-cell metrics snapshot over the measured window
	// (nil unless RunConfig.Metrics was set).
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
}

// MetricsSnapshot exposes the cell's metrics snapshot to the harness
// (nil when metrics were off).
func (r *RunResult) MetricsSnapshot() *metrics.Snapshot { return r.Metrics }

// CellStats reports the op count for harness run manifests. Apps do
// not carry their measured window in the result, so only ops are
// reported.
func (r *RunResult) CellStats() (sim.Time, uint64) {
	return 0, r.Ops
}

// Run executes one application benchmark.
func Run(cfg RunConfig) (*RunResult, error) {
	if cfg.Machine == nil || cfg.Build == nil {
		return nil, fmt.Errorf("apps: Machine and Build are required")
	}
	if cfg.Threads <= 0 {
		return nil, fmt.Errorf("apps: Threads = %d", cfg.Threads)
	}
	if err := cfg.Machine.Validate(); err != nil {
		return nil, fmt.Errorf("apps: %w", err)
	}
	if cfg.Placement == nil {
		cfg.Placement = machine.Compact{}
	}
	if cfg.Warmup <= 0 {
		cfg.Warmup = 20 * sim.Microsecond
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 200 * sim.Microsecond
	}
	slots, err := cfg.Placement.Place(cfg.Machine, cfg.Threads)
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	mem, err := atomics.NewMemory(eng, cfg.Machine, cfg.Arbiter)
	if err != nil {
		return nil, err
	}
	app := cfg.Build(eng, mem)
	var reg *metrics.Registry
	if cfg.Metrics {
		reg = metrics.New()
	}
	mem.System().InstallMetrics(reg) // nil registry = off
	var chk *invariant.Checker
	if cfg.Check {
		chk = invariant.Install(eng, mem.System())
	}
	cfg.Faults.Install(eng, mem)

	r := &runner{
		eng:        eng,
		app:        app,
		end:        cfg.Warmup + cfg.Duration,
		perOps:     make([]uint64, cfg.Threads),
		lat:        stats.NewHistogram(),
		mThreadOps: reg.Vector(metrics.WorkThreadOps, cfg.Threads),
	}
	root := sim.NewRNG(cfg.Seed)
	for i := 0; i < cfg.Threads; i++ {
		t := r.newThread(&Thread{ID: i, Core: cfg.Machine.CoreOf(slots[i]), RNG: root.Split()})
		eng.Schedule(t.th.RNG.Duration(10*sim.Nanosecond), t.loopFn)
	}
	var procAtMeasure uint64
	eng.At(cfg.Warmup, func() {
		r.measuring = true
		procAtMeasure = eng.Processed()
		reg.Reset()
	})
	eng.Run(r.end)

	if chk != nil {
		if err := chk.Finalize(); err != nil {
			return nil, fmt.Errorf("apps: %w", err)
		}
	} else if err := mem.System().CheckInvariants(); err != nil {
		return nil, fmt.Errorf("apps: coherence invariant violated: %w", err)
	}
	res := &RunResult{
		App:            app.Name(),
		Threads:        cfg.Threads,
		Ops:            r.ops,
		PerThreadOps:   r.perOps,
		Latency:        r.lat,
		ThroughputMops: stats.Throughput(r.ops, cfg.Duration) / 1e6,
		Jain:           stats.JainIndex(r.perOps),
		MinMax:         stats.MinMaxRatio(r.perOps),
		Mem:            mem,
		TotalOps:       r.totalOps,
	}
	// Structure-specific counters ride along when the app exposes them,
	// so table assembly and the conflict model can consume them from the
	// cached cell JSON alone.
	if rs, ok := app.(RetryStats); ok {
		res.Attempts = rs.Attempts()
	}
	if es, ok := app.(interface{ Eliminations() uint64 }); ok {
		res.Eliminations = es.Eliminations()
	}
	if vs, ok := app.(interface{ Violations() int }); ok {
		res.Violations = vs.Violations()
	}
	if reg != nil {
		reg.Counter(metrics.SimEvents).Add(eng.Processed() - procAtMeasure)
		reg.Counter(metrics.SimQueuePeak).Add(uint64(eng.MaxPending()))
		res.Metrics = reg.Snapshot()
	}
	return res, nil
}

// runner is one Run's closed loop: every thread issues its next Step as
// soon as the previous one completes, until the horizon.
type runner struct {
	eng        *sim.Engine
	app        App
	end        sim.Time
	measuring  bool
	ops        uint64
	totalOps   uint64
	perOps     []uint64
	lat        *stats.Histogram
	mThreadOps *metrics.Vector
}

// runThread is one thread's loop state. Its loop and done continuations
// are built once, so issuing and completing a Step allocates nothing.
type runThread struct {
	r      *runner
	th     *Thread
	start  sim.Time
	loopFn func()
	doneFn func()
}

func (r *runner) newThread(th *Thread) *runThread {
	t := &runThread{r: r, th: th}
	t.loopFn = t.loop
	t.doneFn = t.done
	return t
}

// loop issues the thread's next Step unless the run is over.
func (t *runThread) loop() {
	r := t.r
	if r.eng.Now() >= r.end {
		return
	}
	t.start = r.eng.Now()
	r.app.Step(t.th, t.doneFn)
}

// done records a completed Step and issues the next one.
func (t *runThread) done() {
	r := t.r
	r.totalOps++
	if now := r.eng.Now(); r.measuring && now <= r.end {
		r.ops++
		r.perOps[t.th.ID]++
		r.mThreadOps.Inc(t.th.ID)
		r.lat.Record(now - t.start)
	}
	t.loop()
}
