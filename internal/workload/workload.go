// Package workload implements the paper's two benchmark settings — the
// high-contention setting (all threads hammer one shared cache line)
// and the low-contention setting (each thread works on private lines) —
// plus a read/write-mix variant, as closed-loop simulated workloads:
// each simulated thread repeatedly performs optional local work and one
// atomic primitive, and the harness measures latency, throughput,
// per-thread fairness, and energy over a warmed-up window.
//
// In the model pipeline (ARCHITECTURE.md) this package is the main
// benchmark driver: it assembles a machine description, a fresh
// simulation engine and an atomics.Memory into one measured cell, the
// simulated realization of the closed system MODEL.md §2 models
// analytically (§5 for the open-loop variant). Config.Metrics switches
// on the per-cell observability registry (internal/metrics).
package workload

import (
	"fmt"
	"reflect"
	"sync"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/energy"
	"atomicsmodel/internal/faults"
	"atomicsmodel/internal/invariant"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/metrics"
	"atomicsmodel/internal/sim"
	"atomicsmodel/internal/stats"
)

// Mode selects the contention setting.
type Mode uint8

const (
	// HighContention: every thread targets the same line(s).
	HighContention Mode = iota
	// LowContention: every thread targets its own private lines.
	LowContention
	// ReadWriteMix: threads read a shared line with probability
	// ReadFraction and otherwise perform the RMW primitive on it.
	ReadWriteMix
)

func (m Mode) String() string {
	switch m {
	case HighContention:
		return "high-contention"
	case LowContention:
		return "low-contention"
	case ReadWriteMix:
		return "read-write-mix"
	}
	return "unknown"
}

// ParseMode resolves a mode display name (the String form) — the
// inverse modes round-trip through JSON workload specs by. The
// out-of-range placeholder "unknown" is not a mode and is rejected
// like any other misspelling.
func ParseMode(name string) (Mode, error) {
	for m := HighContention; m <= ReadWriteMix; m++ {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown mode %q (want %q, %q or %q)",
		name, HighContention, LowContention, ReadWriteMix)
}

// Config parameterizes one run.
type Config struct {
	Machine   *machine.Machine
	Arbiter   coherence.Arbiter // nil means FIFO
	Placement machine.Placement // nil means Compact
	Threads   int
	Primitive atomics.Primitive
	Mode      Mode
	// LocalWork is think time between operations (the paper's knob that
	// moves a workload from high to low contention). Zero means
	// back-to-back operations.
	LocalWork sim.Time
	// WorkJitter draws think times from an exponential distribution
	// with mean LocalWork instead of a constant.
	WorkJitter bool
	// Lines is how many lines each contention group uses: shared lines
	// in HighContention mode (default 1), private lines per thread in
	// LowContention mode (default 16).
	Lines int
	// ReadFraction applies in ReadWriteMix mode.
	ReadFraction float64
	// Warmup and Duration bound the run; only operations completing in
	// [Warmup, Warmup+Duration] are measured. Defaults: 20µs / 200µs.
	Warmup   sim.Time
	Duration sim.Time
	Seed     uint64
	// CASRetryLoop makes CAS threads retry until success (the lock-free
	// update loop) rather than counting each blind attempt as one op.
	// Either way failed attempts are recorded as failures.
	CASRetryLoop bool
	// OpenLoop switches from the closed-loop (issue, wait, think,
	// repeat) pattern to an open-loop arrival process: each thread
	// issues operations at exponentially distributed inter-arrival
	// times with mean OpenLoopInterarrival, without waiting for
	// completions. Past the line's saturation point the latency grows
	// without bound — the knee the model places at 1/serviceTime.
	OpenLoop bool
	// OpenLoopInterarrival is the per-thread mean inter-arrival time
	// (required when OpenLoop is set).
	OpenLoopInterarrival sim.Time
	// Metrics enables the per-cell observability registry: coherence
	// transfer/invalidation/queue-depth instruments, engine counters,
	// and the workload's own retry and per-thread counters, snapshotted
	// over the measured window into Result.Metrics. Off (the default)
	// costs one nil check per instrumented site and changes no results.
	Metrics bool
	// Check installs the online invariant checker (internal/invariant)
	// on this cell's engine and coherence system; a violation fails the
	// run with a deterministic report. Off (the default) costs one nil
	// check per audited site and changes no results.
	Check bool
	// Faults is this cell's simulation-layer fault plan
	// (internal/faults); nil (the default) injects nothing.
	Faults *faults.CellPlan
}

func (c *Config) fillDefaults() error {
	if c.Machine == nil {
		return fmt.Errorf("workload: Machine is required")
	}
	if err := c.Machine.Validate(); err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	if c.Threads <= 0 {
		return fmt.Errorf("workload: Threads = %d", c.Threads)
	}
	if c.Placement == nil {
		c.Placement = machine.Compact{}
	}
	if c.Lines <= 0 {
		if c.Mode == LowContention {
			c.Lines = 16
		} else {
			c.Lines = 1
		}
	}
	if c.Warmup <= 0 {
		c.Warmup = 20 * sim.Microsecond
	}
	if c.Duration <= 0 {
		c.Duration = 200 * sim.Microsecond
	}
	if c.Mode == ReadWriteMix && (c.ReadFraction < 0 || c.ReadFraction > 1) {
		return fmt.Errorf("workload: ReadFraction %v out of [0,1]", c.ReadFraction)
	}
	if c.Mode != ReadWriteMix && c.ReadFraction != 0 {
		return fmt.Errorf("workload: ReadFraction %v has no effect in %s mode", c.ReadFraction, c.Mode)
	}
	if c.OpenLoop {
		if c.OpenLoopInterarrival <= 0 {
			return fmt.Errorf("workload: OpenLoop requires a positive OpenLoopInterarrival")
		}
		if c.CASRetryLoop {
			return fmt.Errorf("workload: OpenLoop and CASRetryLoop are mutually exclusive")
		}
	} else if c.OpenLoopInterarrival != 0 {
		return fmt.Errorf("workload: OpenLoopInterarrival %v has no effect without OpenLoop", c.OpenLoopInterarrival)
	}
	return nil
}

// Result reports one run's measurements. Everything the harness
// renders from a Result survives a JSON round trip byte-exactly — the
// experiment resume cache depends on it. Config is deliberately
// excluded (it holds the machine and interface-typed knobs); table
// assembly must not read it back out of a Result.
type Result struct {
	Config Config `json:"-"`
	// Ops counts successful operations completed in the measured
	// window (failed CAS attempts are not ops).
	Ops uint64
	// Attempts counts all completed primitives including failed CAS.
	Attempts uint64
	// Failures counts failed CAS attempts.
	Failures uint64
	// PerThreadOps is successful ops per logical thread, for fairness.
	PerThreadOps []uint64
	// Latency is the distribution of per-attempt latencies. For CAS
	// retry loops, SuccessLatency additionally measures read-to-success
	// spans (the cost of getting one update done).
	Latency        *stats.Histogram
	SuccessLatency *stats.Histogram
	// MeasuredFor is the measurement window length.
	MeasuredFor sim.Time
	// ThroughputMops is successful ops per second, in millions.
	ThroughputMops float64
	// Fairness metrics over PerThreadOps.
	Jain, CoV, MinMax float64
	// Energy is the energy report for the measured window.
	Energy energy.Report
	// Coh is the coherence counter delta for the measured window.
	Coh coherence.Stats
	// Metrics is the per-cell metrics snapshot over the measured window
	// (nil unless Config.Metrics was set). It rides the JSON encoding,
	// so cached cells replay it byte-identically on resume.
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
}

// MetricsSnapshot exposes the cell's metrics snapshot to the harness
// (nil when metrics were off). It implements the interface the cell
// scheduler uses to deliver snapshots to a MetricsCollector.
func (r *Result) MetricsSnapshot() *metrics.Snapshot { return r.Metrics }

// CellStats reports the simulated window and op count for run
// manifests (harness cell records).
func (r *Result) CellStats() (sim.Time, uint64) {
	return r.MeasuredFor, r.Ops
}

// SuccessRate returns Ops/Attempts (1 when there were no attempts).
func (r *Result) SuccessRate() float64 {
	if r.Attempts == 0 {
		return 1
	}
	return float64(r.Ops) / float64(r.Attempts)
}

// thread is one simulated worker.
type thread struct {
	id   int
	core int
	rng  *sim.RNG
	// lines this thread operates on (shared or private per Mode), in
	// rotation: issued counts the operations issued this run, so
	// lines[issued%len(lines)] is the next one.
	lines  []coherence.LineID
	issued int
	// lastSeen drives the CAS expected value.
	lastSeen uint64
	// issuedAt is when the thread's latest operation was issued; the
	// contention-free fast-forward fingerprints it (fastforward.go).
	issuedAt sim.Time
	// spanStart marks the start of the current CAS retry span.
	spanStart sim.Time
	inSpan    bool
	// expected is the CAS expected value captured at issue time, read by
	// the prebaked casDone callback. Valid in closed-loop runs, where a
	// thread has at most one operation in flight.
	expected uint64
	// Prebaked per-thread callbacks, built once when the thread object is
	// created (thread objects live as long as their pooled runner) so the
	// hot issue/complete loop does not allocate a closure per operation.
	opDone    func(atomics.Result)
	casDone   func(atomics.Result)
	operateFn func()
	stepFn    func()
}

type runner struct {
	cfg   Config
	eng   *sim.Engine
	mem   *atomics.Memory
	meter *energy.Meter

	// threads holds every thread object ever built for this runner;
	// a run uses the first cfg.Threads of them. Thread objects (and
	// their prebaked closures) survive pooling.
	threads   []*thread
	measuring bool
	endAt     sim.Time

	ops      uint64
	attempts uint64
	failures uint64
	perOps   []uint64
	lat      *stats.Histogram
	slat     *stats.Histogram

	// Measurement-window baselines captured by warmupFn.
	cohAtMeasure  coherence.Stats
	procAtMeasure uint64
	qtAtMeasure   sim.Time
	warmupFn      func()
	// root seeds the per-thread RNG streams; coreSeen is scratch for
	// counting distinct cores. Both are reused across runs.
	root     *sim.RNG
	coreSeen []bool
	// traceFn is the meter's Observe bound once at build time; taking
	// the method value per run would allocate a closure per cell.
	traceFn func(coherence.TraceEvent)

	// Steady-state cycle memoizer (fastforward.go). memoMode is the
	// per-run eligibility verdict (ffOff when disarmed); probeFn and
	// traceRecFn are the prebaked engine idle hook and recording tracer.
	memo       memoState
	memoMode   int
	probeFn    func()
	traceRecFn func(coherence.TraceEvent)
	// Placement cache: sweeps run many cells with the same policy and
	// thread count on one machine, so the slot assignment (a pure
	// function of those) is reused instead of recomputed.
	lastPlacement machine.Placement
	lastThreads   int
	lastSlots     []int

	// Optional metrics instruments (nil when Config.Metrics is off; all
	// operations on them are nil-safe no-ops).
	reg        *metrics.Registry
	mThreadOps *metrics.Vector
	mFailures  *metrics.Counter
	mReads     *metrics.Counter
	mRMWs      *metrics.Counter
}

// cellPools recycles runners per machine description (keyed by the
// *machine.Machine pointer, because the coherence parameters and dense
// topology tables baked into a pooled system are machine-specific).
// Acquiring a pooled runner resets its engine, memory, and meter to
// their just-built state, so a reused cell is byte-identical to a fresh
// one — teardown is a handful of pointer resets instead of discarding
// the event queues, request pools, directory entries, and thread
// closures to the GC. This is what holds steady-state cells at zero
// allocations on the simulation path.
//
// A plain mutex-guarded freelist rather than sync.Pool: the runtime
// clears sync.Pool contents on GC cycles, which would silently discard
// warmed-up cells mid-sweep and re-pay the full build cost. The
// freelist is bounded by the peak number of concurrent cells per
// machine, which the parallel scheduler already caps at GOMAXPROCS.
var cellPools sync.Map // *machine.Machine -> *runnerPool

type runnerPool struct {
	mu   sync.Mutex
	free []*runner
}

func acquireRunner(m *machine.Machine) (*runner, error) {
	pi, ok := cellPools.Load(m)
	if !ok {
		pi, _ = cellPools.LoadOrStore(m, &runnerPool{})
	}
	p := pi.(*runnerPool)
	p.mu.Lock()
	var r *runner
	if n := len(p.free); n > 0 {
		r = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	if r != nil {
		r.eng.Reset()
		r.mem.Reset()
		r.meter.Reset()
		return r, nil
	}
	return newRunner(m)
}

func releaseRunner(m *machine.Machine, r *runner) {
	if pi, ok := cellPools.Load(m); ok {
		p := pi.(*runnerPool)
		p.mu.Lock()
		p.free = append(p.free, r)
		p.mu.Unlock()
	}
}

// engineShardOverride, when nonzero, replaces the topology-derived
// event-queue shard count for newly built runners (see SetEngineShards).
var engineShardOverride int

// SetEngineShards forces every subsequently built cell engine to n
// event-queue shards (0 restores the topology-derived default) and
// drops all pooled runners, which were built with the old layout. It is
// a test hook: the determinism suite uses it to prove cell results are
// invariant to the shard count.
func SetEngineShards(n int) {
	engineShardOverride = n
	cellPools.Range(func(k, _ any) bool {
		cellPools.Delete(k)
		return true
	})
}

// newRunner builds the per-cell simulation state for machine m: the
// sharded engine (one queue shard per topology node, so a line's
// completion traffic stays in its home directory's shard), the memory
// with its coherence system, and the energy meter.
func newRunner(m *machine.Machine) (*runner, error) {
	shards := m.CoherenceParams().Topo.Nodes()
	if engineShardOverride > 0 {
		shards = engineShardOverride
	}
	eng := sim.NewEngineSharded(shards)
	mem, err := atomics.NewMemory(eng, m, nil)
	if err != nil {
		return nil, err
	}
	r := &runner{eng: eng, mem: mem, meter: energy.NewMeter(m), root: sim.NewRNG(0)}
	r.traceFn = r.meter.Observe
	r.warmupFn = func() {
		r.measuring = true
		r.meter.Reset()
		r.cohAtMeasure = r.mem.System().Stats()
		r.procAtMeasure = r.eng.Processed()
		r.qtAtMeasure = r.eng.QueueTimeIntegral()
		// Zero the instruments so the snapshot, like every other
		// reported number, covers exactly the measured window.
		r.reg.Reset()
		if r.memoMode != ffOff {
			// Arm the cycle memoizer for the measured window: the
			// marker has fired, so the queue holds only the schedule's
			// own completions (one in grant mode, one per thread in
			// contention-free mode), and this probe sits mid-service at
			// the warmup boundary, a phase the cycle never revisits
			// (skip = 1).
			r.memoArm(r.memoCompletions(), 1, r.endAt)
		}
	}
	r.probeFn = r.probe
	r.traceRecFn = func(ev coherence.TraceEvent) {
		switch r.memo.phase {
		case memoRecord:
			r.memo.evsA = append(r.memo.evsA, ev)
		case memoVerify:
			r.memo.evsB = append(r.memo.evsB, ev)
		}
		r.meter.Observe(ev)
	}
	return r, nil
}

// placeThreads resolves thread placement, reusing the previous run's
// slot assignment when the policy and thread count repeat (placement is
// a pure function of machine, policy, and count; the machine is fixed
// by the pool key).
func (r *runner) placeThreads(cfg *Config) ([]int, error) {
	if r.lastSlots != nil && r.lastThreads == cfg.Threads && placementEqual(r.lastPlacement, cfg.Placement) {
		return r.lastSlots, nil
	}
	slots, err := cfg.Placement.Place(cfg.Machine, cfg.Threads)
	if err != nil {
		return nil, err
	}
	r.lastPlacement, r.lastThreads, r.lastSlots = cfg.Placement, cfg.Threads, slots
	return slots, nil
}

// placementEqual reports whether two placement values are the same
// policy, without panicking on uncomparable dynamic types.
func placementEqual(a, b machine.Placement) bool {
	ta := reflect.TypeOf(a)
	if ta == nil || ta != reflect.TypeOf(b) || !ta.Comparable() {
		return false
	}
	return a == b
}

// ensureThreads grows the runner's thread set to n objects, building
// each new thread's prebaked callbacks exactly once.
func (r *runner) ensureThreads(n int) {
	for len(r.threads) < n {
		th := &thread{id: len(r.threads)}
		th.opDone = func(res atomics.Result) { r.complete(th, res, true) }
		th.casDone = func(res atomics.Result) {
			th.lastSeen = res.Old
			if res.OK {
				th.lastSeen = th.expected + 1
			}
			r.complete(th, res, res.OK)
		}
		th.operateFn = func() { r.operate(th) }
		th.stepFn = func() { r.step(th) }
		r.threads = append(r.threads, th)
	}
}

// Run executes one configured workload and returns its measurements.
func Run(cfg Config) (*Result, error) { return RunReusing(cfg, nil) }

// RunReusing is Run with an optional recycled Result: when recycle is
// non-nil, its PerThreadOps slice and Latency/SuccessLatency histograms
// are emptied and reused instead of freshly allocated, and the returned
// pointer is recycle itself. The caller must own recycle outright —
// harness tables and the resume cache retain Results, so anything that
// outlives the call must use Run. Benchmarks use RunReusing to measure
// the simulation itself at zero allocations per cell.
func RunReusing(cfg Config, recycle *Result) (*Result, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	r, err := acquireRunner(cfg.Machine)
	if err != nil {
		return nil, err
	}
	slots, err := r.placeThreads(&cfg)
	if err != nil {
		return nil, err
	}
	eng, mem := r.eng, r.mem
	mem.System().SetArbiter(cfg.Arbiter)
	mem.System().SetTracer(r.traceFn)
	var reg *metrics.Registry
	if cfg.Metrics {
		reg = metrics.New()
	}
	r.reg = reg
	mem.System().InstallMetrics(reg) // nil registry = off
	var chk *invariant.Checker
	if cfg.Check {
		chk = invariant.Install(eng, mem.System())
	}
	cfg.Faults.Install(eng, mem)

	r.cfg = cfg
	r.measuring = false
	r.endAt = cfg.Warmup + cfg.Duration
	r.memo.phase = memoOff
	r.memoMode = ffOff
	if fastForwardOn {
		r.memoMode = memoEligible(&cfg)
	}
	if r.memoMode != ffOff {
		// Pre-warmup pass: the warmup marker is still pending alongside
		// the schedule's completions and bounds the jump; skip past the
		// startup convoy and the cold-miss fill (about one rotation)
		// before fingerprinting — a capture taken too early just fails
		// its bounded search and is retaken.
		r.memoArm(r.memoCompletions()+1, cfg.Threads+4, cfg.Warmup)
	}
	r.ops, r.attempts, r.failures = 0, 0, 0
	r.cohAtMeasure = coherence.Stats{}
	r.procAtMeasure = 0
	r.qtAtMeasure = 0
	r.mThreadOps = reg.Vector(metrics.WorkThreadOps, cfg.Threads)
	r.mFailures = reg.Counter(metrics.WorkCASFailures)
	r.mReads = reg.Counter(metrics.WorkReads)
	r.mRMWs = reg.Counter(metrics.WorkRMWs)

	// Measurement buffers escape into the Result, so they are fresh
	// unless the caller handed back a recycled Result to reuse.
	if recycle != nil && cap(recycle.PerThreadOps) >= cfg.Threads {
		r.perOps = recycle.PerThreadOps[:cfg.Threads]
		for i := range r.perOps {
			r.perOps[i] = 0
		}
	} else {
		r.perOps = make([]uint64, cfg.Threads)
	}
	if recycle != nil && recycle.Latency != nil {
		r.lat = recycle.Latency
		r.lat.Reset()
	} else {
		r.lat = stats.NewHistogram()
	}
	if recycle != nil && recycle.SuccessLatency != nil {
		r.slat = recycle.SuccessLatency
		r.slat.Reset()
	} else {
		r.slat = stats.NewHistogram()
	}

	r.ensureThreads(cfg.Threads)
	r.root.Reseed(cfg.Seed)
	for i := 0; i < cfg.Threads; i++ {
		th := r.threads[i]
		th.core = cfg.Machine.CoreOf(slots[i])
		if th.rng == nil {
			th.rng = r.root.Split()
		} else {
			r.root.SplitInto(th.rng)
		}
		th.issued, th.lastSeen, th.expected = 0, 0, 0
		th.issuedAt, th.spanStart, th.inSpan = 0, 0, false
		r.linesFor(th, i)
	}

	// Stagger thread starts by a few ns so the initial convoy is not an
	// artifact of simultaneous issue. Open-loop threads instead run an
	// arrival process that issues without waiting for completions.
	for _, th := range r.threads[:cfg.Threads] {
		th := th
		if cfg.OpenLoop {
			// The closure reads the interarrival through r.cfg rather
			// than cfg so that cfg (a large struct) is not captured —
			// capturing it would force the whole Config to the heap on
			// every call, open-loop or not.
			var arrive func()
			arrive = func() {
				if eng.Now() >= r.endAt {
					return
				}
				r.operate(th)
				eng.Schedule(th.rng.Exp(r.cfg.OpenLoopInterarrival), arrive)
			}
			eng.Schedule(th.rng.Exp(r.cfg.OpenLoopInterarrival), arrive)
			continue
		}
		eng.Schedule(th.rng.Duration(10*sim.Nanosecond), th.stepFn)
	}

	eng.At(cfg.Warmup, r.warmupFn)

	eng.Run(r.endAt)

	if r.memoMode != ffOff {
		// The run may have ended mid-recording; put the plain tracer
		// back before the runner returns to the pool.
		mem.System().SetTracer(r.traceFn)
		eng.SetIdleHook(nil)
	}

	if chk != nil {
		// Finalize subsumes CheckInvariants and adds the online ledgers.
		if err := chk.Finalize(); err != nil {
			return nil, fmt.Errorf("workload: %w", err)
		}
	} else if err := mem.System().CheckInvariants(); err != nil {
		return nil, fmt.Errorf("workload: coherence invariant violated: %w", err)
	}

	cohEnd := mem.System().Stats()
	numCores := mem.System().Params().NumCores
	if cap(r.coreSeen) < numCores {
		r.coreSeen = make([]bool, numCores)
	}
	coreSeen := r.coreSeen[:numCores]
	for i := range coreSeen {
		coreSeen[i] = false
	}
	coresUsed := 0
	for _, th := range r.threads[:cfg.Threads] {
		if !coreSeen[th.core] {
			coreSeen[th.core] = true
			coresUsed++
		}
	}
	res := recycle
	if res == nil {
		res = &Result{}
	}
	*res = Result{
		Config:         cfg,
		Ops:            r.ops,
		Attempts:       r.attempts,
		Failures:       r.failures,
		PerThreadOps:   r.perOps,
		Latency:        r.lat,
		SuccessLatency: r.slat,
		MeasuredFor:    cfg.Duration,
		ThroughputMops: stats.Throughput(r.ops, cfg.Duration) / 1e6,
		Jain:           stats.JainIndex(r.perOps),
		CoV:            stats.CoV(r.perOps),
		MinMax:         stats.MinMaxRatio(r.perOps),
		Energy:         r.meter.Report(cfg.Duration, cfg.Threads, coresUsed, r.ops),
		Coh:            subStats(cohEnd, r.cohAtMeasure),
	}
	if reg != nil {
		reg.Counter(metrics.SimEvents).Add(eng.Processed() - r.procAtMeasure)
		reg.Counter(metrics.SimQueuePeak).Add(uint64(eng.MaxPending()))
		reg.Counter(metrics.SimQueueTime).Add(uint64(eng.QueueTimeIntegral() - r.qtAtMeasure))
		reg.Counter(metrics.WorkWindow).Add(uint64(cfg.Duration))
		res.Metrics = reg.Snapshot()
	}
	releaseRunner(cfg.Machine, r)
	return res, nil
}

// linesFor assigns the lines thread i operates on, reusing the thread's
// line slice. Shared lines start at ID 1; private regions are spaced
// far apart so home nodes spread.
func (r *runner) linesFor(th *thread, i int) {
	out := th.lines[:0]
	switch r.cfg.Mode {
	case LowContention:
		base := coherence.LineID(1_000_000 + i*4096)
		for j := 0; j < r.cfg.Lines; j++ {
			out = append(out, base+coherence.LineID(j))
		}
	default:
		for j := 0; j < r.cfg.Lines; j++ {
			out = append(out, coherence.LineID(1+j))
		}
	}
	th.lines = out
}

// inFlight is the line of the thread's latest operation.
func (th *thread) inFlight() coherence.LineID {
	return th.lines[(th.issued-1)%len(th.lines)]
}

// step runs one think-then-operate iteration of a thread.
func (r *runner) step(th *thread) {
	if r.eng.Now() >= r.endAt {
		return
	}
	think := r.cfg.LocalWork
	if think > 0 && r.cfg.WorkJitter {
		think = th.rng.Exp(think)
	}
	if think > 0 {
		r.eng.Schedule(think, th.operateFn)
	} else {
		r.operate(th)
	}
}

func (r *runner) operate(th *thread) {
	if r.eng.Now() >= r.endAt {
		return
	}
	th.issuedAt = r.eng.Now()
	line := th.lines[th.issued%len(th.lines)]
	th.issued++

	p := r.cfg.Primitive
	if r.cfg.Mode == ReadWriteMix && th.rng.Float64() < r.cfg.ReadFraction {
		p = atomics.Load
	}
	if p == atomics.Load {
		r.mReads.Inc()
	} else {
		r.mRMWs.Inc()
	}

	switch p {
	case atomics.CAS, atomics.CAS2:
		if !th.inSpan {
			th.inSpan = true
			th.spanStart = r.eng.Now()
		}
		expected := th.lastSeen
		if r.cfg.OpenLoop {
			// Open-loop threads can have several CASes in flight, each
			// needing the expected value it was issued with — so this
			// path keeps the per-op closure.
			r.mem.Do(p, th.core, line, expected, expected+1, func(res atomics.Result) {
				th.lastSeen = res.Old
				if res.OK {
					th.lastSeen = expected + 1
				}
				r.complete(th, res, res.OK)
			})
			return
		}
		th.expected = expected
		r.mem.Do(p, th.core, line, expected, expected+1, th.casDone)
	default:
		r.mem.Do(p, th.core, line, 1, 0, th.opDone)
	}
}

// complete records one finished attempt and schedules the next step.
func (r *runner) complete(th *thread, res atomics.Result, ok bool) {
	if r.measuring && r.eng.Now() <= r.endAt {
		r.attempts++
		r.lat.Record(res.Latency)
		if ok {
			r.ops++
			r.perOps[th.id]++
			r.mThreadOps.Inc(th.id)
		} else {
			r.failures++
			r.mFailures.Inc()
		}
		if ok && th.inSpan {
			r.slat.Record(r.eng.Now() - th.spanStart)
		}
	}
	if ok {
		th.inSpan = false
	}
	if r.cfg.OpenLoop {
		// Arrivals drive issue; completions do not chain.
		return
	}
	if (r.cfg.Primitive == atomics.CAS || r.cfg.Primitive == atomics.CAS2) && r.cfg.CASRetryLoop && !ok {
		// Retry immediately (the failed CAS already told us the value).
		r.operate(th)
		return
	}
	r.step(th)
}

func subStats(a, b coherence.Stats) coherence.Stats {
	return coherence.Stats{
		Accesses:    a.Accesses - b.Accesses,
		LocalHits:   a.LocalHits - b.LocalHits,
		RemoteXfers: a.RemoteXfers - b.RemoteXfers,
		LLCFills:    a.LLCFills - b.LLCFills,
		DRAMFills:   a.DRAMFills - b.DRAMFills,
		Invals:      a.Invals - b.Invals,
		TotalHops:   a.TotalHops - b.TotalHops,
		CrossSocket: a.CrossSocket - b.CrossSocket,
		MaxQueueLen: a.MaxQueueLen,
		LinkStall:   a.LinkStall - b.LinkStall,
	}
}
