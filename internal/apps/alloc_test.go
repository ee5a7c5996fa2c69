package apps

import (
	"testing"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
)

// allocThreads is how many threads step concurrently in the allocation
// gates: enough for every contended path (failed CASes, lock spins,
// elimination parking, steals) to run.
const allocThreads = 8

// allocRig builds one registered structure on a two-socket machine
// (so lock-cohort runs too), with threads scattered across sockets.
func allocRig(t *testing.T, name string) (*sim.Engine, App, []*Thread) {
	t.Helper()
	m := machine.XeonE5()
	s := &Spec{Structure: name, Threads: allocThreads, Placement: "scatter"}
	if structures[name].knobs&knobReadFraction != 0 {
		s.ReadFraction = 0.5 // cover read and write paths
	}
	cfg, err := s.RunConfig(m)
	if err != nil {
		t.Fatal(err)
	}
	slots, err := cfg.Placement.Place(m, allocThreads)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	mem, err := atomics.NewMemory(eng, m, cfg.Arbiter)
	if err != nil {
		t.Fatal(err)
	}
	app := cfg.Build(eng, mem)
	root := sim.NewRNG(7)
	ths := make([]*Thread, allocThreads)
	for i := range ths {
		ths[i] = &Thread{ID: i, Core: m.CoreOf(slots[i]), RNG: root.Split()}
	}
	return eng, app, ths
}

// TestAppsDoNotAllocate extends the access path's zero-alloc contract
// to every registered structure. Threads run closed-loop, as under Run
// (a Drain-bounded round would strand lock-cohort waiters behind a
// global lock kept for a same-socket successor that never comes), and
// once each thread's op context and the pools below it are warm, a
// window of simulated time — many Steps — allocates nothing. The one
// allocation source left is the coherence directory growing for lines
// touched for the first time (fresh stack and queue nodes); it is
// carved from slabs, a few hundredths of an allocation per Step, which
// AllocsPerRun's integer average reports as 0.
func TestAppsDoNotAllocate(t *testing.T) {
	for _, name := range StructureNames() {
		t.Run(name, func(t *testing.T) {
			eng, app, ths := allocRig(t, name)
			var steps uint64
			for _, th := range ths {
				var loop func()
				loop = func() {
					steps++
					app.Step(th, loop)
				}
				eng.Schedule(th.RNG.Duration(10*sim.Nanosecond), loop)
			}
			window := func() { eng.Run(eng.Now() + sim.Microsecond) }
			for i := 0; i < 20; i++ {
				window()
			}
			before := steps
			avg := testing.AllocsPerRun(100, window)
			if steps-before < 100 {
				t.Fatalf("%s: only %d Steps in the measured windows", name, steps-before)
			}
			if avg != 0 {
				t.Fatalf("%s: %.1f allocs per 1µs window (%d Steps per window), want 0",
					name, avg, (steps-before)/101)
			}
		})
	}
}

// TestRunAllocsDoNotGrowWithDuration checks the same contract through
// Run: doubling the measured window must not add per-operation
// allocations. Pools and queues reach their high-water mark early, so
// what still grows with run length is the coherence directory — lines a
// structure touches for the first time (fresh stack and queue nodes,
// deque slots as the indices wander) and their request queues — which
// the directory carves from slabs. A per-op closure anywhere on the
// path would add at least one allocation per extra operation.
func TestRunAllocsDoNotGrowWithDuration(t *testing.T) {
	for _, name := range StructureNames() {
		t.Run(name, func(t *testing.T) {
			s := &Spec{Structure: name, Threads: allocThreads, Placement: "scatter", Seed: 3}
			if structures[name].knobs&knobReadFraction != 0 {
				s.ReadFraction = 0.5
			}
			cfg, err := s.RunConfig(machine.XeonE5())
			if err != nil {
				t.Fatal(err)
			}
			run := func(d sim.Time) (allocs float64, ops uint64) {
				cfg.Warmup, cfg.Duration = 5*sim.Microsecond, d
				allocs = testing.AllocsPerRun(2, func() {
					res, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					ops = res.TotalOps
				})
				return allocs, ops
			}
			a1, ops1 := run(100 * sim.Microsecond)
			a2, ops2 := run(200 * sim.Microsecond)
			if ops2 <= ops1 {
				t.Fatalf("%s: %d ops at 2x duration, %d at 1x", name, ops2, ops1)
			}
			if extra := a2 - a1; extra*10 > float64(ops2-ops1) {
				t.Fatalf("%s: doubling the duration added %.0f allocations for %d more ops (want < 1 per 10)",
					name, extra, ops2-ops1)
			}
		})
	}
}
