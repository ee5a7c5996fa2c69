package harness

import (
	"testing"

	"atomicsmodel/internal/apps"
	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
	"atomicsmodel/internal/workload"
)

// BenchmarkFullCell measures one complete simulation cell — the unit the
// parallel scheduler fans out — at quick-run length: a 16-thread
// high-contention FAA sweep point on the Xeon.
func BenchmarkFullCell(b *testing.B) {
	benchFullCell(b, false)
}

// BenchmarkFullCellMetrics is the same cell with the observability
// registry live (Config.Metrics set): registry setup, per-event counts,
// and the end-of-run snapshot. The delta against BenchmarkFullCell is
// the whole-cell cost of -metrics.
func BenchmarkFullCellMetrics(b *testing.B) {
	benchFullCell(b, true)
}

func benchFullCell(b *testing.B, withMetrics bool) {
	m := machine.XeonE5()
	b.ReportAllocs()
	b.ResetTimer()
	// Recycle one Result so the benchmark measures the simulation
	// itself: with the cell pool warm, steady-state cells are
	// allocation-free.
	var res *workload.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = workload.RunReusing(workload.Config{
			Machine: m, Threads: 16, Primitive: atomics.FAA,
			Mode:   workload.HighContention,
			Warmup: 10 * sim.Microsecond, Duration: 100 * sim.Microsecond,
			Seed:    1,
			Metrics: withMetrics,
		}, res)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadCell measures the quick 16-thread high-contention Load
// cell on the Xeon — the long pole of F2 and F3. Every op is an L1 hit
// on the reader's own shared copy, so the cell is contention-free and
// the fast-forward elides nearly its whole warmup and measured window.
func BenchmarkLoadCell(b *testing.B) {
	benchQuickCell(b, atomics.Load, workload.HighContention)
}

// BenchmarkLowContentionCell measures the quick 16-thread low-contention
// FAA cell on the Xeon — the shape of F6's long pole. Each thread cycles
// over its 16 private lines, every op an owner hit after one cold fill
// per line, so the fast-forward elides both windows past the fills.
func BenchmarkLowContentionCell(b *testing.B) {
	benchQuickCell(b, atomics.FAA, workload.LowContention)
}

// benchQuickCell runs one quick-window 16-thread Xeon cell of primitive
// p in the given mode per iteration, recycling its Result.
func benchQuickCell(b *testing.B, p atomics.Primitive, mode workload.Mode) {
	m := machine.XeonE5()
	o := Options{Quick: true}
	b.ReportAllocs()
	b.ResetTimer()
	var res *workload.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = workload.RunReusing(workload.Config{
			Machine: m, Threads: 16, Primitive: p, Mode: mode,
			Warmup: o.warmup(), Duration: o.duration(),
			Seed: 1,
		}, res)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppCell measures one quick app cell per structure family the
// fleet sweeps lean on: the ticket lock (the costliest per simulated
// op: every waiter re-reads the serving line) and the work-stealing
// deque (the most ops per cell), 16 threads on the Xeon. Each op is a
// whole apps.Run; its allocations are the cell's setup alone, since
// issuing and completing Steps allocates nothing.
func BenchmarkAppCell(b *testing.B) {
	m := machine.XeonE5()
	for _, name := range []string{"ticket-lock", "ws-deque"} {
		b.Run(name, func(b *testing.B) {
			spec, err := apps.SpecByName(name)
			if err != nil {
				b.Fatal(err)
			}
			sp := *spec
			sp.ThreadLadder, sp.Threads = nil, 16
			o := Options{Quick: true}
			sp.WarmupPS, sp.DurationPS, sp.Seed = o.warmup(), o.duration(), 42
			cfg, err := sp.RunConfig(m)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := apps.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
