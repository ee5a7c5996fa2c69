package workload

import (
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
)

// ffShape is one contention-free cell shape: a primitive in high
// contention, or (mix) a read/write mix whose draws always yield loads.
type ffShape struct {
	name string
	p    atomics.Primitive
	mix  bool
}

var contentionFreeShapes = []ffShape{
	{"Load", atomics.Load, false},
	{"Fence", atomics.Fence, false},
	{"mix-rf1", atomics.FAA, true},
}

// ffCfg builds a short-window cell of shape sh with its defaults
// filled, as memoEligible sees it inside Run.
func ffCfg(t *testing.T, m *machine.Machine, sh ffShape, threads int) Config {
	t.Helper()
	// The opening read misses drain through the line one at a time
	// (about 155ns each on KNL), so the warmup and the window grow with
	// the thread count to leave the steady state room to engage in both.
	grow := 2*sim.Microsecond + sim.Time(threads)*200*sim.Nanosecond
	cfg := Config{
		Machine: m, Threads: threads, Primitive: sh.p, Mode: HighContention,
		Warmup: grow, Duration: grow, Seed: 7,
	}
	if sh.mix {
		cfg.Mode, cfg.ReadFraction = ReadWriteMix, 1
	}
	if err := cfg.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// ffJumps counts the memoizer's jumps in each pass of one run.
type ffJumps struct{ warmup, measured int }

// runFF runs cfg with fast-forward switched as given and returns the
// Result's JSON encoding plus the jumps the memoizer engaged, all of
// which must be contention-free.
func runFF(t *testing.T, cfg Config, on bool) ([]byte, ffJumps) {
	t.Helper()
	defer SetFastForward(FastForwardEnabled())
	defer func() { jumpHook = nil }()
	SetFastForward(on)
	var jumps ffJumps
	jumpHook = func(mode int, measuring bool, cycles uint64) {
		if mode != ffFree || cycles == 0 {
			t.Errorf("jump in mode %d over %d cycles, want a contention-free jump", mode, cycles)
		}
		if measuring {
			jumps.measured++
		} else {
			jumps.warmup++
		}
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b, jumps
}

// checkFreeDifferential runs a contention-free cell with the memoizer
// off and on: the Results must be byte-identical, and the jump must
// engage once before the warmup boundary and once in the window.
func checkFreeDifferential(t *testing.T, cfg Config) {
	t.Helper()
	if memoEligible(&cfg) != ffFree {
		t.Fatalf("memoEligible = %d, want contention-free", memoEligible(&cfg))
	}
	slow, offJumps := runFF(t, cfg, false)
	fast, onJumps := runFF(t, cfg, true)
	if offJumps != (ffJumps{}) {
		t.Fatalf("memoizer jumped %+v while switched off", offJumps)
	}
	if onJumps != (ffJumps{1, 1}) {
		t.Fatalf("contention-free jumps engaged %+v, want one per pass", onJumps)
	}
	if string(slow) != string(fast) {
		t.Fatalf("fast-forward changed the result:\n off: %s\n on:  %s", slow, fast)
	}
}

// TestContentionFreeFastForwardDifferential runs every paper machine ×
// {Load, Fence, all-read mix} × {1, 2, cores, all hardware threads}
// through checkFreeDifferential. KNL at 256 threads overflows the
// engine's express lane, so its completions sit on the shard heaps
// when the jump shifts them.
func TestContentionFreeFastForwardDifferential(t *testing.T) {
	for _, m := range machine.All() {
		for _, sh := range contentionFreeShapes {
			for _, n := range []int{1, 2, m.NumCores(), m.NumHWThreads()} {
				cfg := ffCfg(t, m, sh, n)
				t.Run(fmt.Sprintf("%s/%s/%d", m.Name, sh.name, n), func(t *testing.T) {
					checkFreeDifferential(t, cfg)
				})
			}
		}
	}
}

// privateCfg builds a short low-contention cell of primitive p on lines
// private lines per thread, with its defaults filled. The warmup leaves
// room for every line's cold fill (one after another per thread) plus
// two steady cycles, so both passes can engage.
func privateCfg(t *testing.T, m *machine.Machine, p atomics.Primitive, threads, lines int) Config {
	t.Helper()
	cfg := Config{
		Machine: m, Threads: threads, Primitive: p, Mode: LowContention,
		Lines:    lines,
		Warmup:   2*sim.Microsecond + sim.Time(lines)*400*sim.Nanosecond,
		Duration: 4 * sim.Microsecond,
		Seed:     7,
	}
	if err := cfg.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestPrivateLineFastForwardDifferential runs every registered machine
// (the paper pair plus the EPYC star and the Grace and XeonSP meshes) ×
// {FAA, SWAP, TAS, Store, Load} in low contention × {1, 2, cores, all
// hardware threads} × {1, 3, 16} private lines through
// checkFreeDifferential.
func TestPrivateLineFastForwardDifferential(t *testing.T) {
	prims := []atomics.Primitive{atomics.FAA, atomics.SWAP, atomics.TAS, atomics.Store, atomics.Load}
	for _, name := range machine.Names() {
		m, err := machine.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range prims {
			for _, n := range slices.Compact([]int{1, 2, m.NumCores(), m.NumHWThreads()}) {
				for _, lines := range []int{1, 3, 16} {
					cfg := privateCfg(t, m, p, n, lines)
					t.Run(fmt.Sprintf("%s/%s/%d/%d", name, p, n, lines), func(t *testing.T) {
						checkFreeDifferential(t, cfg)
					})
				}
			}
		}
	}
}

// TestContentionFreeExclusions pins the cells the contention-free mode
// must leave alone: a mix that can still draw an RMW, store-buffered
// machines (spillover state across cycles), metrics-on cells (the
// registry must see every event), and on private lines CAS and CAS2
// (value-dependent control flow) and think time.
func TestContentionFreeExclusions(t *testing.T) {
	xeon := machine.XeonE5()
	sb := *xeon
	sb.Name, sb.StoreBufferDepth = xeon.Name+"+SB", 8
	cases := map[string]Config{}

	mix := ffCfg(t, xeon, contentionFreeShapes[2], 8)
	mix.ReadFraction = 0.99
	cases["read fraction 0.99"] = mix
	for _, sh := range contentionFreeShapes {
		cases["store buffer/"+sh.name] = ffCfg(t, &sb, sh, 8)
		metricsOn := ffCfg(t, xeon, sh, 8)
		metricsOn.Metrics = true
		cases["metrics/"+sh.name] = metricsOn
	}
	for _, p := range []atomics.Primitive{atomics.CAS, atomics.CAS2} {
		cases["private/"+p.String()] = privateCfg(t, xeon, p, 8, 3)
	}
	think := privateCfg(t, xeon, atomics.FAA, 8, 3)
	think.LocalWork = 5 * sim.Nanosecond
	cases["private/local work"] = think
	metricsOn := privateCfg(t, xeon, atomics.FAA, 8, 3)
	metricsOn.Metrics = true
	cases["private/metrics"] = metricsOn
	cases["private/store buffer"] = privateCfg(t, &sb, atomics.FAA, 8, 3)
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			if got := memoEligible(&cfg); got != ffOff {
				t.Fatalf("memoEligible = %d, want off", got)
			}
			if _, jumps := runFF(t, cfg, true); jumps != (ffJumps{}) {
				t.Fatalf("memoizer jumped %+v on an ineligible cell", jumps)
			}
		})
	}
}
