package workload

import (
	"encoding/json"
	"fmt"
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
	// (about 155ns each on KNL), so the window grows with the thread
	// count to leave the steady state room to engage.
	cfg := Config{
		Machine: m, Threads: threads, Primitive: sh.p, Mode: HighContention,
		Warmup:   2 * sim.Microsecond,
		Duration: 2*sim.Microsecond + sim.Time(threads)*200*sim.Nanosecond,
		Seed:     7,
	}
	if sh.mix {
		cfg.Mode, cfg.ReadFraction = ReadWriteMix, 1
	}
	if err := cfg.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// runFF runs cfg with fast-forward switched as given and returns the
// Result's JSON encoding plus the jumps the memoizer engaged.
func runFF(t *testing.T, cfg Config, on bool) ([]byte, int) {
	t.Helper()
	defer SetFastForward(FastForwardEnabled())
	defer func() { jumpHook = nil }()
	SetFastForward(on)
	jumps := 0
	jumpHook = func(mode int, cycles uint64) {
		if mode != ffFree || cycles == 0 {
			t.Errorf("jump in mode %d over %d cycles, want a contention-free jump", mode, cycles)
		}
		jumps++
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

// TestContentionFreeFastForwardDifferential runs every registered
// machine × {Load, Fence, all-read mix} × {1, 2, cores, all hardware
// threads} with the memoizer off and on: the Results must be
// byte-identical, and the contention-free jump must engage on every
// cell. KNL at 256 threads overflows the engine's express lane, so its
// completions sit on the shard heaps when the jump shifts them.
func TestContentionFreeFastForwardDifferential(t *testing.T) {
	for _, m := range machine.All() {
		for _, sh := range contentionFreeShapes {
			for _, n := range []int{1, 2, m.NumCores(), m.NumHWThreads()} {
				cfg := ffCfg(t, m, sh, n)
				t.Run(fmt.Sprintf("%s/%s/%d", m.Name, sh.name, n), func(t *testing.T) {
					if memoEligible(&cfg) != ffFree {
						t.Fatalf("memoEligible = %d, want contention-free", memoEligible(&cfg))
					}
					slow, offJumps := runFF(t, cfg, false)
					fast, onJumps := runFF(t, cfg, true)
					if offJumps != 0 {
						t.Fatalf("memoizer jumped %d times while switched off", offJumps)
					}
					if onJumps != 1 {
						t.Fatalf("contention-free jump engaged %d times, want 1", onJumps)
					}
					if string(slow) != string(fast) {
						t.Fatalf("fast-forward changed the result:\n off: %s\n on:  %s", slow, fast)
					}
				})
			}
		}
	}
}

// TestContentionFreeExclusions pins the cells the contention-free mode
// must leave alone: a mix that can still draw an RMW, store-buffered
// machines (spillover state across cycles), and metrics-on cells (the
// registry must see every event).
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
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			if got := memoEligible(&cfg); got != ffOff {
				t.Fatalf("memoEligible = %d, want off", got)
			}
			if _, jumps := runFF(t, cfg, true); jumps != 0 {
				t.Fatalf("memoizer jumped %d times on an ineligible cell", jumps)
			}
		})
	}
}
