package apps

import (
	"bytes"
	"strings"
	"testing"

	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
)

func TestStructureRegistry(t *testing.T) {
	names := StructureNames()
	if len(names) < 10 {
		t.Fatalf("only %d structures registered: %v", len(names), names)
	}
	for _, name := range names {
		if StructureDoc(name) == "" {
			t.Errorf("structure %s has no doc", name)
		}
		s := &Spec{Structure: strings.ToUpper(name), Threads: 2} // case-insensitive
		if _, err := structureByName(s.Structure); err != nil {
			t.Errorf("case-insensitive lookup of %s failed: %v", name, err)
		}
		if _, err := s.HotLine(); err != nil {
			t.Errorf("structure %s has no hot line: %v", name, err)
		}
	}
	if _, err := structureByName("no-such-structure"); err == nil {
		t.Fatal("unknown structure accepted")
	}
}

func TestAppSpecStrictParse(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"structure":"counter-faa","threads":4}`)); err != nil {
		t.Fatalf("minimal valid spec rejected: %v", err)
	}
	if _, err := ParseSpec([]byte(`{"structure":"counter-faa","threads":4,"depht":2}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := ParseSpec([]byte(`{"structure":"counter-faa","threads":4}{"x":1}`)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	if _, err := ParseSpec([]byte(`{"structure":"counter-faa","threads":4} true`)); err == nil {
		t.Fatal("trailing token accepted")
	}
}

func TestAppSpecValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"no structure", Spec{Threads: 4}},
		{"bad structure", Spec{Structure: "btree", Threads: 4}},
		{"no threads", Spec{Structure: "counter-faa"}},
		{"threads and ladder", Spec{Structure: "counter-faa", Threads: 4, ThreadLadder: []int{1, 2}}},
		{"negative threads", Spec{Structure: "counter-faa", Threads: -1}},
		{"unsorted ladder", Spec{Structure: "counter-faa", ThreadLadder: []int{4, 2}}},
		{"duplicate ladder", Spec{Structure: "counter-faa", ThreadLadder: []int{2, 2}}},
		{"bad placement", Spec{Structure: "counter-faa", Threads: 4, Placement: "spread"}},
		{"bad arbiter", Spec{Structure: "counter-faa", Threads: 4, Arbiter: "priority"}},
		{"skips on fifo", Spec{Structure: "counter-faa", Threads: 4, ArbiterSkips: 8}},
		{"depth on counter", Spec{Structure: "counter-faa", Threads: 4, Depth: 64}},
		{"stripes on stack", Spec{Structure: "treiber-stack", Threads: 4, Stripes: 8}},
		{"slots on treiber", Spec{Structure: "treiber-stack", Threads: 4, Slots: 4}},
		{"words on lock", Spec{Structure: "lock-tas", Threads: 4, Words: 2}},
		{"handoffs on ticket", Spec{Structure: "lock-ticket", Threads: 4, Handoffs: 8}},
		{"readFraction on queue", Spec{Structure: "ms-queue", Threads: 4, ReadFraction: 0.5}},
		{"crit on counter", Spec{Structure: "counter-cas", Threads: 4, CritPS: 100}},
		{"backoff on ttas", Spec{Structure: "lock-ttas", Threads: 4, BackoffBasePS: 100}},
		{"window on ms-queue", Spec{Structure: "ms-queue", Threads: 4, WindowPS: 100}},
		{"deque depth over buffer", Spec{Structure: "ws-deque", Threads: 4, Depth: dequeBufSlots + 1}},
		{"oversized words", Spec{Structure: "big-atomic", Threads: 4, Words: maxSpecWords + 1}},
		{"oversized stripes", Spec{Structure: "counter-striped", Threads: 4, Stripes: maxSpecStripes + 1}},
		{"readFraction range", Spec{Structure: "rwlock-central", Threads: 4, ReadFraction: 1.5}},
		{"negative crit", Spec{Structure: "lock-tas", Threads: 4, CritPS: -1}},
		{"backoff max below base", Spec{Structure: "lock-ttas-backoff", Threads: 4, BackoffBasePS: 5 * sim.Microsecond}},
		{"negative warmup", Spec{Structure: "counter-faa", Threads: 4, WarmupPS: -1}},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestAppSpecDefaultedDigestEquivalence(t *testing.T) {
	implicit := Spec{Structure: "elimination-stack", Threads: 8}
	explicit := Spec{
		Structure: "elimination-stack", Threads: 8,
		Placement: "compact", Arbiter: "fifo",
		Depth: 256, Slots: 4, WindowPS: 200 * sim.Nanosecond,
		WarmupPS: 20 * sim.Microsecond, DurationPS: 200 * sim.Microsecond,
	}
	di, err := implicit.Digest()
	if err != nil {
		t.Fatal(err)
	}
	de, err := explicit.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if di != de {
		t.Fatalf("spelled-out defaults change the digest: %s vs %s", di, de)
	}
}

// TestAppSpecDigestSensitivity flips every Spec knob off a base spec
// and demands pairwise-distinct digests: any effective knob difference
// must produce a different cache identity.
func TestAppSpecDigestSensitivity(t *testing.T) {
	// The base structure honours no tunable knobs, so knob variants
	// switch structure to one that does.
	base := func() *Spec { return &Spec{Structure: "counter-faa", Threads: 8} }
	variants := map[string]*Spec{"base": base()}
	add := func(name string, mut func(*Spec)) {
		s := base()
		mut(s)
		if err := s.Validate(); err != nil {
			t.Fatalf("variant %s invalid: %v", name, err)
		}
		variants[name] = s
	}
	add("name", func(s *Spec) { s.Name = "named" })
	add("doc", func(s *Spec) { s.Doc = "documented" })
	add("structure", func(s *Spec) { s.Structure = "counter-cas" })
	add("threads", func(s *Spec) { s.Threads = 16 })
	add("ladder", func(s *Spec) { s.Threads = 0; s.ThreadLadder = []int{8, 16} })
	add("placement", func(s *Spec) { s.Placement = "scatter" })
	add("arbiter", func(s *Spec) { s.Arbiter = "random" })
	add("skips", func(s *Spec) { s.Arbiter = "locality"; s.ArbiterSkips = 64 })
	add("depth", func(s *Spec) { s.Structure = "treiber-stack"; s.Depth = 128 })
	add("depth-other", func(s *Spec) { s.Structure = "treiber-stack"; s.Depth = 64 })
	add("stripes", func(s *Spec) { s.Structure = "counter-striped"; s.Stripes = 8 })
	add("slots", func(s *Spec) { s.Structure = "elimination-stack"; s.Slots = 16 })
	add("words", func(s *Spec) { s.Structure = "big-atomic"; s.Words = 2 })
	add("handoffs", func(s *Spec) { s.Structure = "lock-cohort"; s.Handoffs = 8 })
	add("readFraction", func(s *Spec) { s.Structure = "rwlock-central"; s.ReadFraction = 0.9 })
	add("readFraction-other", func(s *Spec) { s.Structure = "rwlock-central"; s.ReadFraction = 0.98 })
	add("crit", func(s *Spec) { s.Structure = "lock-tas"; s.CritPS = 100 * sim.Nanosecond })
	add("backoff-base", func(s *Spec) { s.Structure = "lock-ttas-backoff"; s.BackoffBasePS = 200 * sim.Nanosecond })
	add("backoff-max", func(s *Spec) { s.Structure = "lock-ttas-backoff"; s.BackoffMaxPS = 6400 * sim.Nanosecond })
	add("window", func(s *Spec) { s.Structure = "elimination-stack"; s.WindowPS = 400 * sim.Nanosecond })
	add("warmup", func(s *Spec) { s.WarmupPS = 10 * sim.Microsecond })
	add("duration", func(s *Spec) { s.DurationPS = 100 * sim.Microsecond })
	add("seed", func(s *Spec) { s.Seed = 7 })

	seen := map[string]string{}
	for name, s := range variants {
		d, err := s.Digest()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if prev, dup := seen[d]; dup {
			t.Errorf("variants %s and %s share digest %s", name, prev, d)
		}
		seen[d] = name
	}
}

func TestAppSpecCanonicalFixedPoint(t *testing.T) {
	s := &Spec{Structure: "rwlock-distributed", ReadFraction: 0.9, Threads: 6, Seed: 11}
	raw1, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ParseSpec(raw1)
	if err != nil {
		t.Fatalf("canonical form does not reparse: %v\n%s", err, raw1)
	}
	raw2, err := s2.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatalf("canonical encoding not a fixed point:\n%s\nvs\n%s", raw1, raw2)
	}
}

func TestAppSpecExpand(t *testing.T) {
	s := &Spec{Structure: "treiber-stack", ThreadLadder: []int{1, 2, 4}, Seed: 3}
	pts := s.Expand()
	if len(pts) != 3 {
		t.Fatalf("Expand returned %d points", len(pts))
	}
	for i, want := range []int{1, 2, 4} {
		if pts[i].Threads != want || pts[i].ThreadLadder != nil {
			t.Fatalf("point %d: threads=%d ladder=%v", i, pts[i].Threads, pts[i].ThreadLadder)
		}
		if err := pts[i].Validate(); err != nil {
			t.Fatalf("expanded point invalid: %v", err)
		}
	}
	if _, err := s.RunConfig(machine.Ideal(8)); err == nil {
		t.Fatal("RunConfig accepted an unexpanded ladder spec")
	}
}

func TestAppSpecRunConfigResolution(t *testing.T) {
	m := machine.Ideal(8)
	s := &Spec{Structure: "treiber-stack", Threads: 4, Placement: "scatter", Seed: 99}
	cfg, err := s.RunConfig(m)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Machine != m || cfg.Threads != 4 || cfg.Seed != 99 {
		t.Fatalf("basic fields wrong: %+v", cfg)
	}
	if cfg.Arbiter != (coherence.FIFOArbiter{}) {
		t.Fatalf("default arbiter = %T, want value FIFOArbiter", cfg.Arbiter)
	}
	if cfg.Placement.Name() != "scatter" {
		t.Fatalf("placement = %s", cfg.Placement.Name())
	}
	if cfg.Warmup != 20*sim.Microsecond || cfg.Duration != 200*sim.Microsecond {
		t.Fatalf("window defaults wrong: warmup=%v duration=%v", cfg.Warmup, cfg.Duration)
	}

	// Cohort needs sockets: single-socket machines are rejected at
	// RunConfig time, not Validate time (the spec is machine-free).
	cohort := &Spec{Structure: "lock-cohort", Threads: 4}
	if err := cohort.Validate(); err != nil {
		t.Fatalf("cohort spec invalid: %v", err)
	}
	if _, err := cohort.RunConfig(machine.Ideal(8)); err == nil {
		t.Fatal("cohort accepted a single-socket machine")
	}
	if _, err := cohort.RunConfig(machine.XeonE5()); err != nil {
		t.Fatalf("cohort rejected a 2-socket machine: %v", err)
	}
}

func TestAppSpecRegistry(t *testing.T) {
	names := SpecNames()
	if len(names) == 0 {
		t.Fatal("no embedded app specs registered")
	}
	s, err := SpecByName("FAA-COUNTER") // case-insensitive
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "faa-counter" || s.Structure != "counter-faa" {
		t.Fatalf("unexpected spec: %+v", s)
	}
	s.Threads, s.ThreadLadder = 4, nil // mutating the copy must not touch the registry
	again, err := SpecByName("faa-counter")
	if err != nil {
		t.Fatal(err)
	}
	if len(again.ThreadLadder) == 0 {
		t.Fatal("SpecByName returned a shared mutable spec")
	}
	if _, err := SpecByName("no-such-app"); err == nil {
		t.Fatal("unknown name accepted")
	}
	for _, name := range names {
		reg, err := SpecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range reg.Expand() {
			if err := pt.Validate(); err != nil {
				t.Fatalf("embedded spec %s point invalid: %v", name, err)
			}
		}
	}
}

func TestRunAppSpecEndToEnd(t *testing.T) {
	for _, structure := range []string{"counter-faa", "ws-deque", "big-atomic"} {
		s := &Spec{
			Structure: structure, Threads: 4,
			WarmupPS: sim.Microsecond, DurationPS: 10 * sim.Microsecond, Seed: 1,
		}
		res, err := RunSpec(s, machine.Ideal(8))
		if err != nil {
			t.Fatalf("%s: %v", structure, err)
		}
		if res.Ops == 0 || res.ThroughputMops <= 0 {
			t.Fatalf("%s: empty result: %+v", structure, res)
		}
	}
}
