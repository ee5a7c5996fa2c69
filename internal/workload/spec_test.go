package workload

import (
	"bytes"
	"strings"
	"testing"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
)

func TestParseModeRoundTrip(t *testing.T) {
	for _, m := range []Mode{HighContention, LowContention, ReadWriteMix} {
		got, err := ParseMode(m.String())
		if err != nil {
			t.Fatalf("ParseMode(%q): %v", m.String(), err)
		}
		if got != m {
			t.Fatalf("ParseMode(%q) = %v, want %v", m.String(), got, m)
		}
	}
	for _, bad := range []string{"unknown", "", "HIGH-CONTENTION", "high contention"} {
		if _, err := ParseMode(bad); err == nil {
			t.Fatalf("ParseMode(%q) accepted", bad)
		}
	}
}

// TestConfigRejectsIneffectiveKnobs is the regression test for the
// fillDefaults strictness fix: knobs that the chosen mode or arrival
// process would silently ignore must be rejected, not dropped.
func TestConfigRejectsIneffectiveKnobs(t *testing.T) {
	m := machine.Ideal(4)
	base := Config{
		Machine: m, Threads: 2, Primitive: atomics.FAA,
		Warmup: sim.Microsecond, Duration: 5 * sim.Microsecond,
	}

	rf := base
	rf.ReadFraction = 0.5 // HighContention mode: no effect
	if _, err := Run(rf); err == nil || !strings.Contains(err.Error(), "ReadFraction") {
		t.Fatalf("ReadFraction outside read-write-mix accepted (err=%v)", err)
	}

	inter := base
	inter.OpenLoopInterarrival = 100 * sim.Nanosecond // without OpenLoop: no effect
	if _, err := Run(inter); err == nil || !strings.Contains(err.Error(), "OpenLoopInterarrival") {
		t.Fatalf("OpenLoopInterarrival without OpenLoop accepted (err=%v)", err)
	}

	ok := base
	ok.Mode = ReadWriteMix
	ok.ReadFraction = 0.5
	if _, err := Run(ok); err != nil {
		t.Fatalf("valid read-write-mix config rejected: %v", err)
	}
}

func TestSpecStrictParse(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"primitive":"FAA","threads":4}`)); err != nil {
		t.Fatalf("minimal valid spec rejected: %v", err)
	}
	if _, err := ParseSpec([]byte(`{"primitive":"FAA","threads":4,"lins":2}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := ParseSpec([]byte(`{"primitive":"FAA","threads":4}{"x":1}`)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	if _, err := ParseSpec([]byte(`{"primitive":"FAA","threads":4} true`)); err == nil {
		t.Fatal("trailing token accepted")
	}
}

func TestSpecValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"no primitive", Spec{Threads: 4}},
		{"bad primitive", Spec{Primitive: "XADD", Threads: 4}},
		{"bad mode", Spec{Primitive: "FAA", Mode: "unknown", Threads: 4}},
		{"no threads", Spec{Primitive: "FAA"}},
		{"threads and ladder", Spec{Primitive: "FAA", Threads: 4, ThreadLadder: []int{1, 2}}},
		{"negative threads", Spec{Primitive: "FAA", Threads: -1}},
		{"unsorted ladder", Spec{Primitive: "FAA", ThreadLadder: []int{4, 2}}},
		{"duplicate ladder", Spec{Primitive: "FAA", ThreadLadder: []int{2, 2}}},
		{"bad placement", Spec{Primitive: "FAA", Threads: 4, Placement: "spread"}},
		{"negative socket", Spec{Primitive: "FAA", Threads: 4, Placement: "socket--1"}},
		{"bad arbiter", Spec{Primitive: "FAA", Threads: 4, Arbiter: "priority"}},
		{"skips on fifo", Spec{Primitive: "FAA", Threads: 4, ArbiterSkips: 8}},
		{"skips on random", Spec{Primitive: "FAA", Threads: 4, Arbiter: "random", ArbiterSkips: 8}},
		{"negative skips", Spec{Primitive: "FAA", Threads: 4, Arbiter: "locality", ArbiterSkips: -1}},
		{"negative lines", Spec{Primitive: "FAA", Threads: 4, Lines: -2}},
		{"negative work", Spec{Primitive: "FAA", Threads: 4, LocalWorkPS: -5}},
		{"jitter without work", Spec{Primitive: "FAA", Threads: 4, WorkJitter: true}},
		{"read fraction range", Spec{Primitive: "FAA", Mode: "read-write-mix", Threads: 4, ReadFraction: 1.5}},
		{"read fraction in high", Spec{Primitive: "FAA", Threads: 4, ReadFraction: 0.5}},
		{"retry loop on FAA", Spec{Primitive: "FAA", Threads: 4, CASRetryLoop: true}},
		{"retry loop open loop", Spec{Primitive: "CAS", Threads: 4, CASRetryLoop: true, OpenLoop: true, OpenLoopInterarrivalPS: 100}},
		{"open loop no interarrival", Spec{Primitive: "FAA", Threads: 4, OpenLoop: true}},
		{"interarrival no open loop", Spec{Primitive: "FAA", Threads: 4, OpenLoopInterarrivalPS: 100}},
		{"negative warmup", Spec{Primitive: "FAA", Threads: 4, WarmupPS: -1}},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestSpecDefaultedDigestEquivalence(t *testing.T) {
	implicit := Spec{Primitive: "FAA", Threads: 8}
	explicit := Spec{
		Primitive: "FAA", Mode: "high-contention", Threads: 8,
		Placement: "compact", Arbiter: "fifo", Lines: 1,
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

	low := Spec{Primitive: "FAA", Mode: "low-contention", Threads: 8}
	lowExplicit := low.Clone()
	lowExplicit.Lines = 16 // low-contention's default line count
	dl, _ := low.Digest()
	dle, _ := lowExplicit.Digest()
	if dl != dle {
		t.Fatalf("low-contention default lines change the digest: %s vs %s", dl, dle)
	}
}

// TestSpecDigestSensitivity flips every field off a base spec and
// demands pairwise-distinct digests: any effective knob difference must
// produce a different cache identity.
func TestSpecDigestSensitivity(t *testing.T) {
	base := func() *Spec { return &Spec{Primitive: "FAA", Threads: 8} }
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
	add("primitive", func(s *Spec) { s.Primitive = "CAS" })
	add("mode", func(s *Spec) { s.Mode = "low-contention" })
	add("threads", func(s *Spec) { s.Threads = 16 })
	add("ladder", func(s *Spec) { s.Threads = 0; s.ThreadLadder = []int{8, 16} })
	add("placement", func(s *Spec) { s.Placement = "scatter" })
	add("socket", func(s *Spec) { s.Placement = "socket-1" })
	add("arbiter", func(s *Spec) { s.Arbiter = "random" })
	add("locality", func(s *Spec) { s.Arbiter = "locality" })
	add("skips", func(s *Spec) { s.Arbiter = "locality"; s.ArbiterSkips = 64 })
	add("lines", func(s *Spec) { s.Lines = 4 })
	add("work", func(s *Spec) { s.LocalWorkPS = 100 * sim.Nanosecond })
	add("jitter", func(s *Spec) { s.LocalWorkPS = 100 * sim.Nanosecond; s.WorkJitter = true })
	add("mix", func(s *Spec) { s.Mode = "read-write-mix"; s.ReadFraction = 0.9 })
	add("mix-frac", func(s *Spec) { s.Mode = "read-write-mix"; s.ReadFraction = 0.99 })
	add("retry", func(s *Spec) { s.Primitive = "CAS"; s.CASRetryLoop = true })
	add("openloop", func(s *Spec) { s.OpenLoop = true; s.OpenLoopInterarrivalPS = 123456 })
	add("interarrival", func(s *Spec) { s.OpenLoop = true; s.OpenLoopInterarrivalPS = 123457 })
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

func TestSpecCanonicalFixedPoint(t *testing.T) {
	s := &Spec{Primitive: "CAS", Mode: "read-write-mix", ReadFraction: 0.9, Threads: 6, Seed: 11}
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

func TestSpecExpand(t *testing.T) {
	s := &Spec{Primitive: "FAA", ThreadLadder: []int{1, 2, 4}, Seed: 3}
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
	if _, err := s.Config(machine.Ideal(8)); err == nil {
		t.Fatal("Config accepted an unexpanded ladder spec")
	}
	pinned := &Spec{Primitive: "FAA", Threads: 4}
	if got := pinned.Expand(); len(got) != 1 || got[0].Threads != 4 {
		t.Fatalf("pinned Expand = %+v", got)
	}
}

func TestSpecConfigResolution(t *testing.T) {
	m := machine.Ideal(8)
	s := &Spec{
		Primitive: "SWAP", Threads: 4, Placement: "scatter",
		LocalWorkPS: 50 * sim.Nanosecond, WorkJitter: true, Seed: 99,
	}
	cfg, err := s.Config(m)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Machine != m || cfg.Threads != 4 || cfg.Primitive != atomics.SWAP {
		t.Fatalf("basic fields wrong: %+v", cfg)
	}
	if cfg.Arbiter != (coherence.FIFOArbiter{}) {
		t.Fatalf("default arbiter = %T, want value FIFOArbiter", cfg.Arbiter)
	}
	if cfg.Placement.Name() != "scatter" {
		t.Fatalf("placement = %s", cfg.Placement.Name())
	}
	if cfg.LocalWork != 50*sim.Nanosecond || !cfg.WorkJitter || cfg.Seed != 99 {
		t.Fatalf("knobs wrong: %+v", cfg)
	}
	if cfg.Warmup != 20*sim.Microsecond || cfg.Duration != 200*sim.Microsecond {
		t.Fatalf("window defaults wrong: warmup=%v duration=%v", cfg.Warmup, cfg.Duration)
	}

	r := &Spec{Primitive: "FAA", Threads: 2, Arbiter: "random", Seed: 5}
	rcfg, err := r.Config(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rcfg.Arbiter.(*coherence.RandomArbiter); !ok {
		t.Fatalf("random arbiter = %T", rcfg.Arbiter)
	}
}

func TestSpecRegistry(t *testing.T) {
	names := SpecNames()
	if len(names) == 0 {
		t.Fatal("no embedded workload specs registered")
	}
	s, err := SpecByName("HIGH-FAA") // case-insensitive
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "high-faa" || s.Primitive != "FAA" {
		t.Fatalf("unexpected spec: %+v", s)
	}
	s.Threads, s.ThreadLadder = 4, nil // mutating the copy must not touch the registry
	again, err := SpecByName("high-faa")
	if err != nil {
		t.Fatal(err)
	}
	if len(again.ThreadLadder) == 0 {
		t.Fatal("SpecByName returned a shared mutable spec")
	}
	if _, err := SpecByName("no-such-workload"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestRunSpecEndToEnd(t *testing.T) {
	s := &Spec{
		Primitive: "FAA", Threads: 2,
		WarmupPS: sim.Microsecond, DurationPS: 5 * sim.Microsecond, Seed: 1,
	}
	res, err := RunSpec(s, machine.Ideal(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 || res.ThroughputMops <= 0 {
		t.Fatalf("empty result: %+v", res)
	}
}
