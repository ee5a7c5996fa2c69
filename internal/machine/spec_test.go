package machine

import (
	"bytes"
	"strings"
	"testing"

	"atomicsmodel/internal/topology"
)

// TestSpecBuiltPresetsMatchLegacyTables pins the spec-built XeonE5 and
// KNL to the exact tables the hand-written constructors produced before
// machines became declarative. Every constant is restated here as a
// cycle count, so a drive-by edit to a spec file cannot silently move a
// calibrated table.
func TestSpecBuiltPresetsMatchLegacyTables(t *testing.T) {
	xeon := XeonE5()
	wantXeonLat := Latencies{
		L1Hit:              xeon.Cycles(4),
		DirLookup:          xeon.Cycles(19),
		HopLatency:         xeon.Cycles(3),
		CrossSocketPenalty: xeon.Cycles(144),
		LLCHit:             xeon.Cycles(53),
		DRAM:               xeon.Cycles(180),
		InvalidateCost:     xeon.Cycles(24),
		ExecCAS:            xeon.Cycles(19),
		ExecFAA:            xeon.Cycles(17),
		ExecSWAP:           xeon.Cycles(17),
		ExecTAS:            xeon.Cycles(16),
		ExecCAS2:           xeon.Cycles(25),
		ExecFence:          xeon.Cycles(33),
		ExecLoad:           0,
		ExecStore:          xeon.Cycles(1),
	}
	if xeon.Lat != wantXeonLat {
		t.Errorf("XeonE5 latency table drifted from the legacy constructor:\n got %+v\nwant %+v", xeon.Lat, wantXeonLat)
	}
	wantXeonEnergy := Energies{
		StaticWattsPerCore: 1.5, ActiveWattsPerThread: 1.8,
		LocalOpNJ: 1.0, PerHopNJ: 0.3, CrossSocketNJ: 15, LLCNJ: 8, DRAMNJ: 20,
	}
	if xeon.Energy != wantXeonEnergy {
		t.Errorf("XeonE5 energy table drifted: got %+v want %+v", xeon.Energy, wantXeonEnergy)
	}
	if xeon.Sockets != 2 || xeon.CoresPerSocket != 18 || xeon.ThreadsPerCore != 2 || xeon.FreqGHz != 2.4 {
		t.Errorf("XeonE5 layout drifted: %s", xeon)
	}
	if got := xeon.Topo.Name(); got != "dualring-2x18" {
		t.Errorf("XeonE5 topology = %s, want dualring-2x18", got)
	}
	for core := 0; core < xeon.NumCores(); core++ {
		if xeon.NodeOf(core) != core {
			t.Fatalf("XeonE5 core %d maps to node %d, want identity", core, xeon.NodeOf(core))
		}
	}

	knl := KNL()
	wantKNLLat := Latencies{
		L1Hit:              knl.Cycles(4),
		DirLookup:          knl.Cycles(52),
		HopLatency:         knl.Cycles(6),
		CrossSocketPenalty: 0,
		LLCHit:             knl.Cycles(104),
		DRAM:               knl.Cycles(169),
		InvalidateCost:     knl.Cycles(20),
		ExecCAS:            knl.Cycles(33),
		ExecFAA:            knl.Cycles(30),
		ExecSWAP:           knl.Cycles(30),
		ExecTAS:            knl.Cycles(28),
		ExecCAS2:           knl.Cycles(44),
		ExecFence:          knl.Cycles(40),
		ExecLoad:           0,
		ExecStore:          knl.Cycles(2),
	}
	if knl.Lat != wantKNLLat {
		t.Errorf("KNL latency table drifted from the legacy constructor:\n got %+v\nwant %+v", knl.Lat, wantKNLLat)
	}
	wantKNLEnergy := Energies{
		StaticWattsPerCore: 1.2, ActiveWattsPerThread: 0.9,
		LocalOpNJ: 0.8, PerHopNJ: 0.4, CrossSocketNJ: 0, LLCNJ: 12, DRAMNJ: 30,
	}
	if knl.Energy != wantKNLEnergy {
		t.Errorf("KNL energy table drifted: got %+v want %+v", knl.Energy, wantKNLEnergy)
	}
	if knl.Sockets != 1 || knl.CoresPerSocket != 64 || knl.ThreadsPerCore != 4 || knl.FreqGHz != 1.3 {
		t.Errorf("KNL layout drifted: %s", knl)
	}
	if got := knl.Topo.Name(); got != "mesh-6x6" {
		t.Errorf("KNL topology = %s, want mesh-6x6", got)
	}
	for core := 0; core < knl.NumCores(); core++ {
		if knl.NodeOf(core) != core/2 {
			t.Fatalf("KNL core %d maps to node %d, want tile %d", core, knl.NodeOf(core), core/2)
		}
	}
}

// TestRegisteredSpecsValidate checks every registered spec builds a
// machine that passes Validate, carries a digest, and keys distinctly
// from every other registered machine.
func TestRegisteredSpecsValidate(t *testing.T) {
	names := Names()
	if len(names) < 4 {
		t.Fatalf("only %d machines registered, want >= 4: %v", len(names), names)
	}
	keys := map[string]string{}
	for _, name := range names {
		m, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if m.SpecDigest() == "" {
			t.Errorf("%s: spec-built machine has no digest", name)
		}
		if !strings.Contains(m.Key(), "@") {
			t.Errorf("%s: Key() = %q lacks the @digest suffix", name, m.Key())
		}
		if prev, dup := keys[m.Key()]; dup {
			t.Errorf("machines %s and %s share cache key %s", prev, name, m.Key())
		}
		keys[m.Key()] = name
	}
}

// TestSpecRoundTrip checks Spec → JSON → Spec → JSON is byte-stable and
// that both sides build identical machines — the property the CI spec
// round-trip check and the resume cache's digest addressing rest on.
func TestSpecRoundTrip(t *testing.T) {
	for _, name := range Names() {
		s, err := SpecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := s.Canonical()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s2, err := ParseSpec(raw)
		if err != nil {
			t.Fatalf("%s: reparse: %v", name, err)
		}
		raw2, err := s2.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, raw2) {
			t.Errorf("%s: canonical encoding not stable:\n%s\nvs\n%s", name, raw, raw2)
		}
		m, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		m2, err := s2.Build()
		if err != nil {
			t.Fatal(err)
		}
		if m.Lat != m2.Lat || m.Energy != m2.Energy || m.Key() != m2.Key() || m.String() != m2.String() {
			t.Errorf("%s: round-tripped spec builds a different machine", name)
		}
	}
}

// TestDigestTracksContent checks the digest (and so the cache key)
// moves with any content change, while the name stays put — the
// property that keeps a tweaked spec out of the preset's cache
// namespace.
func TestDigestTracksContent(t *testing.T) {
	base, err := SpecByName("XeonE5")
	if err != nil {
		t.Fatal(err)
	}
	m0, err := base.Build()
	if err != nil {
		t.Fatal(err)
	}
	tweaks := []struct {
		name  string
		apply func(*Spec)
	}{
		{"frequency", func(s *Spec) { s.FreqGHz = 2.6 }},
		{"latency", func(s *Spec) { s.LatencyCycles.ExecCAS = 20 }},
		{"topology param", func(s *Spec) { s.Topology.Params["linkhops"] = 3 }},
		{"energy", func(s *Spec) { s.Energy.DRAMNJ = 21 }},
		{"store buffer", func(s *Spec) { s.StoreBufferDepth = 42 }},
	}
	for _, tw := range tweaks {
		s, err := SpecByName("XeonE5")
		if err != nil {
			t.Fatal(err)
		}
		tw.apply(s)
		m, err := s.Build()
		if err != nil {
			t.Fatalf("%s: %v", tw.name, err)
		}
		if m.Name != m0.Name {
			t.Fatalf("%s: tweak changed the name", tw.name)
		}
		if m.Key() == m0.Key() {
			t.Errorf("%s: tweaked spec kept cache key %s", tw.name, m.Key())
		}
	}
}

// TestKeyFallsBackToName covers hand-assembled machines (tests,
// ablation clones) that never went through Spec.Build.
func TestKeyFallsBackToName(t *testing.T) {
	m := &Machine{Name: "handmade"}
	if m.Key() != "handmade" || m.SpecDigest() != "" {
		t.Fatalf("hand-built machine: Key=%q digest=%q", m.Key(), m.SpecDigest())
	}
	// A struct copy of a spec-built machine keeps the digest: ablation
	// clones rename themselves ("XeonE5+F"), which moves the key.
	c := *XeonE5()
	c.Name = c.Name + "+F"
	if c.Key() != "XeonE5+F@"+c.SpecDigest() {
		t.Fatalf("clone key = %q", c.Key())
	}
}

func TestByNameErrorListsRegistered(t *testing.T) {
	_, err := ByName("warpdrive")
	if err == nil {
		t.Fatal("unknown machine accepted")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list registered machine %s", err, name)
		}
	}
}

func TestByNameAliases(t *testing.T) {
	for alias, canonical := range map[string]string{
		"xeon": "XeonE5", "XEON": "XeonE5", "xeone5": "XeonE5",
		"knl": "KNL", "epyc": "EPYC", "rome": "EPYC",
		"skylake": "XeonSP", "ideal": "Ideal8", "Ideal8": "Ideal8",
	} {
		m, err := ByName(alias)
		if err != nil {
			t.Errorf("ByName(%s): %v", alias, err)
			continue
		}
		if m.Name != canonical {
			t.Errorf("ByName(%s) = %s, want %s", alias, m.Name, canonical)
		}
	}
}

func TestParseSpecStrict(t *testing.T) {
	// Note encoding/json matches field names case-insensitively, so the
	// unknown field must differ by more than case.
	if _, err := ParseSpec([]byte(`{"name":"X","frequency":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ParseSpec([]byte(`{"name":"X"} trailing`)); err == nil {
		t.Error("trailing garbage accepted")
	}
}

func TestBuildRejects(t *testing.T) {
	good := func() *Spec {
		s, err := SpecByName("XeonE5")
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cases := []struct {
		name  string
		apply func(*Spec)
	}{
		{"empty name", func(s *Spec) { s.Name = "" }},
		{"zero freq", func(s *Spec) { s.FreqGHz = 0 }},
		{"unknown topology", func(s *Spec) { s.Topology.Kind = "warp-bus" }},
		{"bad topology param", func(s *Spec) { s.Topology.Params["spokes"] = 2 }},
		{"unknown node map", func(s *Spec) { s.NodeMap.Kind = "mod" }},
		{"div zero", func(s *Spec) { s.NodeMap = NodeMapSpec{Kind: "div"} }},
		{"negative latency", func(s *Spec) { s.LatencyCycles.DRAM = -1 }},
		{"oversized", func(s *Spec) { s.CoresPerSocket = 1 << 20 }},
		{"core outside topology", func(s *Spec) {
			s.Topology = TopoSpec{Kind: "ring", Params: topology.Params{"nodes": 4}}
		}},
	}
	for _, c := range cases {
		s := good()
		c.apply(s)
		if _, err := s.Build(); err == nil {
			t.Errorf("%s: Build accepted a broken spec", c.name)
		}
	}
}

// TestXeonMultiSocketMatchesPreset guards the derived-spec path: the
// socket sweep clones the XeonE5 spec, so its tables must stay
// latency-identical to the preset while keying distinctly.
func TestXeonMultiSocketMatchesPreset(t *testing.T) {
	base := XeonE5()
	m4 := XeonMultiSocket(4)
	if m4.Lat != base.Lat || m4.Energy != base.Energy {
		t.Fatal("XeonMultiSocket tables drifted from XeonE5")
	}
	if m4.Key() == base.Key() {
		t.Fatalf("Xeon4S shares cache key with XeonE5: %s", m4.Key())
	}
	if got := m4.Topo.Name(); got != "multiring-4x18" {
		t.Fatalf("Xeon4S topology = %s", got)
	}
}
