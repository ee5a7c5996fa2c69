package harness

import (
	"strings"
	"testing"

	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/workload"
)

// TestFastForwardDifferential is the soundness regression test for the
// steady-state cycle memoizer (internal/workload's analytic
// fast-forward): every experiment, and the W suite of every registered
// workload preset across every registered machine (the fleet machines
// atomicd and -fleet run, beyond the paper pair), must render
// byte-identical tables with the memoizer disabled and enabled. The
// memoizer elides verified periodic cycles analytically, so the only
// acceptable difference is how many events the engine dispatches —
// never a reported number.
func TestFastForwardDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	if !workload.FastForwardEnabled() {
		t.Fatal("fast-forward must default to on")
	}
	defer workload.SetFastForward(true)
	ids := IDs()
	var specs []*workload.Spec
	for _, name := range workload.SpecNames() {
		s, err := workload.SpecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	var machines []*machine.Machine
	for _, name := range machine.Names() {
		m, err := machine.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		machines = append(machines, m)
	}
	render := func() string {
		tables, err := WorkloadExperiment(specs).Run(Options{Machines: machines, Quick: true, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, tb := range tables {
			if err := tb.Render(&sb); err != nil {
				t.Fatal(err)
			}
		}
		return renderAll(t, quickOpts(), ids) + sb.String()
	}
	workload.SetFastForward(false)
	slow := render()
	workload.SetFastForward(true)
	fast := render()
	if slow != fast {
		t.Fatalf("fast-forward changed experiment output:\n--- ff off ---\n%s\n--- ff on ---\n%s", slow, fast)
	}
}

// TestShardCountInvariance proves cell results are invariant to the
// engine's event-queue shard count: the sharded heaps merge by global
// (timestamp, sequence) order, so any shard count must reproduce the
// single-heap schedule exactly. F3 covers the closed-loop contention
// sweep; F9 adds an open-loop cell shape.
func TestShardCountInvariance(t *testing.T) {
	defer workload.SetEngineShards(0)
	ids := []string{"F3", "F9"}
	var base string
	for _, shards := range []int{1, 2, 8} {
		workload.SetEngineShards(shards)
		got := renderAll(t, quickOpts(), ids)
		if shards == 1 {
			base = got
			continue
		}
		if got != base {
			t.Fatalf("shards=%d output differs from shards=1:\n--- 1 ---\n%s\n--- %d ---\n%s", shards, base, shards, got)
		}
	}
}
