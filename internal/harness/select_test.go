package harness

import (
	"reflect"
	"strings"
	"testing"

	"atomicsmodel/internal/apps"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/workload"
)

func TestSelectionExperiments(t *testing.T) {
	wl, err := workload.SpecByName("low-faa")
	if err != nil {
		t.Fatal(err)
	}
	ap, err := apps.SpecByName("treiber")
	if err != nil {
		t.Fatal(err)
	}
	wls, aps := []*workload.Spec{wl}, []*apps.Spec{ap}
	all := IDs()
	cases := []struct {
		name string
		sel  Selection
		want []string
	}{
		{"no selection", Selection{}, all},
		{"exp only", Selection{IDs: []string{"F5", "T1"}}, []string{"F5", "T1"}},
		{"workloads only", Selection{Workloads: wls}, []string{"W"}},
		{"apps only", Selection{Apps: aps}, []string{"A"}},
		{"exp plus workloads", Selection{IDs: []string{"F3"}, Workloads: wls}, []string{"F3", "W"}},
		{"exp plus workloads and apps", Selection{IDs: []string{"F3"}, Workloads: wls, Apps: aps}, []string{"F3", "W", "A"}},
		{"fleet without workloads", Selection{Fleet: true}, []string{"FLEET"}},
		{"fleet plus workloads", Selection{Fleet: true, Workloads: wls}, []string{"FLEET"}},
		{"fleet plus apps", Selection{Fleet: true, Apps: aps, Knee: 0.8}, []string{"FLEET", "A"}},
		{"fleet knee of one", Selection{Fleet: true, Knee: 1}, []string{"FLEET"}},
		{"knee ignored without fleet", Selection{Workloads: wls, Knee: 0.9}, []string{"W"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			exps, err := c.sel.Experiments()
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, e := range exps {
				got = append(got, e.ID)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("experiments %v, want %v", got, c.want)
			}
		})
	}

	bad := []struct {
		name, wantErr string
		sel           Selection
	}{
		{"unknown experiment", "unknown experiment", Selection{IDs: []string{"F3", "F99"}}},
		{"knee above one", "knee 1.5", Selection{Fleet: true, Knee: 1.5}},
		{"negative knee", "knee -0.1", Selection{Fleet: true, Workloads: wls, Knee: -0.1}},
	}
	for _, c := range bad {
		t.Run(c.name, func(t *testing.T) {
			if _, err := c.sel.Experiments(); err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %v, want %q", err, c.wantErr)
			}
		})
	}
}

// TestFleetDefaultsToHighFAA runs the fleet sweep a selection without
// workloads makes, and checks it sweeps the high-faa preset.
func TestFleetDefaultsToHighFAA(t *testing.T) {
	exps, err := Selection{Fleet: true}.Experiments()
	if err != nil {
		t.Fatal(err)
	}
	tables, err := RunExperiment(exps[0], Options{Quick: true, Seed: 42, Machines: []*machine.Machine{machine.Ideal(8)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 || !strings.HasSuffix(tables[0].Title, ": high-faa") {
		t.Fatalf("fleet default swept %q, want high-faa", tables[0].Title)
	}
}

func TestFleetMachines(t *testing.T) {
	ms, err := FleetMachines(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(machine.Names()) {
		t.Errorf("fleet default: %d machines, want the %d registered", len(ms), len(machine.Names()))
	}
	pick := []*machine.Machine{machine.Ideal(4)}
	if got, _ := FleetMachines(pick); !reflect.DeepEqual(got, pick) {
		t.Errorf("explicit selection replaced: %v", got)
	}
}
