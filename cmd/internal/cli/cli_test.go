package cli

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"atomicsmodel/internal/apps"
	"atomicsmodel/internal/harness"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/workload"
)

func TestSplitList(t *testing.T) {
	if got, want := SplitList(" F3, ,F5,"), []string{"F3", "F5"}; !reflect.DeepEqual(got, want) {
		t.Errorf("SplitList = %q, want %q", got, want)
	}
	if got := SplitList(""); got != nil {
		t.Errorf("SplitList(\"\") = %q, want nil", got)
	}
}

func selectMachines(names, files string) ([]*machine.Machine, error) {
	return resolve(SplitList(names), files, machine.ByName, machine.LoadSpecFile, harness.MachineKey)
}

func TestSelect(t *testing.T) {
	ms, err := selectMachines("XeonE5, knl", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 || ms[0].Name != "XeonE5" || ms[1].Name != "KNL" {
		t.Fatalf("select: got %v", ms)
	}

	// The same machine through two names is one cache namespace — reject.
	if _, err := selectMachines("XeonE5,xeon", ""); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicate selection: got %v", err)
	}

	// A spec file rides alongside names; a same-named but different spec
	// is allowed because the digests differ.
	s, err := machine.SpecByName("XeonE5")
	if err != nil {
		t.Fatal(err)
	}
	s.FreqGHz = 2.6
	raw, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "xeon26.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	ms, err = selectMachines("XeonE5", path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 || ms[0].Key() == ms[1].Key() {
		t.Fatalf("same-named custom spec must key distinctly: %v vs %v", ms[0].Key(), ms[1].Key())
	}

	// The byte-identical spec through a file is the preset again — reject.
	preset, err := machine.SpecByName("XeonE5")
	if err != nil {
		t.Fatal(err)
	}
	raw, err = preset.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	same := filepath.Join(t.TempDir(), "same.json")
	if err := os.WriteFile(same, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := selectMachines("XeonE5", same); err == nil {
		t.Fatal("byte-identical spec file selected alongside its preset")
	}
}

func TestSelectSpecs(t *testing.T) {
	wl := func(names string) ([]*workload.Spec, error) {
		return resolve(SplitList(names), "", workload.SpecByName, workload.LoadSpecFile, harness.SpecKey)
	}
	if _, err := wl("high-faa,High-FAA"); err == nil || !strings.Contains(err.Error(), "selected twice") {
		t.Fatalf("duplicate workload selection: got %v", err)
	}
	if sel, err := wl("high-faa,low-faa"); err != nil || len(sel) != 2 {
		t.Fatalf("workload selection: got %d specs, %v", len(sel), err)
	}
	ap := func(names string) ([]*apps.Spec, error) {
		return resolve(SplitList(names), "", apps.SpecByName, apps.LoadSpecFile, harness.SpecKey)
	}
	if _, err := ap("faa-counter,faa-counter"); err == nil || !strings.Contains(err.Error(), "selected twice") {
		t.Fatalf("duplicate app selection: got %v", err)
	}
	if sel, err := ap("faa-counter,cas-counter"); err != nil || len(sel) != 2 {
		t.Fatalf("app selection: got %d specs, %v", len(sel), err)
	}
	if sel, err := ap(""); err != nil || sel != nil {
		t.Fatalf("empty selection: got %v, %v; want nil", sel, err)
	}
}

// TestMachineFlags checks the -machine alias joins -machines (after
// it, in that order) and the default applies only with nothing given.
func TestMachineFlags(t *testing.T) {
	resolveFlags := MachineFlags("XeonE5")
	names := func(args ...string) []string {
		t.Helper()
		for _, f := range []string{"machines", "machine", "machinefile"} {
			flag.Set(f, "")
		}
		if err := flag.CommandLine.Parse(args); err != nil {
			t.Fatal(err)
		}
		ms, err := resolveFlags()
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	if got, want := names(), []string{"XeonE5"}; !reflect.DeepEqual(got, want) {
		t.Errorf("no flags: %v, want %v", got, want)
	}
	if got, want := names("-machine", "knl", "-machines", "EPYC"), []string{"EPYC", "KNL"}; !reflect.DeepEqual(got, want) {
		t.Errorf("-machines and -machine: %v, want %v", got, want)
	}
	if got, want := names("-machinefile", "../../../examples/machines/epyc.json"), []string{"EPYC"}; !reflect.DeepEqual(got, want) {
		t.Errorf("-machinefile alone: %v, want %v (no default added)", got, want)
	}
}
