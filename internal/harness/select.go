package harness

import (
	"fmt"
	"strings"

	"atomicsmodel/internal/apps"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/workload"
)

// Select resolves one list of a run's selection: each name through
// byName, then the extra items (spec files a CLI loaded, or a job's
// inline spec), in request order. Two items with the same key are an
// error, because the harness keys cells by content and would silently
// fold their cells together. An empty selection is nil.
func Select[T any](names []string, byName func(string) (T, error), extra []T, key func(T) (string, error)) ([]T, error) {
	var out []T
	for _, name := range names {
		v, err := byName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	out = append(out, extra...)
	seen := map[string]bool{}
	for _, v := range out {
		k, err := key(v)
		if err != nil {
			return nil, err
		}
		if seen[k] {
			return nil, fmt.Errorf("%s selected twice", k)
		}
		seen[k] = true
	}
	return out, nil
}

// MachineKey is a machine's Select key: its cache identity
// (machine.Machine.Key), so an alias and its preset collide.
func MachineKey(m *machine.Machine) (string, error) {
	return "machine " + m.Key(), nil
}

// SpecKey is a workload or app spec's Select key: its content digest.
func SpecKey[S interface {
	Digest() (string, error)
	Label() string
}](s S) (string, error) {
	d, err := s.Digest()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("spec %s (digest %s)", s.Label(), d), nil
}

// Selection is what a run asks for: registered experiment IDs, the
// workload specs (run as the W suite, or swept across machines when
// Fleet is set) and the app specs (the A suite).
type Selection struct {
	IDs       []string
	Workloads []*workload.Spec
	Apps      []*apps.Spec
	Fleet     bool
	// Knee is the fleet knee-detection utilization threshold, in
	// (0, 1]; zero means the default.
	Knee float64
}

// Experiments turns a selection into the experiments to run, in
// order: the named experiments, then the fleet sweep or the W suite,
// then the A suite. With nothing selected every registered experiment
// runs. A fleet sweep without workloads sweeps the high-faa preset.
func (s Selection) Experiments() ([]*Experiment, error) {
	var exps []*Experiment
	for _, id := range s.IDs {
		e, err := ByID(id)
		if err != nil {
			return nil, err
		}
		exps = append(exps, e)
	}
	if len(s.IDs) == 0 && len(s.Workloads) == 0 && len(s.Apps) == 0 && !s.Fleet {
		return All(), nil
	}
	if s.Fleet {
		// Utilizations are clamped to [0, 1], so a threshold above 1
		// is never crossed.
		if s.Knee < 0 || s.Knee > 1 {
			return nil, fmt.Errorf("harness: knee %g (want a utilization threshold in (0,1])", s.Knee)
		}
		specs := s.Workloads
		if len(specs) == 0 {
			w, err := workload.SpecByName("high-faa")
			if err != nil {
				return nil, err
			}
			specs = []*workload.Spec{w}
		}
		exps = append(exps, FleetExperiment(specs, s.Knee))
	} else if len(s.Workloads) > 0 {
		exps = append(exps, WorkloadExperiment(s.Workloads))
	}
	if len(s.Apps) > 0 {
		exps = append(exps, AppExperiment(s.Apps))
	}
	return exps, nil
}

// FleetMachines is a fleet sweep's machine list: the selected machines
// if any, otherwise every registered spec (EPYC, Grace, KNL, XeonE5,
// XeonSP, ... — not machine.All()'s default pair).
func FleetMachines(selected []*machine.Machine) ([]*machine.Machine, error) {
	if len(selected) > 0 {
		return selected, nil
	}
	var ms []*machine.Machine
	for _, name := range machine.Names() {
		m, err := machine.ByName(name)
		if err != nil {
			return nil, err
		}
		ms = append(ms, m)
	}
	return ms, nil
}
