// Package cli is the selection-flag layer the atomicsmodel commands
// share: -machines (and its -machine alias), -machinefile, -workloads,
// -workloadfile, -apps and -appfile. Each command registers the flags
// it takes and gets back a resolver that turns them into a list
// through harness.Select, so every command spells, splits and
// deduplicates a selection the same way the atomicd job server does.
package cli

import (
	"cmp"
	"flag"
	"strings"

	"atomicsmodel/internal/apps"
	"atomicsmodel/internal/harness"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/workload"
)

// SplitList splits a comma-separated flag value, trimming spaces and
// dropping empty items.
func SplitList(csv string) []string {
	var out []string
	for _, part := range strings.Split(csv, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// MachineFlags registers -machines, its -machine alias and
// -machinefile. The resolver returns the named machines, then the
// spec files' machines; with neither given it returns def, or nil when
// def is empty (the harness default: the paper pair, or every
// registered machine for a fleet sweep).
func MachineFlags(def string) func() ([]*machine.Machine, error) {
	names := flag.String("machines", "", "comma-separated registered machine names (default: "+cmp.Or(def, "the paper pair")+"; a bad name lists the registry)")
	alias := flag.String("machine", "", "alias for -machines")
	files := flag.String("machinefile", "", "comma-separated JSON machine spec files, alongside -machines")
	return func() ([]*machine.Machine, error) {
		list := append(SplitList(*names), SplitList(*alias)...)
		if len(list) == 0 && *files == "" && def != "" {
			list = []string{def}
		}
		return resolve(list, *files, machine.ByName, machine.LoadSpecFile, harness.MachineKey)
	}
}

// WorkloadFlags registers -workloads and -workloadfile, documented
// with what the command does with the selection.
func WorkloadFlags(use string) func() ([]*workload.Spec, error) {
	names := flag.String("workloads", "", "comma-separated registered workload spec names: "+use)
	files := flag.String("workloadfile", "", "comma-separated JSON workload spec files, alongside -workloads")
	return func() ([]*workload.Spec, error) {
		return resolve(SplitList(*names), *files, workload.SpecByName, workload.LoadSpecFile, harness.SpecKey)
	}
}

// AppFlags registers -apps and -appfile, documented with what the
// command does with the selection.
func AppFlags(use string) func() ([]*apps.Spec, error) {
	names := flag.String("apps", "", "comma-separated registered app spec names: "+use)
	files := flag.String("appfile", "", "comma-separated JSON app spec files, alongside -apps")
	return func() ([]*apps.Spec, error) {
		return resolve(SplitList(*names), *files, apps.SpecByName, apps.LoadSpecFile, harness.SpecKey)
	}
}

// resolve loads the comma-separated spec files and selects them after
// the named items.
func resolve[T any](names []string, files string, byName, load func(string) (T, error), key func(T) (string, error)) ([]T, error) {
	var loaded []T
	for _, path := range SplitList(files) {
		v, err := load(path)
		if err != nil {
			return nil, err
		}
		loaded = append(loaded, v)
	}
	return harness.Select(names, byName, loaded, key)
}
