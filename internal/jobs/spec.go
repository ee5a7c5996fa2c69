// Package jobs turns the experiment harness into a crash-safe
// simulation job service: the library behind the atomicd daemon
// (cmd/atomicd). A job is a declarative JSON request — machines (by
// registered name or inline machine.Spec), workloads (by preset name
// or inline workload.Spec), apps (by registered name or inline
// apps.Spec, run as the A suite), and run options (quick/metrics/
// check/fleet/seed/deadline) — whose identity is a content digest
// derived from the same machine/workload/app sha256 digests that key
// the cell cache: identical requests are one job, deduplicated both
// in flight and across daemon restarts.
//
// Robustness is the package's whole job (DESIGN.md, "Simulation as a
// service"): submissions are journaled write-ahead (jobs.jsonl, via
// the internal/runlog JSONL conventions) before they are admitted, so
// a SIGKILL'd daemon recovers queued and in-flight jobs on restart and
// replays their completed cells from the shared cell cache; execution
// runs on a bounded worker pool with per-job deadlines
// (harness.Options.Context), capped exponential-backoff-with-jitter
// retries, and job-level panic isolation; admission control sheds load
// (bounded queue depth and per-client in-flight caps → HTTP 429)
// instead of growing without bound; and SIGTERM drains gracefully —
// stop admitting, finish what was accepted, flush, exit.
package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"atomicsmodel/internal/apps"
	"atomicsmodel/internal/harness"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/runlog"
	"atomicsmodel/internal/workload"
)

// Spec is one job request: the JSON body of POST /jobs. It is parsed
// strictly (unknown fields and trailing garbage are errors) like the
// machine and workload specs it embeds.
type Spec struct {
	// Machines lists registered machine names (aliases allowed) to run
	// on. Empty means the paper pair for workload jobs and every
	// registered machine for fleet jobs.
	Machines []string `json:"machines,omitempty"`
	// MachineSpec is an inline machine definition, run alongside any
	// named Machines.
	MachineSpec *machine.Spec `json:"machineSpec,omitempty"`

	// Workloads lists registered workload preset names. At least one
	// workload or app (named or inline) is required.
	Workloads []string `json:"workloads,omitempty"`
	// WorkloadSpec is an inline workload definition, run alongside any
	// named Workloads.
	WorkloadSpec *workload.Spec `json:"workloadSpec,omitempty"`

	// Apps lists registered app-spec names (concurrent-object
	// benchmarks, run as the A suite).
	Apps []string `json:"apps,omitempty"`
	// AppSpec is an inline app definition, run alongside any named Apps.
	AppSpec *apps.Spec `json:"appSpec,omitempty"`

	// Fleet runs the workloads as a fleet sweep (bottleneck verdicts
	// across machines, see BOTTLENECKS.md) instead of the plain W
	// suite. Knee optionally overrides the fleet knee-detection
	// utilization threshold (0 means the default).
	Fleet bool    `json:"fleet,omitempty"`
	Knee  float64 `json:"knee,omitempty"`

	// Quick trims sweeps to CI-speed runs; Metrics appends per-cell
	// breakdown tables; Check audits coherence/engine invariants.
	// Each joins the cell cache key exactly as the CLI flags do.
	Quick   bool `json:"quick,omitempty"`
	Metrics bool `json:"metrics,omitempty"`
	Check   bool `json:"check,omitempty"`

	// Seed is the base seed; zero means the CLI default (42).
	Seed uint64 `json:"seed,omitempty"`

	// DeadlineMS optionally overrides the server's per-job deadline in
	// milliseconds. Execution policy, not identity: it never joins the
	// job digest, because it cannot change the result.
	DeadlineMS int64 `json:"deadlineMS,omitempty"`
}

// DefaultSeed matches the CLIs' -seed default, so a job that omits the
// seed reuses their cache cells.
const DefaultSeed = 42

// maxJobList bounds each of the machine, workload and app lists; a
// longer one is a typo or an attack, not a plan.
const maxJobList = 64

// ParseSpec decodes a job request strictly: unknown fields (at any
// nesting level, including inline machine and workload specs) and
// trailing garbage are errors, so a typo'd knob can never be silently
// ignored.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("jobs: parsing job spec: %w", err)
	}
	var trailer json.RawMessage
	if err := dec.Decode(&trailer); err != io.EOF {
		return nil, fmt.Errorf("jobs: trailing data after the job spec object")
	}
	return &s, nil
}

// Resolved is a job spec with every name resolved against the live
// registries: the concrete machines and pinned workload and app specs
// the harness will run, the effective seed, and the experiments they
// make.
type Resolved struct {
	Machines    []*machine.Machine
	Specs       []*workload.Spec
	AppSpecs    []*apps.Spec
	Seed        uint64
	Experiments []*harness.Experiment
}

// Resolve validates the spec and resolves names to machines and
// workload specs through the same selection rules as the CLIs
// (harness.Select, harness.Selection). Resolution is deterministic:
// machines and workloads keep their request order, and the fleet
// default (every registered machine) is expanded here, at submit time,
// so the job's identity pins the machine set even if the registry
// later grows.
func (s *Spec) Resolve() (*Resolved, error) {
	for _, l := range []struct {
		name string
		n    int
	}{{"machines", len(s.Machines)}, {"workloads", len(s.Workloads)}, {"apps", len(s.Apps)}} {
		if l.n > maxJobList {
			return nil, fmt.Errorf("jobs: %d %s (max %d)", l.n, l.name, maxJobList)
		}
	}
	hasWorkloads := len(s.Workloads) > 0 || s.WorkloadSpec != nil
	hasApps := len(s.Apps) > 0 || s.AppSpec != nil
	if !hasWorkloads && !hasApps {
		return nil, fmt.Errorf("jobs: a job needs at least one workload (names in %q or an inline workloadSpec) or app (names in %q or an inline appSpec); registered workloads: %s",
			"workloads", "apps", strings.Join(workload.SpecNames(), ", "))
	}
	if s.Fleet && !hasWorkloads {
		return nil, fmt.Errorf("jobs: fleet sweeps run workloads; an apps-only job cannot set fleet=true")
	}
	if s.Knee != 0 && !s.Fleet {
		return nil, fmt.Errorf("jobs: knee is a fleet option; set fleet=true or drop it")
	}
	if s.DeadlineMS < 0 {
		return nil, fmt.Errorf("jobs: deadlineMS %d (want >= 0)", s.DeadlineMS)
	}

	r := &Resolved{Seed: s.Seed}
	if r.Seed == 0 {
		r.Seed = DefaultSeed
	}

	var inlineMachines []*machine.Machine
	if s.MachineSpec != nil {
		m, err := s.MachineSpec.Build()
		if err != nil {
			return nil, fmt.Errorf("jobs: inline machine spec: %w", err)
		}
		inlineMachines = []*machine.Machine{m}
	}
	ms, err := harness.Select(s.Machines, machine.ByName, inlineMachines, harness.MachineKey)
	if err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	switch {
	case len(ms) > 0:
		r.Machines = ms
	case s.Fleet:
		if r.Machines, err = harness.FleetMachines(nil); err != nil {
			return nil, fmt.Errorf("jobs: %w", err)
		}
	default:
		r.Machines = machine.All()
	}

	var inlineWorkloads []*workload.Spec
	if s.WorkloadSpec != nil {
		if err := s.WorkloadSpec.Validate(); err != nil {
			return nil, fmt.Errorf("jobs: inline workload spec: %w", err)
		}
		inlineWorkloads = []*workload.Spec{s.WorkloadSpec}
	}
	if r.Specs, err = harness.Select(s.Workloads, workload.SpecByName, inlineWorkloads, harness.SpecKey); err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}

	var inlineApps []*apps.Spec
	if s.AppSpec != nil {
		if err := s.AppSpec.Validate(); err != nil {
			return nil, fmt.Errorf("jobs: inline app spec: %w", err)
		}
		inlineApps = []*apps.Spec{s.AppSpec}
	}
	if r.AppSpecs, err = harness.Select(s.Apps, apps.SpecByName, inlineApps, harness.SpecKey); err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}

	sel := harness.Selection{Workloads: r.Specs, Apps: r.AppSpecs, Fleet: s.Fleet, Knee: s.Knee}
	if r.Experiments, err = sel.Experiments(); err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	return r, nil
}

// Validate checks the spec without keeping the resolution.
func (s *Spec) Validate() error {
	_, err := s.Resolve()
	return err
}

// jobIdentity is the canonical content the job ID hashes: machines by
// content key (Name@digest — machine.Key), workloads by spec digest,
// and every option that can change the result. Execution policy
// (DeadlineMS) is excluded: two requests that must produce the same
// bytes are the same job.
type jobIdentity struct {
	Machines  []string `json:"machines"`
	Workloads []string `json:"workloads"`
	// Apps is omitempty so workload-only job IDs predate the field
	// unchanged: adding the apps layer must not invalidate every
	// journaled job identity.
	Apps    []string `json:"apps,omitempty"`
	Fleet   bool     `json:"fleet,omitempty"`
	Knee    float64  `json:"knee,omitempty"`
	Quick   bool     `json:"quick,omitempty"`
	Metrics bool     `json:"metrics,omitempty"`
	Check   bool     `json:"check,omitempty"`
	Seed    uint64   `json:"seed"`
}

// ID returns the job's content-addressed identity: "j" plus the short
// sha256 of the canonical resolved form. Same inputs — through any
// spelling (machine aliases, implicit defaults, inline specs equal to
// presets) — same ID; any knob that changes the result changes it.
func (s *Spec) ID() (string, error) {
	r, err := s.Resolve()
	if err != nil {
		return "", err
	}
	ident := jobIdentity{
		Fleet: s.Fleet, Knee: s.Knee,
		Quick: s.Quick, Metrics: s.Metrics, Check: s.Check,
		Seed: r.Seed,
	}
	for _, m := range r.Machines {
		ident.Machines = append(ident.Machines, m.Key())
	}
	for _, w := range r.Specs {
		d, err := w.Digest()
		if err != nil {
			return "", fmt.Errorf("jobs: workload digest: %w", err)
		}
		ident.Workloads = append(ident.Workloads, "wl@"+d)
	}
	for _, a := range r.AppSpecs {
		d, err := a.Digest()
		if err != nil {
			return "", fmt.Errorf("jobs: app digest: %w", err)
		}
		ident.Apps = append(ident.Apps, "app@"+d)
	}
	b, err := json.Marshal(ident)
	if err != nil {
		return "", err
	}
	return "j" + runlog.Digest(b), nil
}
