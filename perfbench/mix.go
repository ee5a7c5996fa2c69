package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strings"
)

// The atomicd-mix job stream. Jobs are built from groups: one machine
// and one preset, run as a quick or full W (workload) or A (app) job.
// The cold phase computes every group of the cold universe exactly
// once, so the simulation work of a cold phase is the same for every
// seed; the seed decides the order of the jobs, which of them are
// repeated or reused, and the warm phase's jobs.

var (
	mixMachines  = []string{"EPYC", "Grace", "KNL", "XeonE5", "XeonSP"}
	mixWorkloads = []string{"high-faa", "high-cas-retry", "low-faa", "read-mix", "open-loop-faa"}
	mixApps      = []string{"big-atomic", "cas-counter", "faa-counter", "ticket-lock", "treiber", "ws-deque"}
)

// mixBlock is one part of the cold universe: every machine with every
// preset of one kind, in one mode. Full app jobs are left out: they
// alone would take longer than a whole run.
type mixBlock struct {
	Quick   bool
	Kind    string // "W" or "A"
	Presets []string
}

var coldUniverse = []mixBlock{
	{Quick: true, Kind: "W", Presets: mixWorkloads},
	{Quick: false, Kind: "W", Presets: mixWorkloads},
	{Quick: true, Kind: "A", Presets: mixApps},
}

// Job classes in the stream.
const (
	classCold   = "cold"   // computes groups no earlier job computed
	classRepeat = "repeat" // the exact body of an earlier job (dedup)
	classShared = "shared" // a new identity made only of earlier jobs' groups
	classWarm   = "warm"   // after the restart: a new identity replaying cached groups
)

// mixJob is one job of the stream.
type mixJob struct {
	Class     string
	Quick     bool
	Machines  []string
	Workloads []string
	Apps      []string
	// Deps are the indexes of earlier jobs whose groups this job
	// replays; the client submits it only after they are done, so the
	// daemon never computes a group twice.
	Deps []int
	Body []byte
}

// jobBody is the JSON the daemon receives for a job.
type jobBody struct {
	Machines  []string `json:"machines"`
	Workloads []string `json:"workloads,omitempty"`
	Apps      []string `json:"apps,omitempty"`
	Quick     bool     `json:"quick,omitempty"`
}

func (j *mixJob) encode() {
	b, err := json.Marshal(jobBody{Machines: j.Machines, Workloads: j.Workloads, Apps: j.Apps, Quick: j.Quick})
	if err != nil {
		panic(err) // a struct of strings and a bool always encodes
	}
	j.Body = b
}

// groupKey names one table of a job result: the mode plus the table
// title the harness prints, e.g. "quick|W (EPYC): high-faa".
func groupKey(quick bool, kind, machine, preset string) string {
	return fmt.Sprintf("%s|%s (%s): %s", modeOf(quick), kind, machine, preset)
}

func modeOf(quick bool) string {
	if quick {
		return "quick"
	}
	return "full"
}

// groups lists the result tables a job must return.
func (j *mixJob) groups() []string {
	var out []string
	for _, m := range j.Machines {
		for _, w := range j.Workloads {
			out = append(out, groupKey(j.Quick, "W", m, w))
		}
		for _, a := range j.Apps {
			out = append(out, groupKey(j.Quick, "A", m, a))
		}
	}
	return out
}

func (j *mixJob) identity() string { return string(j.Body) }

// mixStream is a generated job stream.
type mixStream struct {
	Cold []*mixJob
	Warm []*mixJob
}

// Minimum sizes: a phase needs ≥100 jobs for a p90 with ten samples
// beyond it, and a warm job replays ≥100 cells so its latency is more
// than the HTTP round trip.
const (
	minPhaseJobs = 100
	minWarmCells = 100
)

// genMix generates the job stream for seed. cells gives the number of
// cells of a group (see groupKey).
func genMix(seed int64, cells func(group string) int) (*mixStream, error) {
	rng := rand.New(rand.NewSource(seed))
	var cold []*mixJob
	producer := map[string]*mixJob{}
	seen := map[string]bool{}

	// Cold jobs: one per group of the universe, in random order. Every
	// seed computes the same jobs, so the phase's work and the spread
	// of its job sizes do not depend on the seed.
	for _, blk := range coldUniverse {
		for _, m := range mixMachines {
			for _, p := range blk.Presets {
				j := &mixJob{Class: classCold, Quick: blk.Quick, Machines: []string{m}}
				if blk.Kind == "W" {
					j.Workloads = []string{p}
				} else {
					j.Apps = []string{p}
				}
				j.encode()
				producer[j.groups()[0]] = j
				seen[j.identity()] = true
				cold = append(cold, j)
			}
		}
	}
	rng.Shuffle(len(cold), func(i, k int) { cold[i], cold[k] = cold[k], cold[i] })
	computing := slices.Clone(cold)

	// Repeats and shared-cell jobs, a sixth of the phase each. Both
	// wait for the jobs whose cells they reuse, so a repeat is always
	// deduplicated against a finished job. Shared jobs all have two
	// machines and two presets and take the blocks in turn, so the
	// amount they replay is the same for every seed.
	nExtra := len(computing) / 4
	deps := map[*mixJob][]*mixJob{}
	insertAfter := func(j *mixJob, after []*mixJob) {
		last := -1
		for i, c := range cold {
			if slices.Contains(after, c) {
				last = i
			}
		}
		pos := last + 1 + rng.Intn(len(cold)-last)
		cold = slices.Insert(cold, pos, j)
		deps[j] = after
	}
	for range nExtra {
		src := computing[rng.Intn(len(computing))]
		r := *src
		r.Class = classRepeat
		insertAfter(&r, []*mixJob{src})
	}
	for made := 0; made < nExtra; {
		blk := coldUniverse[made%len(coldUniverse)]
		j := &mixJob{Class: classShared, Quick: blk.Quick, Machines: pick(rng, mixMachines, 2)}
		if blk.Kind == "W" {
			j.Workloads = pick(rng, blk.Presets, 2)
		} else {
			j.Apps = pick(rng, blk.Presets, 2)
		}
		j.encode()
		if seen[j.identity()] {
			continue
		}
		seen[j.identity()] = true
		var from []*mixJob
		for _, g := range j.groups() {
			if p := producer[g]; !slices.Contains(from, p) {
				from = append(from, p)
			}
		}
		insertAfter(j, from)
		made++
	}
	index := map[*mixJob]int{}
	for i, j := range cold {
		index[j] = i
	}
	for j, from := range deps {
		for _, p := range from {
			j.Deps = append(j.Deps, index[p])
		}
		slices.Sort(j.Deps)
	}

	// Warm jobs: three machines with three workloads and three apps in
	// quick mode. Every such group was computed by the cold phase, and
	// no cold job mixes workloads with apps, so each identity is new.
	var warm []*mixJob
	for tries := 0; len(warm) < minPhaseJobs; tries++ {
		if tries > 100*minPhaseJobs {
			return nil, fmt.Errorf("mix: could not draw %d warm jobs of ≥%d cells", minPhaseJobs, minWarmCells)
		}
		j := &mixJob{Class: classWarm, Quick: true,
			Machines:  pick(rng, mixMachines, 3),
			Workloads: pick(rng, mixWorkloads, 3),
			Apps:      pick(rng, mixApps, 3)}
		j.encode()
		n := 0
		for _, g := range j.groups() {
			n += cells(g)
		}
		if seen[j.identity()] || n < minWarmCells {
			continue
		}
		seen[j.identity()] = true
		warm = append(warm, j)
	}
	return &mixStream{Cold: cold, Warm: warm}, nil
}

// pick returns n distinct elements of xs in sorted order.
func pick(rng *rand.Rand, xs []string, n int) []string {
	idx := rng.Perm(len(xs))[:n]
	out := make([]string, n)
	for i, k := range idx {
		out[i] = xs[k]
	}
	slices.Sort(out)
	return out
}

// shares reports the measured class mix of the cold phase.
func (s *mixStream) shares() string {
	count := map[string]int{}
	for _, j := range s.Cold {
		count[j.Class]++
	}
	n := float64(len(s.Cold))
	var parts []string
	for _, c := range []string{classCold, classRepeat, classShared} {
		parts = append(parts, fmt.Sprintf("%s=%d (%.0f%%)", c, count[c], 100*float64(count[c])/n))
	}
	return fmt.Sprintf("cold phase %d jobs: %s; warm phase %d jobs", len(s.Cold), strings.Join(parts, " "), len(s.Warm))
}
