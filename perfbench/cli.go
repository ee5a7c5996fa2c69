package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"atomicsmodel/internal/harness"
	"atomicsmodel/internal/runlog"
)

// cliWorkload runs atomicsim in each iteration: a cold run that
// computes every cell into a fresh run directory (-manifest), then
// cliResumes replays of the same command from that directory (-resume).
// The replay figures are the median of the replays.
type cliWorkload struct {
	name string
	// args builds the atomicsim selection flags for a seed; the seed
	// only orders the selection, so every seed does the same work.
	args func(rng *rand.Rand) []string
	// setupOnResume takes setup_s from the resume run (cache load
	// included) instead of the cold run.
	setupOnResume bool
}

// cliPar caps concurrent cells: at most two run at once.
const cliPar = 2

// cliResumes is how many times an iteration replays its run directory;
// a replay is short, so one sample per iteration would be noisy.
const cliResumes = 3

var paperFull = &cliWorkload{
	name: "paper-full",
	args: func(rng *rand.Rand) []string {
		var ids []string
		for _, e := range harness.All() {
			ids = append(ids, e.ID)
		}
		shuffle(rng, ids)
		return []string{"-quick", "-par", strconv.Itoa(cliPar), "-exp", strings.Join(ids, ",")}
	},
	setupOnResume: true,
}

var fleetAppsMetrics = &cliWorkload{
	name: "fleet-apps-metrics",
	args: func(rng *rand.Rand) []string {
		ms := shuffle(rng, append([]string(nil), mixMachines...))
		ws := shuffle(rng, append([]string(nil), mixWorkloads...))
		as := shuffle(rng, append([]string(nil), mixApps...))
		return []string{"-quick", "-par", strconv.Itoa(cliPar), "-fleet", "-metrics",
			"-workloads", strings.Join(ws, ","), "-apps", strings.Join(as, ","),
			"-machines", strings.Join(ms, ",")}
	},
}

func shuffle(rng *rand.Rand, xs []string) []string {
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	return xs
}

func (w *cliWorkload) iterate(b *bench, n int, traced bool, parent int) (*iteration, error) {
	dir := filepath.Join(b.out, "work", fmt.Sprintf("%s-%d", w.name, n))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	args := w.args(rand.New(rand.NewSource(b.seed)))
	bin := filepath.Join(b.bin, "atomicsim")
	run := func(name string, extra ...string) (*procResult, []runlog.CellRecord, int, error) {
		id, end := b.tr.begin(name, "atomicsim", parent)
		res, err := runProc(b.ctx, name, bin, append(slices.Clone(args), extra...), traced)
		end(nil)
		if err != nil {
			return nil, nil, 0, err
		}
		recs, err := readManifest(filepath.Join(dir, "manifest.jsonl"))
		return res, recs, id, err
	}

	cold, coldRecs, coldID, err := run("atomicsim cold", "-manifest", dir)
	if err != nil {
		return nil, err
	}
	cs := summarizeCells(coldRecs)
	it := &iteration{Dir: dir, Records: coldRecs, Ops: cs.Ops, ColdLat: cs.ComputedS}
	it.Attempted, it.Failed = cs.Total, cs.Failed
	var rs cellSummary
	var cpu, wall []float64
	for r := range cliResumes {
		resume, recs, _, err := run(fmt.Sprintf("atomicsim resume %d", r), "-resume", dir)
		if err != nil {
			return nil, err
		}
		rs = summarizeCells(recs[len(coldRecs)+r*cs.Total:])
		wall = append(wall, resume.Wall)
		cpu = append(cpu, resume.CPU)
		it.RSS = max(it.RSS, resume.MaxRSSMB)
		it.WarmLat = append(it.WarmLat, rs.CachedS...)
		it.Attempted += rs.Total
		it.Failed += rs.Failed
		if w.setupOnResume {
			it.Setup = append(it.Setup, resume.Setup)
		}
		switch {
		case !bytes.Equal(cold.Stdout, resume.Stdout):
			it.CheckErr = fmt.Errorf("%s: resume output differs from the cold run's", w.name)
		case rs.Computed != 0:
			it.CheckErr = fmt.Errorf("%s: resume recomputed %d cells", w.name, rs.Computed)
		}
		if traced && r == 0 {
			g1, g2 := gcTrace(cold.Stderr), gcTrace(resume.Stderr)
			it.Layers = harnessLayers(cs, rs, cold.Wall, cliPar, b.cellSpans(cold, coldRecs, coldID))
			it.Layers["runtime.alloc_mb"] = g1.AllocMB + g2.AllocMB
			it.Layers["runtime.gc_cpu_frac"] = (g1.CPUFrac*cold.Wall + g2.CPUFrac*resume.Wall) / (cold.Wall + resume.Wall)
		}
	}
	if !w.setupOnResume {
		it.Setup = []float64{cold.Setup}
	}
	it.Resume = median(wall)
	it.Wall = cold.Wall + it.Resume
	it.CPU = cold.CPU + median(cpu)
	it.RSS = max(it.RSS, cold.MaxRSSMB)
	it.Units = cs.Total + rs.Total
	it.PhaseS = it.Wall
	if it.CheckErr == nil {
		if err := checkTables(cold.Stdout, b.digests.Tables[w.name]); err != nil {
			it.CheckErr = fmt.Errorf("%s: %w", w.name, err)
		}
	}
	return it, nil
}

// cellSpans places each computed cell in time: it ended when atomicsim
// reported its completion on stderr and started its manifest wall time
// earlier. The k-th progress update of an experiment is matched with
// its k-th manifest record. Spans go to the trace on one lane per
// concurrently busy slot.
func (b *bench) cellSpans(cold *procResult, recs []runlog.CellRecord, parent int) []interval {
	byExp := map[string][]runlog.CellRecord{}
	for _, r := range recs {
		byExp[r.Exp] = append(byExp[r.Exp], r)
	}
	seen := map[string]int{}
	var ivs []interval
	var laneEnd []float64
	for _, ev := range cold.progress() {
		k := seen[ev.Exp]
		seen[ev.Exp]++
		if k >= len(byExp[ev.Exp]) {
			continue
		}
		r := byExp[ev.Exp][k]
		iv := interval{Start: ev.At - r.WallMS/1e3, End: ev.At}
		ivs = append(ivs, iv)
		if b.tr == nil {
			continue
		}
		lane := 0
		for lane < len(laneEnd) && laneEnd[lane] > iv.Start {
			lane++
		}
		if lane == len(laneEnd) {
			laneEnd = append(laneEnd, 0)
		}
		laneEnd[lane] = iv.End
		at := func(s float64) time.Duration {
			return b.tr.since(cold.start) + time.Duration(s*float64(time.Second))
		}
		b.tr.add("cell", fmt.Sprintf("cell slot %d", lane), parent, at(iv.Start), at(iv.End),
			map[string]any{"exp": r.Exp, "key": r.Key, "cached": r.Cached})
	}
	return ivs
}

// harnessLayers derives the harness, workload and apps layer metrics
// of one iteration from its manifests.
func harnessLayers(cold, resume cellSummary, coldWall float64, par int, ivs []interval) map[string]float64 {
	l := map[string]float64{
		"harness.cells_total":       float64(cold.Total + resume.Total),
		"harness.cells_computed":    float64(cold.Computed + resume.Computed),
		"harness.cells_cached":      float64(cold.Cached + resume.Cached),
		"harness.dup_content_cells": float64(cold.DupCells),
		"harness.dup_content_s":     cold.DupS,
		"harness.cell_s_sum":        cold.CellS,
		"harness.cell_max_s":        cold.MaxCellS,
		"harness.par_efficiency":    cold.CellS / (coldWall * float64(par)),
		"harness.tail_s":            tailTime(ivs, par),
	}
	for _, name := range []string{"workload", "apps"} {
		ls := cold.Layers[name]
		l[name+".cell_s_sum"] = ls.CellS
		l[name+".sim_ops"] = float64(ls.Ops)
		l[name+".host_ns_per_sim_op"] = ls.nsPerOp()
	}
	return l
}
