package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"atomicsmodel/internal/apps"
	"atomicsmodel/internal/jobs"
	"atomicsmodel/internal/workload"
)

// mixWorkload drives atomicd: a cold phase on an empty directory, a
// drained restart, and a warm phase of new jobs that replay the cold
// phase's cells.
type mixWorkload struct{}

// mixRestarts is how many times each iteration restarts the daemon;
// every restart is one setup_s sample and the last serves the warm
// phase.
const mixRestarts = 5

// mixSlots is how many cells the daemon runs at once: two job workers
// (its default) with one cell each (-par 1).
const mixSlots = 2

func (mixWorkload) iterate(b *bench, n int, traced bool, parent int) (*iteration, error) {
	stream, err := b.mixStream()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(b.out, "work", fmt.Sprintf("atomicd-mix-%d", n))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	it := &iteration{Dir: dir, Layers: map[string]float64{}}
	start := time.Now()
	var procs []*procResult
	var d *daemon // the live daemon, killed if the iteration fails
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	stop := func() error {
		res, err := d.stop()
		d = nil
		if err != nil {
			return err
		}
		procs = append(procs, res)
		return nil
	}

	if d, err = b.startDaemon(dir, traced); err != nil {
		return nil, err
	}
	coldID, endCold := b.tr.begin("cold phase", "phases", parent)
	coldOut, coldS := b.phase(d.base, stream.Cold, traced, coldID)
	endCold(nil)
	coldStats, err := newClient(b.ctx, "bench", d.base).healthz()
	if err != nil {
		return nil, err
	}
	if err := stop(); err != nil {
		return nil, err
	}

	if traced {
		// The job layer's own recovery on the cold directory, timed
		// in-process while no daemon holds it.
		_, end := b.tr.begin("jobs.New (recover)", "probes", parent)
		t := time.Now()
		srv, err := jobs.New(jobs.Config{Dir: dir})
		it.Layers["jobs.recover_s"] = time.Since(t).Seconds()
		end(nil)
		if err != nil {
			return nil, err
		}
		if err := srv.Drain(context.Background()); err != nil {
			return nil, err
		}
	}

	_, endRestart := b.tr.begin("restarts", "phases", parent)
	for r := 0; r < mixRestarts; r++ {
		if d, err = b.startDaemon(dir, traced); err != nil {
			return nil, err
		}
		it.Setup = append(it.Setup, d.ready)
		if r < mixRestarts-1 {
			if err := stop(); err != nil {
				return nil, err
			}
		}
	}
	endRestart(nil)
	warmID, endWarm := b.tr.begin("warm phase", "phases", parent)
	warmOut, warmS := b.phase(d.base, stream.Warm, traced, warmID)
	endWarm(nil)
	warmStats, err := newClient(b.ctx, "bench", d.base).healthz()
	if err != nil {
		return nil, err
	}
	if err := stop(); err != nil {
		return nil, err
	}
	it.Wall = time.Since(start).Seconds()

	for _, p := range procs {
		it.CPU += p.CPU
		it.RSS = max(it.RSS, p.MaxRSSMB)
	}
	it.Resume = warmS
	it.PhaseS = coldS + warmS
	for _, o := range append(coldOut, warmOut...) {
		it.Attempted++
		if o.Failed {
			it.Failed++
			if it.CheckErr == nil {
				it.CheckErr = o.Err
			}
			continue
		}
		it.Units++
		if o.Job.Class == classWarm {
			it.WarmLat = append(it.WarmLat, o.latency())
		} else {
			it.ColdLat = append(it.ColdLat, o.latency())
		}
	}
	entries, err := readCache(dir)
	if err != nil {
		return nil, err
	}
	var ops map[string]uint64
	if ops, err = cacheOps(entries); err != nil {
		return nil, err
	}
	it.Ops = ops["workload"] + ops["apps"]
	for _, j := range stream.Cold {
		it.Bodies = append(it.Bodies, j.Body)
	}

	if traced {
		mixLayers(it, entries, ops, coldOut, warmOut, coldS, coldStats, warmStats)
		var alloc, gcw, wall float64
		for _, p := range procs {
			g := gcTrace(p.Stderr)
			alloc += g.AllocMB
			gcw += g.CPUFrac * p.Wall
			wall += p.Wall
		}
		it.Layers["runtime.alloc_mb"] = alloc
		it.Layers["runtime.gc_cpu_frac"] = gcw / wall
	}
	return it, nil
}

// mixStream generates (once per run) the job stream for the run's seed.
func (b *bench) mixStream() (*mixStream, error) {
	if b.stream == nil {
		s, err := genMix(b.seed, func(g string) int { return b.digests.Mix[g].Cells })
		if err != nil {
			return nil, err
		}
		b.stream = s
	}
	return b.stream, nil
}

// cacheOps sums the simulated operations of the cached cells by layer.
func cacheOps(entries []cacheLine) (map[string]uint64, error) {
	ops := map[string]uint64{}
	for _, e := range entries {
		l := cellLayer(e.Key)
		if l == "" {
			continue
		}
		n, err := decodeOps(l, e.Value)
		if err != nil {
			return nil, fmt.Errorf("cache entry %s: %w", e.Key, err)
		}
		ops[l] += n
	}
	return ops, nil
}

// decodeOps decodes a cached cell result the way the harness replays
// it and returns its simulated operation count.
func decodeOps(layer string, raw []byte) (uint64, error) {
	if layer == "workload" {
		var r workload.Result
		if err := json.Unmarshal(raw, &r); err != nil {
			return 0, err
		}
		_, n := r.CellStats()
		return n, nil
	}
	var r apps.RunResult
	if err := json.Unmarshal(raw, &r); err != nil {
		return 0, err
	}
	_, n := r.CellStats()
	return n, nil
}

// mixLayers derives the harness, workload, apps and jobs layer metrics
// of a traced atomicd-mix iteration from its job streams, the daemon
// counters and the cell cache. Cells run one at a time inside a job, so
// a job's running time is the time of its cells.
func mixLayers(it *iteration, entries []cacheLine, ops map[string]uint64, coldOut, warmOut []*jobOutcome, coldS float64, cold, warm jobs.Stats) {
	l := it.Layers
	computed := 0
	seen := map[string]bool{}
	dups := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Key, "job/") {
			continue
		}
		computed++
		if ck, ok := contentKey(e.Key); ok {
			if seen[ck] {
				dups++
			}
			seen[ck] = true
		}
	}
	total := int(cold.CellsDone + warm.CellsDone)
	l["harness.cells_total"] = float64(total)
	l["harness.cells_computed"] = float64(computed)
	l["harness.cells_cached"] = float64(total - computed)
	l["harness.dup_content_cells"] = float64(dups)
	l["harness.dup_content_s"] = 0 // the daemon does not report per-cell times

	var ivs []interval
	var runS, maxGap float64
	layerS := map[string]float64{}
	var origin time.Time
	for _, o := range coldOut {
		if origin.IsZero() || o.Start.Before(origin) {
			origin = o.Start
		}
	}
	for _, o := range coldOut {
		if o.Failed || o.Running.IsZero() {
			continue // failed, or deduplicated against a finished job
		}
		r := o.Done.Sub(o.Running).Seconds()
		runS += r
		maxGap = max(maxGap, o.MaxCellGap)
		ivs = append(ivs, interval{o.Running.Sub(origin).Seconds(), o.Done.Sub(origin).Seconds()})
		if len(o.Job.Workloads) > 0 {
			layerS["workload"] += r
		} else {
			layerS["apps"] += r
		}
	}
	l["harness.cell_s_sum"] = runS
	l["harness.cell_max_s"] = maxGap
	l["harness.par_efficiency"] = runS / (coldS * mixSlots)
	l["harness.tail_s"] = tailTime(ivs, mixSlots)
	for _, name := range []string{"workload", "apps"} {
		ls := layerSum{CellS: layerS[name], Ops: ops[name]}
		l[name+".cell_s_sum"] = ls.CellS
		l[name+".sim_ops"] = float64(ls.Ops)
		l[name+".host_ns_per_sim_op"] = ls.nsPerOp()
	}
	jobsLayers(l, coldOut, warmOut, cold, warm)
}
