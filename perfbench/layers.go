package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"atomicsmodel/internal/apps"
	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/harness"
	"atomicsmodel/internal/jobs"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/runlog"
	"atomicsmodel/internal/sim"
	"atomicsmodel/internal/topology"
	"atomicsmodel/internal/workload"
)

// The layer probes call the layers' public functions from the
// benchmark's own code and time them. Each takes a fixed amount of work
// so its figure is comparable across runs and commits.

type probeStep struct {
	name string
	fn   func() error
}

// probeLayers fills l with every probe's figures, each probe inside a
// span on the probes lane. it is the traced iteration whose run
// directory and inputs the probes reuse.
func (b *bench) probeLayers(l map[string]float64, it *iteration, parent int) error {
	steps := []probeStep{
		{"sim", func() error { l["sim.ns_per_event"] = probeSim(); return nil }},
		{"coherence", func() (err error) { l["coherence.ns_per_access"], err = probeCoherence(); return }},
		{"apps", func() error { return b.probeApps(l) }},
		{"metrics", func() (err error) { l["metrics.on_off_ratio"], err = probeMetrics(); return }},
		{"runlog", func() error { return b.probeRunlog(l, it) }},
		{"spec", func() (err error) { l["spec.parse_digest_us_p50"], err = probeSpecs(it.Bodies); return }},
	}
	if _, ok := l["jobs.recover_s"]; !ok {
		// The workload did not drive atomicd.
		steps = append(steps, probeStep{"jobs", func() error { return b.probeJobs(l, it.Dir, parent) }})
	}
	for _, s := range steps {
		_, end := b.tr.begin(s.name, "probes", parent)
		err := s.fn()
		end(nil)
		if err != nil {
			return fmt.Errorf("probe %s: %w", s.name, err)
		}
	}
	return nil
}

// probeSim times event push and pop through the engine's public
// Schedule/Run with about a thousand events pending: every event
// schedules its successor at a pseudo-random delay.
func probeSim() float64 {
	const pending, horizon = 1000, 400 * sim.Microsecond
	e := sim.NewEngine()
	x := uint64(88172645463325252)
	var fn func()
	fn = func() {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		e.Schedule(sim.Time(1+x%1000)*sim.Nanosecond, fn)
	}
	for range pending {
		fn()
	}
	p0 := e.Processed()
	t := time.Now()
	e.Run(horizon)
	return float64(time.Since(t).Nanoseconds()) / float64(e.Processed()-p0)
}

// probeCoherence times one contended RFO: the line is dirty in another
// core's cache, so every access walks request, home, owner and back,
// on a 16-core dual ring shaped like the Xeon preset.
func probeCoherence() (float64, error) {
	const n = 200000
	eng := sim.NewEngine()
	s, err := coherence.NewSystem(eng, coherence.Params{
		NumCores:           16,
		Topo:               topology.NewDualRing(8, 2),
		NodeOf:             func(c int) int { return c },
		L1Hit:              1 * sim.Nanosecond,
		DirLookup:          4 * sim.Nanosecond,
		HopLatency:         1 * sim.Nanosecond,
		CrossSocketPenalty: 30 * sim.Nanosecond,
		LLCHit:             12 * sim.Nanosecond,
		DRAM:               60 * sim.Nanosecond,
		InvalidateCost:     3 * sim.Nanosecond,
	}, nil)
	if err != nil {
		return 0, err
	}
	apply := func(cur uint64) (uint64, bool) { return cur + 1, true }
	s.Access(0, 1, coherence.RFO, 0, apply, nil)
	eng.Drain()
	t := time.Now()
	for i := range n {
		s.Access((i+1)%16, 1, coherence.RFO, 0, apply, nil)
		eng.Drain()
	}
	return float64(time.Since(t).Nanoseconds()) / n, nil
}

// probeApps runs one quick A-suite experiment per app preset on the
// XeonE5 preset through harness.RunExperiment and reports host time and
// heap allocations per simulated operation.
func (b *bench) probeApps(l map[string]float64) error {
	m, err := machine.ByName("XeonE5")
	if err != nil {
		return err
	}
	var totalMallocs float64
	var totalOps uint64
	for _, name := range mixApps {
		spec, err := apps.SpecByName(name)
		if err != nil {
			return err
		}
		dir := filepath.Join(b.out, "probe", "apps-"+name)
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		w, err := runlog.Create(dir)
		if err != nil {
			return err
		}
		opts := harness.Options{Quick: true, Seed: jobs.DefaultSeed, Par: 1,
			Machines: []*machine.Machine{m}, Manifest: w}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t := time.Now()
		_, err = harness.RunExperiment(harness.AppExperiment([]*apps.Spec{spec}), opts)
		ns := float64(time.Since(t).Nanoseconds())
		runtime.ReadMemStats(&after)
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		recs, err := readManifest(filepath.Join(dir, "manifest.jsonl"))
		if err != nil {
			return err
		}
		ops := summarizeCells(recs).Ops
		if ops == 0 {
			return fmt.Errorf("app %s simulated no operations", name)
		}
		l["apps."+name+".host_ns_per_sim_op"] = ns / float64(ops)
		totalMallocs += float64(after.Mallocs - before.Mallocs)
		totalOps += ops
	}
	l["apps.allocs_per_sim_op"] = totalMallocs / float64(totalOps)
	return nil
}

// probeMetrics runs a sample of fleet cells (two presets on two
// machines, quick window) through workload.Run with Config.Metrics off
// and on and returns the ratio of host times.
func probeMetrics() (float64, error) {
	var off, on time.Duration
	for _, mn := range []string{"XeonE5", "EPYC"} {
		m, err := machine.ByName(mn)
		if err != nil {
			return 0, err
		}
		for _, wn := range []string{"high-faa", "read-mix"} {
			s, err := workload.SpecByName(wn)
			if err != nil {
				return 0, err
			}
			s.WarmupPS, s.DurationPS = 10*sim.Microsecond, 100*sim.Microsecond
			for _, p := range s.Expand() {
				if p.Threads > m.NumHWThreads() {
					continue
				}
				for _, metricsOn := range []bool{false, true} {
					cfg, err := p.Config(m)
					if err != nil {
						return 0, err
					}
					cfg.Metrics = metricsOn
					t := time.Now()
					if _, err := workload.Run(cfg); err != nil {
						return 0, err
					}
					if metricsOn {
						on += time.Since(t)
					} else {
						off += time.Since(t)
					}
				}
			}
		}
	}
	return float64(on) / float64(off), nil
}

// probeRunlog times the cell cache and manifest on the iteration's own
// payloads: loading its cache, Get and the JSON decode of each spec
// cell, Put of every entry into a fresh cache, and appending the
// iteration's manifest records to a fresh manifest.
func (b *bench) probeRunlog(l map[string]float64, it *iteration) error {
	t := time.Now()
	c, err := runlog.OpenCacheReadOnly(it.Dir)
	if err != nil {
		return err
	}
	l["runlog.cache_load_s"] = time.Since(t).Seconds()
	l["runlog.cache_entries"] = float64(c.Len())
	entries, err := readCache(it.Dir)
	if err != nil {
		return err
	}
	var get, decode []float64
	for _, e := range entries {
		t := time.Now()
		v, _, ok := c.Get(e.Key)
		get = append(get, us(t))
		if !ok {
			return fmt.Errorf("cache entry %q not found after load", e.Key)
		}
		if layer := cellLayer(e.Key); layer != "" {
			t := time.Now()
			if _, err := decodeOps(layer, v); err != nil {
				return err
			}
			decode = append(decode, us(t))
		}
	}
	l["runlog.get_us_p50"] = median(get)
	l["runlog.decode_us_p50"] = median(decode)

	dir := filepath.Join(b.out, "probe", "runlog")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	pc, err := runlog.OpenCache(dir)
	if err != nil {
		return err
	}
	var put []float64
	for _, e := range entries {
		t := time.Now()
		if _, err := pc.Put(e.Key, e.Value); err != nil {
			return err
		}
		put = append(put, us(t))
	}
	if err := pc.Close(); err != nil {
		return err
	}
	l["runlog.put_us_p50"] = median(put)
	written, err := fileSize(filepath.Join(dir, "cells.jsonl"))
	if err != nil {
		return err
	}

	recs := it.Records
	if len(recs) == 0 {
		// No manifest (the daemon writes none): append one record per
		// cached cell instead.
		for i, e := range entries {
			recs = append(recs, runlog.CellRecord{Exp: "W", Cell: i, Key: e.Key, WallMS: 1})
		}
	}
	w, err := runlog.Create(dir)
	if err != nil {
		return err
	}
	var app []float64
	for _, r := range recs {
		t := time.Now()
		if err := w.Cell(r); err != nil {
			return err
		}
		app = append(app, us(t))
	}
	if err := w.Close(); err != nil {
		return err
	}
	l["runlog.manifest_append_us_p50"] = median(app)
	n, err := fileSize(filepath.Join(dir, "manifest.jsonl"))
	l["runlog.bytes_written"] = float64(written + n)
	return err
}

func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func us(since time.Time) float64 { return float64(time.Since(since).Nanoseconds()) / 1e3 }

// probeSpecs times strict parse plus digest of every registered
// workload, app and machine spec and of the job bodies, over several
// rounds.
func probeSpecs(bodies [][]byte) (float64, error) {
	type input struct {
		data []byte
		fn   func([]byte) error
	}
	var ins []input
	add := func(v any, fn func([]byte) error) error {
		b, err := json.Marshal(v)
		ins = append(ins, input{b, fn})
		return err
	}
	for _, n := range workload.SpecNames() {
		s, err := workload.SpecByName(n)
		if err != nil {
			return 0, err
		}
		if err := add(s, func(b []byte) error {
			s, err := workload.ParseSpec(b)
			if err == nil {
				_, err = s.Digest()
			}
			return err
		}); err != nil {
			return 0, err
		}
	}
	for _, n := range apps.SpecNames() {
		s, err := apps.SpecByName(n)
		if err != nil {
			return 0, err
		}
		if err := add(s, func(b []byte) error {
			s, err := apps.ParseSpec(b)
			if err == nil {
				_, err = s.Digest()
			}
			return err
		}); err != nil {
			return 0, err
		}
	}
	for _, n := range machine.Names() {
		s, err := machine.SpecByName(n)
		if err != nil {
			return 0, err
		}
		if err := add(s, func(b []byte) error {
			s, err := machine.ParseSpec(b)
			if err == nil {
				_, err = s.Digest()
			}
			return err
		}); err != nil {
			return 0, err
		}
	}
	for _, body := range bodies {
		ins = append(ins, input{body, func(b []byte) error {
			s, err := jobs.ParseSpec(b)
			if err == nil {
				_, err = s.ID()
			}
			return err
		}})
	}
	var ts []float64
	for range 20 {
		for _, in := range ins {
			t := time.Now()
			if err := in.fn(in.data); err != nil {
				return 0, fmt.Errorf("%s: %w", in.data, err)
			}
			ts = append(ts, us(t))
		}
	}
	return median(ts), nil
}

// probeJobs measures the job layer for the command-line workloads,
// which do not drive atomicd: an in-process jobs.Server opened on the
// iteration's run directory (recovery time) and served over loopback
// HTTP, running six quick workload jobs from the atomicd-mix stream
// and then the same six again (deduplicated, results from the cache).
func (b *bench) probeJobs(l map[string]float64, dir string, parent int) error {
	stream, err := b.mixStream()
	if err != nil {
		return err
	}
	var cold []*mixJob
	for _, j := range stream.Cold {
		if j.Class == classCold && j.Quick && len(j.Workloads) > 0 && len(cold) < 6 {
			cj := *j
			cj.Deps = nil
			cold = append(cold, &cj)
		}
	}
	var again []*mixJob
	for _, j := range cold {
		wj := *j
		wj.Class = classWarm
		again = append(again, &wj)
	}

	t := time.Now()
	srv, err := jobs.New(jobs.Config{Dir: dir, CellPar: 1})
	l["jobs.recover_s"] = time.Since(t).Seconds()
	if err != nil {
		return err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	coldOut, _ := b.phase(ts.URL, cold, true, parent)
	coldStats := srv.Stats()
	warmOut, _ := b.phase(ts.URL, again, true, parent)
	warmStats := srv.Stats()
	warmStats.CacheHits -= coldStats.CacheHits
	warmStats.CacheMisses -= coldStats.CacheMisses
	warmStats.Executed -= coldStats.Executed
	warmStats.Deduped -= coldStats.Deduped
	warmStats.Shed -= coldStats.Shed
	if err := srv.Drain(context.Background()); err != nil {
		return err
	}
	for _, o := range append(coldOut, warmOut...) {
		if o.Failed {
			return o.Err
		}
	}
	jobsLayers(l, coldOut, warmOut, coldStats, warmStats)
	return nil
}

// jobsLayers derives the job-layer metrics from job outcomes and the
// server counters of each phase.
func jobsLayers(l map[string]float64, coldOut, warmOut []*jobOutcome, cold, warm jobs.Stats) {
	var submit, queue, run, coldResult, warmResult []float64
	for _, o := range append(coldOut, warmOut...) {
		if o.Failed {
			continue
		}
		submit = append(submit, o.Submit*1e3)
		if o.Job.Class == classWarm {
			warmResult = append(warmResult, o.Result*1e3)
		} else {
			coldResult = append(coldResult, o.Result*1e3)
		}
		if !o.Running.IsZero() {
			queue = append(queue, o.Running.Sub(o.Start).Seconds()*1e3-o.Submit*1e3)
			run = append(run, o.Done.Sub(o.Running).Seconds()*1e3)
		}
	}
	l["jobs.submit_ms_p50"] = median(submit)
	l["jobs.queue_ms_p50"] = median(queue)
	l["jobs.run_ms_p50"] = median(run)
	l["jobs.cold.result_ms_p50"] = median(coldResult)
	l["jobs.warm.result_ms_p50"] = median(warmResult)
	l["jobs.cold.cache_hit_ratio"] = hitRatio(cold)
	l["jobs.warm.cache_hit_ratio"] = hitRatio(warm)
	l["jobs.executed"] = float64(cold.Executed + warm.Executed)
	l["jobs.deduped"] = float64(cold.Deduped + warm.Deduped)
	l["jobs.shed"] = float64(cold.Shed + warm.Shed)
}

func hitRatio(s jobs.Stats) float64 {
	if s.CacheHits+s.CacheMisses == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.CacheHits+s.CacheMisses)
}
