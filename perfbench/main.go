// Command perfbench is the repository benchmark. It builds nothing
// itself: run.sh builds atomicsim, atomicd and this program from the
// checkout, then runs
//
//	perfbench -workload NAME -seed N -seconds S -trace 0|1
//
// One run repeats the workload for about S seconds on freshly built
// binaries, checks every output against the digests recorded in
// digests.json, and prints one JSON object as its last line of
// standard output. With -trace 0 it holds the end-to-end metrics; with
// -trace 1 the per-layer metrics of a traced run, whose spans are
// written as Chrome trace_event JSON. README.md describes the workloads
// and metrics; layers.json maps each layer metric to the end-to-end
// metric it should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"atomicsmodel/internal/runlog"
)

// iteration is one repetition of a workload.
type iteration struct {
	Wall, CPU, RSS float64 // s, s, MB
	Setup          []float64
	Resume         float64 // s, the replay phase
	Ops            uint64  // simulated operations computed
	// ColdLat and WarmLat are per-unit latencies in seconds: cells for
	// the command-line workloads, jobs for atomicd-mix.
	ColdLat, WarmLat  []float64
	Units             int     // units completed
	PhaseS            float64 // s the units took
	Attempted, Failed int
	CheckErr          error

	// Inputs the layer probes reuse.
	Dir     string
	Records []runlog.CellRecord
	Bodies  [][]byte

	Layers map[string]float64 // traced iterations only
}

// benchWorkload is one of the benchmark's workloads.
type benchWorkload interface {
	iterate(b *bench, n int, traced bool, parent int) (*iteration, error)
}

var workloads = map[string]benchWorkload{
	"paper-full":         paperFull,
	"fleet-apps-metrics": fleetAppsMetrics,
	"atomicd-mix":        mixWorkload{},
}

// runLimit bounds a whole run, well inside the 180 s a run may take.
const runLimit = 160 * time.Second

type bench struct {
	ctx            context.Context
	root, bin, out string
	seed           int64
	seconds        float64
	digests        *digestFile
	tr             *tracer
	stream         *mixStream
	host           map[string]any
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: paper-full, fleet-apps-metrics or atomicd-mix")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 25, "how long to measure")
		trace   = flag.Int("trace", 0, "1 for the traced per-layer run")
		root    = flag.String("root", ".", "repository checkout")
		bin     = flag.String("bin", "", "directory holding the built atomicsim and atomicd")
		out     = flag.String("out", "", "scratch directory for run directories and traces")
		record  = flag.Bool("record", false, "run every workload once and rewrite digests.json from its outputs")
		analyze = flag.String("analyze", "", "print the harness figures of an atomicsim -manifest run directory and exit")
	)
	flag.Parse()
	// Every process and request of a run ends by the deadline, so a hung
	// program fails the run instead of hanging it.
	limit := runLimit
	if *record {
		limit = 10 * time.Minute
	}
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	b := &bench{ctx: ctx, root: *root, bin: *bin, out: *out, seed: *seed, seconds: *seconds}

	if *analyze != "" {
		if err := analyzeDir(*analyze); err != nil {
			fatal(err)
		}
		return
	}
	if *record {
		if err := b.record(); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := workloads[*name]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	d, err := loadDigests(filepath.Join(b.root, "perfbench", "digests.json"))
	if err != nil {
		fatal(err)
	}
	b.digests = d

	b.host = hostInfo()
	hb, _ := json.Marshal(b.host) // strings and numbers always encode
	fmt.Printf("# host %s\n", hb)
	res, err := b.run(*name, w, *trace == 1)
	if err != nil {
		fmt.Println("# error:", err)
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fatal(jerr)
	}
	fmt.Println(string(line))
	if err != nil || !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// run measures a workload for b.seconds. Untraced runs repeat it and
// report end-to-end medians. Traced runs alternate untraced and traced
// iterations for part of the time, then run the layer probes.
func (b *bench) run(name string, w benchWorkload, traced bool) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var iters, tracedIters []*iteration
	var plain, withTrace []float64
	start := time.Now()
	budget := b.seconds
	var tr *tracer
	if traced {
		budget *= 0.6
		tr = newTracer(fmt.Sprintf("%s seed %d", name, b.seed))
	}
	for n := 0; ; n++ {
		doTrace := traced && n%2 == 1
		parent := 0
		var end func(map[string]any)
		b.tr = nil
		if doTrace {
			b.tr = tr
			parent, end = b.tr.begin(fmt.Sprintf("%s iteration %d", name, n), "iterations", 0)
		}
		it, err := w.iterate(b, n, doTrace, parent)
		if end != nil {
			end(nil)
		}
		if err != nil {
			res.Correct = false
			return res, err
		}
		res.Attempted += it.Attempted
		res.Failed += it.Failed
		if it.CheckErr != nil {
			res.Correct = false
			return res, it.CheckErr
		}
		fmt.Printf("# iteration %d (traced %v): wall %.4fs cpu %.4fs resume %.4fs rss %.1fMB\n",
			n, doTrace, it.Wall, it.CPU, it.Resume, it.RSS)
		if doTrace {
			tracedIters = append(tracedIters, it)
			withTrace = append(withTrace, it.Wall)
		} else {
			iters = append(iters, it)
			plain = append(plain, it.Wall)
		}
		elapsed := time.Since(start).Seconds()
		step := elapsed / float64(n+1)
		if traced && n%2 == 0 {
			continue // finish the pair
		}
		if elapsed+step > budget {
			break
		}
	}
	if !traced {
		b.endToEnd(res, iters)
		return res, nil
	}

	b.tr = tr
	last := tracedIters[len(tracedIters)-1]
	l := last.Layers
	l["trace.overhead_s"] = median(withTrace) - median(plain)
	probesID, end := b.tr.begin("layer probes", "iterations", 0)
	err := b.probeLayers(l, last, probesID)
	end(nil)
	if err != nil {
		res.Correct = false
		return res, err
	}
	for _, k := range sortedKeys(l) {
		res.Metrics[k] = metric{l[k], layerUnit(k)}
	}
	path := filepath.Join(b.out, fmt.Sprintf("trace-%s-seed%d.json", name, b.seed))
	if err := b.tr.write(path, map[string]any{"host": b.host, "workload": name, "seed": b.seed}); err != nil {
		return res, err
	}
	fmt.Printf("# trace %s (%d traced, %d untraced iterations)\n", path, len(tracedIters), len(iters))
	if _, ok := w.(mixWorkload); ok {
		fmt.Printf("# mix %s\n", b.stream.shares())
	}
	return res, nil
}

// endToEnd computes the end-to-end metrics from untraced iterations:
// medians across iterations, and latency percentiles over the pooled
// samples.
func (b *bench) endToEnd(res *result, its []*iteration) {
	var wall, cpu, rss, setup, resume, opsRate, rate []float64
	var cold, warm []float64
	for _, it := range its {
		wall = append(wall, it.Wall)
		cpu = append(cpu, it.CPU)
		rss = append(rss, it.RSS)
		setup = append(setup, it.Setup...)
		resume = append(resume, it.Resume)
		opsRate = append(opsRate, float64(it.Ops)/it.Wall)
		rate = append(rate, float64(it.Units)/it.PhaseS)
		cold = append(cold, it.ColdLat...)
		warm = append(warm, it.WarmLat...)
	}
	c, w := summarize(cold), summarize(warm)
	m := res.Metrics
	m["wall_s"] = metric{median(wall), "s"}
	m["cpu_s"] = metric{median(cpu), "s"}
	m["peak_rss_mb"] = metric{median(rss), "MB"}
	m["setup_s"] = metric{median(setup), "s"}
	m["resume_s"] = metric{median(resume), "s"}
	m["sim_ops_per_s"] = metric{median(opsRate), "1/s"}
	m["job_cold_p50_s"] = metric{c.P50, "s"}
	m["job_cold_p90_s"] = metric{c.P90, "s"}
	m["job_warm_p50_s"] = metric{w.P50, "s"}
	m["job_warm_p90_s"] = metric{w.P90, "s"}
	m["jobs_per_s"] = metric{median(rate), "1/s"}

	fmt.Printf("# %d iterations, %d setup samples; failed %d of %d attempted\n",
		len(its), len(setup), res.Failed, res.Attempted)
	for _, t := range []struct {
		name string
		t    timing
	}{{"job_cold", c}, {"job_warm", w}} {
		fmt.Printf("# %s latency: n=%d p50=%.6gs p%g=%.6gs\n", t.name, t.t.N, t.t.P50, t.t.TailP, t.t.Tail)
	}
	if b.stream != nil {
		fmt.Printf("# mix %s\n", b.stream.shares())
	}
	for _, k := range sortedKeys(m) {
		if v := m[k].Value; v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			res.Correct = false
			fmt.Printf("# error: metric %s is %v\n", k, v)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// layerUnit is the unit of a per-layer metric, read off its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms_p50"):
		return "ms"
	case strings.HasSuffix(name, "_us_p50"):
		return "us"
	case strings.HasSuffix(name, "_ns_per_sim_op"), strings.HasSuffix(name, "ns_per_event"), strings.HasSuffix(name, "ns_per_access"):
		return "ns"
	case strings.HasSuffix(name, "_s"), strings.HasSuffix(name, "_s_sum"):
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "bytes_written"):
		return "B"
	case strings.HasSuffix(name, "allocs_per_sim_op"):
		return "allocs/op"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_frac"), strings.HasSuffix(name, "efficiency"):
		return "ratio"
	}
	return "count"
}

// hostInfo is the host fingerprint recorded with every result set, for
// reading numbers across hosts; no metric is scaled by it.
func hostInfo() map[string]any {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu":            model,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go":             runtime.Version(),
		"calibration_ms": calibrate(),
	}
}

// calibrate times a fixed integer loop (best of three).
func calibrate() float64 {
	best := math.Inf(1)
	for range 3 {
		t := time.Now()
		x := uint64(1)
		for range 20_000_000 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		if x == 0 {
			panic("xorshift reached zero") // impossible from a non-zero seed
		}
		best = min(best, float64(time.Since(t).Nanoseconds())/1e6)
	}
	return best
}
