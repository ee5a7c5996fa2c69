// Command atomicsim regenerates the paper's tables and figures on the
// simulated machines.
//
// Usage:
//
//	atomicsim                     # run every experiment on both machines
//	atomicsim -exp F3             # one experiment
//	atomicsim -machines KNL,EPYC  # restrict/extend the machine list
//	atomicsim -machinefile m.json # add a machine from a JSON spec file
//	atomicsim -workloads high-faa # run registered workload specs (the W suite)
//	atomicsim -workloadfile w.json# run a workload from a JSON spec file
//	atomicsim -apps treiber       # run registered app specs (the A suite)
//	atomicsim -appfile a.json     # run an app from a JSON spec file
//	atomicsim -fleet              # fleet sweep: bottleneck verdicts across all machines
//	atomicsim -fleet -knee 0.8    # lower the knee-detection utilization threshold
//	atomicsim -quick              # trimmed sweeps for a fast look
//	atomicsim -par 4              # cap concurrent simulation cells
//	atomicsim -csv results/       # additionally write one CSV per table
//	atomicsim -report report.md   # additionally write a Markdown report with charts
//	atomicsim -list               # list experiment IDs and claims
//	atomicsim -manifest run/      # also write a structured run manifest
//	atomicsim -resume run/        # re-run only missing/failed cells
//	atomicsim -checkmanifest run/ # validate a run directory and exit
//	atomicsim -check              # audit coherence/engine invariants per cell
//	atomicsim -faults jitter=10   # inject deterministic faults (see -faults below)
//	atomicsim -celltimeout 30s    # watchdog: fail cells exceeding the deadline
//	atomicsim -cellretries 2      # retry failed cells before giving up
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"atomicsmodel/cmd/internal/cli"
	"atomicsmodel/internal/faults"
	"atomicsmodel/internal/harness"
	"atomicsmodel/internal/runlog"
)

func main() {
	var (
		expID   = flag.String("exp", "", "comma-separated experiment IDs to run (default: all)")
		machSel = cli.MachineFlags("")
		wlSel   = cli.WorkloadFlags("run as the W suite (replaces the default experiment list unless -exp is given)")
		apSel   = cli.AppFlags("run as the A suite (replaces the default experiment list unless -exp is given)")
		fleet   = flag.Bool("fleet", false, "fleet sweep: run the selected workloads across every registered machine with per-cell bottleneck verdicts (see BOTTLENECKS.md)")
		knee    = flag.Float64("knee", 0.9, "utilization threshold in (0,1] for fleet knee detection")
		quick   = flag.Bool("quick", false, "trimmed sweeps and shorter simulated durations")
		seed    = flag.Uint64("seed", 42, "base random seed")
		par     = flag.Int("par", runtime.NumCPU(), "max concurrent simulation cells (results are identical for any value)")
		quiet   = flag.Bool("quiet", false, "suppress per-experiment progress on stderr")
		withMet = flag.Bool("metrics", false, "collect per-cell coherence/sim metrics and append breakdown tables")
		csvDir  = flag.String("csv", "", "directory to write per-table CSV files into")
		repFile = flag.String("report", "", "also write a self-contained Markdown report (claims, tables, ASCII charts) to this file")
		doPlot  = flag.Bool("plot", false, "render ASCII charts for figure-shaped tables")
		logY    = flag.Bool("logy", false, "use a logarithmic Y axis for plots")
		listIDs = flag.Bool("list", false, "list experiments and exit")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write an allocation profile to this file on exit")

		manifestDir = flag.String("manifest", "", "run directory for a structured manifest (manifest.jsonl + cells.jsonl); truncates a previous run")
		resumeDir   = flag.String("resume", "", "resume a previous -manifest run directory: replay cached cells, re-run only missing or failed ones")
		checkDir    = flag.String("checkmanifest", "", "validate a run directory's manifest and cache, print a summary, and exit")

		check       = flag.Bool("check", false, "audit coherence/engine invariants in every cell; a violation fails the cell with a deterministic report")
		faultSpec   = flag.String("faults", "", "inject deterministic faults: comma-separated seed=N,jitter=PCT,panic=N[@CELL],casfail=N,sleep=DUR@CELL")
		cellTimeout = flag.Duration("celltimeout", 0, "wall-clock watchdog deadline per simulation cell (0 = none)")
		cellRetries = flag.Int("cellretries", 0, "extra attempts for a failed cell before giving up")
	)
	flag.Parse()

	if *listIDs {
		for _, e := range harness.All() {
			fmt.Printf("%-4s %s\n     claim: %s\n", e.ID, e.Title, e.Claim)
		}
		return
	}

	if *checkDir != "" {
		summary, err := runlog.Validate(*checkDir)
		if err != nil {
			fatal(err)
		}
		fmt.Println(summary)
		return
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	opts := harness.Options{
		Quick: *quick, Seed: *seed, Par: *par,
		Check: *check, CellTimeout: *cellTimeout, CellRetries: *cellRetries,
	}
	if *withMet {
		opts.Metrics = &harness.MetricsCollector{}
	}
	if *faultSpec != "" {
		plan, err := faults.Parse(*faultSpec)
		if err != nil {
			fatal(err)
		}
		opts.Faults = plan
	}
	switch {
	case *manifestDir != "" && *resumeDir != "":
		fatal(errors.New("-manifest and -resume are mutually exclusive (resume reuses the run directory)"))
	case *manifestDir != "":
		attachRunDir(&opts, *manifestDir, false)
	case *resumeDir != "":
		attachRunDir(&opts, *resumeDir, true)
		if !*quiet {
			fmt.Fprintf(os.Stderr, "resume: %d cached cells loaded from %s\n", opts.Cache.Loaded(), *resumeDir)
		}
	}
	var err error
	if opts.Machines, err = machSel(); err != nil {
		fatal(err)
	}
	wlSpecs, err := wlSel()
	if err != nil {
		fatal(err)
	}
	appSpecs, err := apSel()
	if err != nil {
		fatal(err)
	}
	sel := harness.Selection{
		IDs: cli.SplitList(*expID), Workloads: wlSpecs, Apps: appSpecs,
		Fleet: *fleet, Knee: *knee,
	}
	exps, err := sel.Experiments()
	if err != nil {
		fatal(err)
	}

	var rep *report
	if *repFile != "" {
		if rep, err = createReport(*repFile, *seed, *quick); err != nil {
			fatal(err)
		}
	}

	suiteStart := time.Now()
	var failed []string
	for _, e := range exps {
		fmt.Printf("== %s: %s\n   claim: %s\n\n", e.ID, e.Title, e.Claim)
		expStart := time.Now()
		runOpts := opts
		if !*quiet {
			// Progress goes to stderr so redirected table output stays
			// clean; \r keeps it to one updating line per experiment.
			id := e.ID
			runOpts.Progress = func(done, total int) {
				fmt.Fprintf(os.Stderr, "\r%s: %d/%d cells, %s ", id, done, total,
					time.Since(expStart).Round(time.Millisecond))
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}
		}
		tables, err := harness.RunExperiment(e, runOpts)
		rep.section(e, tables, err)
		if err != nil {
			// A failed experiment no longer aborts the run: the failure is
			// recorded (stderr + manifest, when attached), the remaining
			// experiments still run, and the exit code reports it.
			failed = append(failed, e.ID)
			fmt.Printf("   FAILED: %v\n\n", err)
			fmt.Fprintf(os.Stderr, "%s FAILED: %v\n", e.ID, err)
			continue
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "%s done in %s\n", e.ID, time.Since(expStart).Round(time.Millisecond))
		}
		for i, t := range tables {
			if err := t.Render(os.Stdout); err != nil {
				fatal(err)
			}
			fmt.Println()
			if *doPlot {
				if c, ok := harness.ChartFromTable(t); ok {
					c.LogY = *logY
					if err := c.Render(os.Stdout); err != nil {
						fatal(err)
					}
					fmt.Println()
				}
			}
			if *csvDir != "" {
				if err := writeCSV(*csvDir, e.ID, i, t); err != nil {
					fatal(err)
				}
			}
		}
	}
	if !*quiet && len(exps) > 1 {
		fmt.Fprintf(os.Stderr, "suite done: %d experiments in %s\n",
			len(exps), time.Since(suiteStart).Round(time.Millisecond))
	}

	// Metrics breakdown tables render after the result tables so the
	// result output stays byte-identical to a metrics-off run's prefix.
	if opts.Metrics != nil {
		mt := opts.Metrics.Tables()
		rep.metrics(mt)
		for i, t := range mt {
			if err := t.Render(os.Stdout); err != nil {
				fatal(err)
			}
			fmt.Println()
			if *csvDir != "" {
				if err := writeCSV(*csvDir, "metrics", i, t); err != nil {
					fatal(err)
				}
			}
		}
	}

	if err := rep.close(); err != nil {
		fatal(err)
	}
	if opts.Cache != nil {
		if err := opts.Cache.Close(); err != nil {
			fatal(err)
		}
	}
	if opts.Manifest != nil {
		if err := opts.Manifest.Close(); err != nil {
			fatal(err)
		}
	}

	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}

	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "atomicsim: %d experiment(s) failed: %s\n",
			len(failed), strings.Join(failed, ","))
		os.Exit(1)
	}
}

// attachRunDir opens a run directory's manifest and cell cache on opts.
// resume=false starts a fresh run (truncating a previous one); true
// appends to the manifest and keeps the cache so completed cells replay.
func attachRunDir(opts *harness.Options, dir string, resume bool) {
	open := runlog.Create
	if resume {
		open = runlog.Append
	}
	w, err := open(dir)
	if err != nil {
		fatal(err)
	}
	c, err := runlog.OpenCache(dir)
	if err != nil {
		fatal(err)
	}
	// Quarantined cache lines are dropped, not fatal — say what was
	// dropped so the recomputation is explained, not mysterious.
	for _, q := range c.Quarantined() {
		if q.Key != "" {
			fmt.Fprintf(os.Stderr, "atomicsim: quarantined cells.jsonl line %d (key %q): %s; cell will be recomputed\n", q.Line, q.Key, q.Reason)
		} else {
			fmt.Fprintf(os.Stderr, "atomicsim: quarantined cells.jsonl line %d: %s; cell will be recomputed\n", q.Line, q.Reason)
		}
	}
	opts.Manifest, opts.Cache = w, c
}

func writeCSV(dir, id string, idx int, t *harness.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s_%d.csv", id, idx)
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return t.CSV(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "atomicsim:", err)
	os.Exit(1)
}
