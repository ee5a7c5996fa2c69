package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"

	"atomicsmodel/internal/harness"
)

// report writes a run's self-contained Markdown report (-report): a
// header, one section per experiment with its claim and fenced tables
// (an ASCII chart under each figure-shaped one), and the cell metrics
// tables last. Its methods do nothing on a nil *report, so the run
// loop calls them unconditionally. Tables and charts fail to render
// only when the writer fails (the report sets no log axis), and the
// bufio.Writer keeps the first write error, so close reports it.
type report struct {
	f *os.File
	w *bufio.Writer
}

func createReport(path string, seed uint64, quick bool) (*report, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	r := &report{f: f, w: bufio.NewWriter(f)}
	fmt.Fprintf(r.w, "# atomicsmodel experiment report\n\n")
	fmt.Fprintf(r.w, "Generated by `atomicsim -report` (seed %d, quick=%v).\n\n", seed, quick)
	fmt.Fprintf(r.w, "Reproduction of *Modeling the Performance of Atomic Primitives on Modern Architectures* (ICPP 2019); see DESIGN.md for scope and substitutions.\n\n")
	return r, nil
}

// section writes one experiment's section: its claim, then its tables
// or its failure.
func (r *report) section(e *harness.Experiment, ts []*harness.Table, err error) {
	if r == nil {
		return
	}
	fmt.Fprintf(r.w, "## %s — %s\n\n*Claim:* %s\n\n", e.ID, e.Title, e.Claim)
	if err != nil {
		fmt.Fprintf(r.w, "**FAILED:** %v\n\n", err)
		return
	}
	r.tables(ts, true)
}

// tables writes each table in a fenced block, with its ASCII chart
// when chart is set and the table is figure-shaped.
func (r *report) tables(ts []*harness.Table, chart bool) {
	for _, t := range ts {
		fmt.Fprintf(r.w, "```\n")
		t.Render(r.w)
		if c, ok := harness.ChartFromTable(t); ok && chart {
			fmt.Fprintln(r.w)
			c.Render(r.w)
		}
		fmt.Fprintf(r.w, "```\n\n")
	}
}

// metrics appends the cell metrics section; it comes after every
// experiment so the report body matches a metrics-off run's.
func (r *report) metrics(ts []*harness.Table) {
	if r == nil {
		return
	}
	fmt.Fprintf(r.w, "## Cell metrics\n\n")
	fmt.Fprintf(r.w, "Per-cell coherence and simulator counters over each cell's measured window; see `internal/metrics` for the naming scheme and ARCHITECTURE.md for how they are collected.\n\n")
	r.tables(ts, false)
}

func (r *report) close() error {
	if r == nil {
		return nil
	}
	return errors.Join(r.w.Flush(), r.f.Close())
}
