package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"atomicsmodel/internal/jobs"
)

// record runs every workload's outputs once and rewrites digests.json.
// Run it only when a change is meant to alter program output.
func (b *bench) record() error {
	d := &digestFile{Tables: map[string][]string{}, Mix: map[string]groupRecord{}}
	for _, w := range []*cliWorkload{paperFull, fleetAppsMetrics} {
		args := w.args(rand.New(rand.NewSource(1)))
		res, err := runProc(b.ctx, w.name, filepath.Join(b.bin, "atomicsim"), args, false)
		if err != nil {
			return err
		}
		d.Tables[w.name] = tableDigests(res.Stdout)
	}

	dir := filepath.Join(b.out, "record")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	dm, err := b.startDaemon(dir, false)
	if err != nil {
		return err
	}
	defer func() {
		if dm != nil {
			dm.kill()
		}
	}()
	c := newClient(b.ctx, "record", dm.base)
	defer c.close()
	for _, blk := range coldUniverse {
		j := &mixJob{Quick: blk.Quick, Machines: mixMachines}
		if blk.Kind == "W" {
			j.Workloads = blk.Presets
		} else {
			j.Apps = blk.Presets
		}
		j.encode()
		text, err := c.resultOf(j.Body)
		if err != nil {
			return err
		}
		for _, t := range splitTables(text) {
			d.Mix[modeOf(j.Quick)+"|"+t.title] = groupRecord{Digest: t.digest, Cells: t.rows}
		}
	}
	_, err = dm.stop()
	dm = nil
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(b.root, "perfbench", "digests.json"), append(out, '\n'), 0o644)
}

// resultOf submits a job, waits for it and returns its result.
func (c *client) resultOf(body []byte) ([]byte, error) {
	code, resp, err := c.do("POST", "/jobs", body)
	if err != nil {
		return nil, err
	}
	var st jobs.Status
	if err := json.Unmarshal(resp, &st); err != nil {
		return nil, fmt.Errorf("submit: HTTP %d: %s", code, resp)
	}
	if st, err = c.follow(st.ID, false, &jobOutcome{Start: time.Now()}); err != nil {
		return nil, err
	}
	if st.State != jobs.StateDone {
		return nil, fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	_, text, err := c.do("GET", "/jobs/"+st.ID+"/result", nil)
	return text, err
}

// analyzeDir prints the harness figures of an atomicsim run directory,
// for example a full-size run made outside the benchmark.
func analyzeDir(dir string) error {
	recs, err := readManifest(filepath.Join(dir, "manifest.jsonl"))
	if err != nil {
		return err
	}
	s := summarizeCells(recs)
	fmt.Printf("cells %d: computed %d, cached %d, failed %d\n", s.Total, s.Computed, s.Cached, s.Failed)
	fmt.Printf("duplicate content: %d cells, %.3f s of %.3f s computed\n", s.DupCells, s.DupS, s.CellS)
	fmt.Printf("longest cell %.3f s; %d simulated ops\n", s.MaxCellS, s.Ops)
	return nil
}
