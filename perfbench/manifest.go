package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"atomicsmodel/internal/runlog"
)

// readManifest returns the cell records of a run's manifest.jsonl in
// file order.
func readManifest(path string) ([]runlog.CellRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var cells []runlog.CellRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		var kind struct{ Type string }
		if err := json.Unmarshal(sc.Bytes(), &kind); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if kind.Type != "cell" {
			continue
		}
		var r runlog.CellRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		cells = append(cells, r)
	}
	return cells, sc.Err()
}

// contentKey maps a cell cache key to the identity of the simulation it
// runs: the observer signature (metrics, check and fault tags) plus the
// machine@digest/wl@digest or /app@digest part. The experiment prefix,
// seed and quick flag are dropped because the spec digest already pins
// the seed and measurement window. Cells that are not spec cells have
// no content key (ok is false).
func contentKey(key string) (string, bool) {
	parts := strings.Split(key, "|")
	if len(parts) < 2 {
		return "", false
	}
	last := parts[len(parts)-1]
	if !strings.Contains(last, "/wl@") && !strings.Contains(last, "/app@") {
		return "", false
	}
	var obs []string
	for _, p := range parts[1 : len(parts)-1] {
		if strings.HasPrefix(p, "seed=") || strings.HasPrefix(p, "quick=") {
			continue
		}
		obs = append(obs, p)
	}
	return strings.Join(append(obs, last), "|"), true
}

// cellLayer names the layer that simulated a cell: "workload" for
// /wl@ spec cells, "apps" for /app@ cells, "" for hand-keyed probes.
func cellLayer(key string) string {
	switch {
	case strings.Contains(key, "/wl@"):
		return "workload"
	case strings.Contains(key, "/app@"):
		return "apps"
	}
	return ""
}

// layerSum is the computed-cell work one layer did.
type layerSum struct {
	CellS float64
	Ops   uint64
}

// nsPerOp is the host time per simulated operation.
func (l layerSum) nsPerOp() float64 {
	if l.Ops == 0 {
		return 0
	}
	return l.CellS * 1e9 / float64(l.Ops)
}

// cellSummary aggregates the cell records of one workload iteration.
type cellSummary struct {
	Total, Computed, Cached, Failed int
	DupCells                        int
	DupS                            float64
	CellS, MaxCellS                 float64
	Ops                             uint64
	Layers                          map[string]layerSum
	// ComputedS and CachedS are per-cell wall times in seconds.
	ComputedS, CachedS []float64
}

// summarizeCells aggregates manifest cell records. A computed cell is a
// duplicate when its content key was already computed earlier in recs.
func summarizeCells(recs []runlog.CellRecord) cellSummary {
	s := cellSummary{Layers: map[string]layerSum{}}
	seen := map[string]bool{}
	for _, r := range recs {
		s.Total++
		if r.Error != "" {
			s.Failed++
		}
		sec := r.WallMS / 1e3
		if r.Cached {
			s.Cached++
			s.CachedS = append(s.CachedS, sec)
			continue
		}
		s.Computed++
		s.ComputedS = append(s.ComputedS, sec)
		s.CellS += sec
		s.MaxCellS = max(s.MaxCellS, sec)
		s.Ops += r.Ops
		if l := cellLayer(r.Key); l != "" {
			ls := s.Layers[l]
			ls.CellS += sec
			ls.Ops += r.Ops
			s.Layers[l] = ls
		}
		if ck, ok := contentKey(r.Key); ok {
			if seen[ck] {
				s.DupCells++
				s.DupS += sec
			}
			seen[ck] = true
		}
	}
	return s
}

// interval is one cell's run time, in seconds from a common origin.
type interval struct{ Start, End float64 }

// tailTime returns how long, between the first start and the last end,
// fewer than par cells were running: the time the run's parallelism
// went unused.
func tailTime(ivs []interval, par int) float64 {
	if len(ivs) == 0 {
		return 0
	}
	type edge struct {
		t float64
		d int
	}
	edges := make([]edge, 0, 2*len(ivs))
	for _, iv := range ivs {
		edges = append(edges, edge{iv.Start, +1}, edge{iv.End, -1})
	}
	// Ends sort before starts at the same instant, so back-to-back
	// cells on one worker leave no gap.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		return edges[i].d < edges[j].d
	})
	var tail float64
	running := 0
	for i, e := range edges {
		if i > 0 && running < par {
			tail += e.t - edges[i-1].t
		}
		running += e.d
	}
	return tail
}
