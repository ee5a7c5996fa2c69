package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"atomicsmodel/internal/runlog"
)

func TestContentKey(t *testing.T) {
	cases := []struct {
		key, want string
		ok        bool
	}{
		{"F2|seed=42|quick=false|KNL@abc/wl@123", "KNL@abc/wl@123", true},
		{"F3|seed=7|quick=true|KNL@abc/wl@123", "KNL@abc/wl@123", true},
		{"FLEET|seed=42|quick=true|metrics=on|EPYC@e/wl@9", "metrics=on|EPYC@e/wl@9", true},
		{"A|seed=42|quick=true|metrics=on|check=on|EPYC@e/app@5", "metrics=on|check=on|EPYC@e/app@5", true},
		{"F1|seed=42|quick=true|XeonE5@dc75/CAS/M-local", "", false},
		{"job/j123", "", false},
	}
	for _, c := range cases {
		got, ok := contentKey(c.key)
		if got != c.want || ok != c.ok {
			t.Errorf("contentKey(%q) = %q, %v; want %q, %v", c.key, got, ok, c.want, c.ok)
		}
	}
}

func cell(exp, key string, wallMS float64, ops uint64) runlog.CellRecord {
	return runlog.CellRecord{Type: "cell", Exp: exp, Key: key, WallMS: wallMS, Ops: ops}
}

func TestSummarizeCellsCountsDuplicateContent(t *testing.T) {
	recs := []runlog.CellRecord{
		cell("F2", "F2|seed=42|quick=false|KNL@k/wl@1", 100, 10),
		// Same content under another experiment: a duplicate.
		cell("F3", "F3|seed=42|quick=false|KNL@k/wl@1", 120, 10),
		// Same content but metrics on: a different observer, so new work.
		cell("FLEET", "FLEET|seed=42|quick=false|metrics=on|KNL@k/wl@1", 300, 10),
		// Faults and checks are observers too.
		cell("W", "W|seed=42|quick=false|check=on|KNL@k/wl@1", 200, 10),
		cell("A", "A|seed=42|quick=false|KNL@k/app@2", 50, 5),
		cell("A2", "A2|seed=42|quick=false|KNL@k/app@2", 60, 5),
		// Hand-keyed probe cells never count as duplicates.
		cell("F1", "F1|seed=42|quick=false|KNL@k/CAS/M-local", 1, 1),
		cell("F11", "F1|seed=42|quick=false|KNL@k/CAS/M-local", 1, 1),
	}
	cached := cell("F2", "F2|seed=42|quick=false|KNL@k/wl@1", 0.01, 10)
	cached.Cached = true
	recs = append(recs, cached)

	s := summarizeCells(recs)
	if s.DupCells != 2 || math.Abs(s.DupS-0.18) > 1e-9 {
		t.Fatalf("duplicates = %d cells, %v s; want 2 cells, 0.18 s", s.DupCells, s.DupS)
	}
	if s.Total != 9 || s.Computed != 8 || s.Cached != 1 {
		t.Fatalf("cells total/computed/cached = %d/%d/%d, want 9/8/1", s.Total, s.Computed, s.Cached)
	}
	if s.Ops != 52 || math.Abs(s.CellS-0.832) > 1e-9 || s.MaxCellS != 0.3 {
		t.Fatalf("ops %d, cell time %v, max %v; want 52, 0.832, 0.3", s.Ops, s.CellS, s.MaxCellS)
	}
	if w := s.Layers["workload"]; w.Ops != 40 || math.Abs(w.CellS-0.72) > 1e-9 {
		t.Fatalf("workload layer %+v, want 40 ops in 0.72 s", w)
	}
	if a := s.Layers["apps"]; a.Ops != 10 || math.Abs(a.nsPerOp()-11e6) > 1e-3 {
		t.Fatalf("apps layer %+v, want 10 ops at 11 ms/op", a)
	}
}

func TestReadManifestKeepsCellRecords(t *testing.T) {
	dir := t.TempDir()
	w, err := runlog.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range []runlog.CellRecord{
		cell("W", "W|seed=42|quick=true|KNL@k/wl@1", 2, 3),
		cell("W", "W|seed=42|quick=true|KNL@k/wl@2", 4, 5),
	} {
		r.Cell = i
		if err := w.Cell(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Exp(runlog.ExpRecord{Exp: "W", Cells: 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := readManifest(filepath.Join(dir, "manifest.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].Ops != 5 || recs[1].WallMS != 4 {
		t.Fatalf("read %+v, want the two cell records", recs)
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.jsonl")); err != nil {
		t.Fatal(err)
	}
}

func TestTailTime(t *testing.T) {
	ivs := []interval{{0, 4}, {0, 2}, {2, 3}, {5, 6}}
	// Two running on [0,3], one on [3,4], none on [4,5], one on [5,6].
	if got := tailTime(ivs, 2); got != 3 {
		t.Fatalf("tailTime = %v, want 3", got)
	}
	if got := tailTime(ivs, 1); got != 1 {
		t.Fatalf("tailTime at par 1 = %v, want 1 (the idle gap)", got)
	}
	if got := tailTime(nil, 2); got != 0 {
		t.Fatalf("tailTime of nothing = %v", got)
	}
}
