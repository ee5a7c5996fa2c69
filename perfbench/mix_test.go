package main

import (
	"bytes"
	"testing"
)

func testCells(t *testing.T) func(string) int {
	d, err := loadDigests("digests.json")
	if err != nil {
		t.Fatal(err)
	}
	return func(g string) int { return d.Mix[g].Cells }
}

func TestGenMixIsDeterministic(t *testing.T) {
	cells := testCells(t)
	a, err := genMix(7, cells)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genMix(7, cells)
	if err != nil {
		t.Fatal(err)
	}
	c, err := genMix(8, cells)
	if err != nil {
		t.Fatal(err)
	}
	same := func(x, y *mixStream) bool {
		if len(x.Cold) != len(y.Cold) || len(x.Warm) != len(y.Warm) {
			return false
		}
		for i := range x.Cold {
			if !bytes.Equal(x.Cold[i].Body, y.Cold[i].Body) || x.Cold[i].Class != y.Cold[i].Class {
				return false
			}
		}
		for i := range x.Warm {
			if !bytes.Equal(x.Warm[i].Body, y.Warm[i].Body) {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Fatal("two streams from seed 7 differ")
	}
	if same(a, c) {
		t.Fatal("seeds 7 and 8 gave the same stream")
	}
}

func TestGenMixShape(t *testing.T) {
	cells := testCells(t)
	for seed := int64(1); seed <= 20; seed++ {
		s, err := genMix(seed, cells)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Cold) < minPhaseJobs || len(s.Warm) < minPhaseJobs {
			t.Fatalf("seed %d: %d cold and %d warm jobs, want ≥%d each", seed, len(s.Cold), len(s.Warm), minPhaseJobs)
		}
		computedBy := map[string]int{}
		bodies := map[string]int{}
		count := map[string]int{}
		for i, j := range s.Cold {
			count[j.Class]++
			for _, d := range j.Deps {
				if d >= i {
					t.Fatalf("seed %d: job %d depends on later job %d", seed, i, d)
				}
			}
			switch j.Class {
			case classCold:
				for _, g := range j.groups() {
					if _, dup := computedBy[g]; dup {
						t.Fatalf("seed %d: group %s computed twice", seed, g)
					}
					computedBy[g] = i
				}
			case classRepeat:
				src, ok := bodies[j.identity()]
				if !ok || len(j.Deps) != 1 || j.Deps[0] != src {
					t.Fatalf("seed %d: repeat %d does not wait for the job it repeats", seed, i)
				}
			case classShared:
				if _, ok := bodies[j.identity()]; ok {
					t.Fatalf("seed %d: shared job %d repeats an identity", seed, i)
				}
				for _, g := range j.groups() {
					p, ok := computedBy[g]
					if !ok {
						t.Fatalf("seed %d: shared job %d needs group %s before it is computed", seed, i, g)
					}
					found := false
					for _, d := range j.Deps {
						found = found || d == p
					}
					if !found {
						t.Fatalf("seed %d: shared job %d does not wait for job %d", seed, i, p)
					}
				}
			}
			if _, ok := bodies[j.identity()]; !ok {
				bodies[j.identity()] = i
			}
		}
		if count[classRepeat] == 0 || count[classShared] == 0 {
			t.Fatalf("seed %d: class mix %v", seed, count)
		}
		universe := 0
		for _, blk := range coldUniverse {
			universe += len(mixMachines) * len(blk.Presets)
		}
		if len(computedBy) != universe {
			t.Fatalf("seed %d: %d groups computed, universe has %d", seed, len(computedBy), universe)
		}
		for _, j := range s.Warm {
			if _, ok := bodies[j.identity()]; ok {
				t.Fatalf("seed %d: warm job %s is not a new identity", seed, j.Body)
			}
			bodies[j.identity()] = -1
			n := 0
			for _, g := range j.groups() {
				if _, ok := computedBy[g]; !ok {
					t.Fatalf("seed %d: warm job needs group %s the cold phase never computed", seed, g)
				}
				n += cells(g)
			}
			if n < minWarmCells {
				t.Fatalf("seed %d: warm job %s replays %d cells", seed, j.Body, n)
			}
		}
	}
}
