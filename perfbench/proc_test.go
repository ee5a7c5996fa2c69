package main

import (
	"math"
	"testing"
	"time"
)

func TestProgressPlacesUpdatesInTime(t *testing.T) {
	stderr := []byte("\rF2: 1/3 cells, 5ms \rF2: 2/3 cells, 9ms \rF2: 3/3 cells, 12ms \nF2 done in 12ms\n\rW: 1/1 cells, 1ms \n")
	r := &procResult{Stderr: stderr, chunks: []chunk{
		{end: 21, at: 5 * time.Millisecond},  // first update
		{end: 63, at: 12 * time.Millisecond}, // second and third in one read
		{end: len(stderr), at: 20 * time.Millisecond},
	}}
	evs := r.progress()
	want := []progressEvent{{"F2", 0.005}, {"F2", 0.012}, {"F2", 0.012}, {"W", 0.020}}
	if len(evs) != len(want) {
		t.Fatalf("got %d events %+v, want %d", len(evs), evs, len(want))
	}
	for i := range want {
		if evs[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, evs[i], want[i])
		}
	}
}

func TestGCTrace(t *testing.T) {
	stderr := []byte("atomicd: started\n" +
		"gc 1 @0.004s 2%: 0.016+0.44+0.003 ms clock, 0.032+0.12/0.30/0.40+0.007 ms cpu, 3->4->1 MB, 4 MB goal, 0 MB stacks, 0 MB globals, 2 P\n" +
		"gc 2 @0.010s 3%: 0.01+0.5+0.002 ms clock, 0.03+0.1/0.3/0.4+0.005 ms cpu, 5->6->2 MB, 6 MB goal, 0 MB stacks, 0 MB globals, 2 P\n")
	g := gcTrace(stderr)
	// 3 MB before the first collection, then 5-1 MB before the second.
	if g.AllocMB != 7 || math.Abs(g.CPUFrac-0.03) > 1e-12 {
		t.Fatalf("gcTrace = %+v, want 7 MB and 3%% GC CPU", g)
	}
	if g := gcTrace([]byte("no collections\n")); g.AllocMB != 0 || g.CPUFrac != 0 {
		t.Fatalf("gcTrace without collections = %+v", g)
	}
}
