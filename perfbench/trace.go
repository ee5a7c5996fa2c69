package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// tracer keeps spans in memory and writes them as Chrome trace_event
// JSON at the end of a run; the file opens in Perfetto. A nil *tracer
// records nothing, which is how untraced runs stay untraced.
type tracer struct {
	origin time.Time
	run    string

	mu    sync.Mutex
	spans []span
}

type span struct {
	ID, Parent int
	Name       string
	Lane       string
	Start, End time.Duration
	Args       map[string]any
}

func newTracer(run string) *tracer { return &tracer{origin: time.Now(), run: run} }

// begin opens a span on lane under parent (0 for a root span) and
// returns its id and the function that closes it.
func (t *tracer) begin(name, lane string, parent int) (int, func(args map[string]any)) {
	if t == nil {
		return 0, func(map[string]any) {}
	}
	start := time.Since(t.origin)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Lane: lane, Start: start, End: -1})
	id := len(t.spans)
	t.mu.Unlock()
	return id, func(args map[string]any) {
		end := time.Since(t.origin)
		t.mu.Lock()
		t.spans[id-1].End = end
		t.spans[id-1].Args = args
		t.mu.Unlock()
	}
}

// add records a span whose times were measured elsewhere, as offsets
// from the tracer origin, and returns its id.
func (t *tracer) add(name, lane string, parent int, start, end time.Duration, args map[string]any) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Lane: lane, Start: start, End: end, Args: args})
	return len(t.spans)
}

// since is the tracer-relative offset of a wall-clock instant.
func (t *tracer) since(at time.Time) time.Duration { return at.Sub(t.origin) }

// write saves the spans as a trace_event JSON object: one complete
// ("X") event per span, lanes as threads of one process, and the span
// id, parent id and run id in each event's args.
func (t *tracer) write(path string, meta map[string]any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	lanes := map[string]int{}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var evs []event
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		tid, ok := lanes[s.Lane]
		if !ok {
			tid = len(lanes) + 1
			lanes[s.Lane] = tid
			evs = append(evs, event{Name: "thread_name", Ph: "M", PID: 1, TID: tid,
				Args: map[string]any{"name": s.Lane}})
		}
		args := map[string]any{"span": s.ID, "parent": s.Parent, "run": t.run}
		for k, v := range s.Args {
			args[k] = v
		}
		evs = append(evs, event{Name: s.Name, Ph: "X", PID: 1, TID: tid,
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3, Args: args})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "otherData": meta})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
