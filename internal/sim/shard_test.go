package sim

import (
	"testing"
)

// runScript schedules a deterministic pseudo-random event set on e —
// including events that schedule children mid-run — and returns the
// order in which event ids executed. The schedule depends only on seed,
// never on the shard layout, so any two engines given the same seed
// must replay identically.
func runScript(e *Engine, seed uint64, n int, express bool) []int {
	r := NewRNG(seed)
	var order []int
	id := 0
	for i := 0; i < n; i++ {
		id++
		myID := id
		shard := r.Intn(97) // deliberately not a multiple of any shard count
		at := Time(r.Intn(int(50 * Nanosecond)))
		spawn := r.Intn(4) == 0
		childDelay := Time(r.Intn(int(5 * Nanosecond)))
		e.AtShard(shard, at, func() {
			order = append(order, myID)
			if spawn {
				childID := -myID
				fn := func() { order = append(order, childID) }
				if !express || !e.TryExpress(childDelay, fn) {
					e.ScheduleShard(shard+1, childDelay, fn)
				}
			}
		})
	}
	e.Run(Second)
	return order
}

// TestShardMergeTotalOrder is the merge-rule property test: the same
// event script must pop in exactly the same total order at every shard
// count, because the dispatcher orders by the global (time, sequence)
// pair and sequence numbers are assigned at scheduling time,
// independent of shard placement.
func TestShardMergeTotalOrder(t *testing.T) {
	for _, seed := range []uint64{1, 42, 7777} {
		ref := runScript(NewEngine(), seed, 500, false)
		if len(ref) < 500 {
			t.Fatalf("seed %d: reference ran %d events", seed, len(ref))
		}
		for _, shards := range []int{1, 2, 3, 8, 64} {
			got := runScript(NewEngineSharded(shards), seed, 500, false)
			if !equalInts(got, ref) {
				t.Fatalf("seed %d: %d-shard pop order diverges from single heap", seed, shards)
			}
		}
	}
}

// TestExpressLaneEquivalence checks that routing eligible events through
// TryExpress instead of the heaps changes nothing about execution order.
func TestExpressLaneEquivalence(t *testing.T) {
	for _, seed := range []uint64{3, 99} {
		for _, shards := range []int{1, 4} {
			plain := runScript(NewEngineSharded(shards), seed, 400, false)
			express := runScript(NewEngineSharded(shards), seed, 400, true)
			if !equalInts(plain, express) {
				t.Fatalf("seed %d shards %d: express-lane order diverges from heap order", seed, shards)
			}
		}
	}
}

// TestExpressLaneRejections pins the decline conditions: outside Run,
// with a perturbation hook installed, past the horizon, and out of time
// order.
func TestExpressLaneRejections(t *testing.T) {
	e := NewEngine()
	if e.TryExpress(0, func() {}) {
		t.Fatal("TryExpress accepted outside Run")
	}
	e.Schedule(Nanosecond, func() {
		if !e.TryExpress(Nanosecond, func() {}) {
			t.Error("TryExpress rejected a plain in-horizon event")
		}
		// Earlier than the lane tail just scheduled above.
		if e.TryExpress(0, func() {}) {
			t.Error("TryExpress accepted an out-of-order event")
		}
		if e.TryExpress(Second, func() {}) {
			t.Error("TryExpress accepted an event past the horizon")
		}
	})
	e.Run(10 * Nanosecond)

	e2 := NewEngine()
	e2.SetPerturb(func(d Time) Time { return d })
	e2.Schedule(0, func() {
		if e2.TryExpress(Nanosecond, func() {}) {
			t.Error("TryExpress accepted with a perturbation hook installed")
		}
	})
	e2.Run(Second)
}

// TestExpressLaneBacklogCap verifies the lane pushes overflow back to
// the caller once its backlog bound is hit, and that pending/processed
// accounting still matches.
func TestExpressLaneBacklogCap(t *testing.T) {
	e := NewEngine()
	accepted, ran := 0, 0
	e.Schedule(0, func() {
		for i := 0; i < expressBacklog+10; i++ {
			if e.TryExpress(Nanosecond, func() { ran++ }) {
				accepted++
			} else {
				e.Schedule(Nanosecond, func() { ran++ })
			}
		}
	})
	e.Run(Second)
	if accepted != expressBacklog {
		t.Fatalf("lane accepted %d events, want cap %d", accepted, expressBacklog)
	}
	if ran != expressBacklog+10 {
		t.Fatalf("ran %d events, want %d", ran, expressBacklog+10)
	}
	if e.Pending() != 0 || e.Processed() != uint64(expressBacklog+11) {
		t.Fatalf("pending=%d processed=%d after drain", e.Pending(), e.Processed())
	}
}

// TestPendingAccountingSharded checks Pending/MaxPending span all shards
// and the express lane.
func TestPendingAccountingSharded(t *testing.T) {
	e := NewEngineSharded(4)
	for i := 0; i < 10; i++ {
		e.AtShard(i, Time(i)*Nanosecond, func() {})
	}
	if e.Pending() != 10 || e.MaxPending() != 10 {
		t.Fatalf("pending=%d max=%d, want 10/10", e.Pending(), e.MaxPending())
	}
	e.Run(Second)
	if e.Pending() != 0 || e.MaxPending() != 10 || e.Processed() != 10 {
		t.Fatalf("after run: pending=%d max=%d processed=%d", e.Pending(), e.MaxPending(), e.Processed())
	}
}

// TestShiftPendingAndJumpClock exercises the fast-forward hooks: a
// shift with no event at or past its limit moves every pending event
// and preserves relative order, JumpClock credits skipped events to
// Processed, and overtaking a pending event panics.
func TestShiftPendingAndJumpClock(t *testing.T) {
	e := NewEngineSharded(2)
	var fired []Time
	e.AtShard(0, 10*Nanosecond, func() { fired = append(fired, e.Now()) })
	e.AtShard(1, 20*Nanosecond, func() { fired = append(fired, e.Now()) })
	e.ShiftPendingBefore(Second, 100*Nanosecond)
	e.JumpClock(105*Nanosecond, 7)
	if e.Processed() != 7 {
		t.Fatalf("processed = %d after JumpClock credit, want 7", e.Processed())
	}
	e.Run(Second)
	if len(fired) != 2 || fired[0] != 110*Nanosecond || fired[1] != 120*Nanosecond {
		t.Fatalf("shifted events fired at %v", fired)
	}
	if e.Processed() != 9 {
		t.Fatalf("processed = %d, want 9", e.Processed())
	}

	defer func() {
		if recover() == nil {
			t.Fatal("JumpClock overtaking a pending event did not panic")
		}
	}()
	e2 := NewEngine()
	e2.At(Nanosecond, func() {})
	e2.JumpClock(2*Nanosecond, 0)
}

// TestShiftPendingBeforeMatchesRescheduled is the property test for
// the fast-forward shift: random events across the shards and the
// express lane, plus a marker at limit, are shifted by the largest
// delta that keeps every event before limit at or before it (or a bit
// less). Times sit on a coarse grid, so shifted events often tie
// unshifted ones at limit. The pop sequence must equal that of a
// reference engine whose events were scheduled at the shifted times in
// the same order, and the marker must still fire at limit.
func TestShiftPendingBeforeMatchesRescheduled(t *testing.T) {
	const limit = 100 * Nanosecond
	type fired struct {
		id int
		at Time
	}
	for seed := uint64(1); seed <= 200; seed++ {
		r := NewRNG(seed)
		n := 1 + r.Intn(150)
		ats := make([]Time, n)
		lane := make([]bool, n)
		marker := r.Intn(n) // this event is the marker, at limit
		var early Time      // latest event time before limit
		for i := range ats {
			ats[i] = Time(r.Intn(40)) * 5 * Nanosecond
			if i == marker {
				ats[i] = limit
			}
			lane[i] = r.Intn(3) == 0
			if ats[i] < limit && ats[i] > early {
				early = ats[i]
			}
		}
		delta := limit - early
		if r.Intn(2) == 0 {
			delta -= Time(r.Intn(int(delta/Nanosecond)+1)) * Nanosecond // no forced tie
		}

		// run schedules every event from inside a setup event (so the
		// express lane is open), shifted ones at shift[i] in the
		// reference, and applies the shift from the idle hook right
		// after setup in the engine under test.
		run := func(e *Engine, shifted bool) []fired {
			var out []fired
			e.At(0, func() {
				for i, at := range ats {
					i := i
					fn := func() { out = append(out, fired{i, e.Now()}) }
					if !shifted && at < limit {
						at += delta
					}
					if !lane[i] || !e.TryExpress(at-e.Now(), fn) {
						e.AtShard(i, at, fn)
					}
				}
			})
			if shifted {
				e.SetIdleHook(func() {
					e.SetIdleHook(nil)
					e.ShiftPendingBefore(limit, delta)
				})
			}
			e.Run(Second)
			return out
		}
		got := run(NewEngineSharded(2), true)
		want := run(NewEngineSharded(2), false)
		if len(got) != n || len(want) != n {
			t.Fatalf("seed %d: fired %d/%d events, want %d", seed, len(got), len(want), n)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: pop %d is %+v after the shift, %+v when rescheduled", seed, i, got[i], want[i])
			}
			if got[i].id == marker && got[i].at != limit {
				t.Fatalf("seed %d: marker fired at %v, want %v", seed, got[i].at, limit)
			}
		}
	}
}

// TestEngineReset verifies a reset engine replays a script identically
// to a fresh one — the arena-reuse contract.
func TestEngineReset(t *testing.T) {
	fresh := runScript(NewEngineSharded(4), 42, 300, true)
	e := NewEngineSharded(4)
	_ = runScript(e, 7, 300, true)
	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 || e.Processed() != 0 || e.MaxPending() != 0 {
		t.Fatalf("Reset left state: now=%v pending=%d processed=%d max=%d",
			e.Now(), e.Pending(), e.Processed(), e.MaxPending())
	}
	reused := runScript(e, 42, 300, true)
	if !equalInts(fresh, reused) {
		t.Fatal("reset engine diverges from a fresh engine on the same script")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// BenchmarkEventHeapPushPop pins shard-local heap cost: a steady-state
// push/pop mix at a fixed queue depth, the pattern the dispatcher
// produces while a cell is in flight.
func BenchmarkEventHeapPushPop(b *testing.B) {
	var h eventHeap
	r := NewRNG(1)
	const depth = 256
	for i := 0; i < depth; i++ {
		h.push(event{at: Time(r.Intn(1 << 20)), seq: uint64(i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := h.pop()
		ev.at += Time(r.Intn(1 << 12))
		ev.seq = uint64(depth + i)
		h.push(ev)
	}
}
