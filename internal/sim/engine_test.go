package sim

import (
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	if Nanosecond != 1000*Picosecond {
		t.Fatalf("Nanosecond = %d ps", int64(Nanosecond))
	}
	if Second != 1_000_000_000_000*Picosecond {
		t.Fatalf("Second = %d ps", int64(Second))
	}
	if got := (2 * Nanosecond).Nanoseconds(); got != 2 {
		t.Errorf("Nanoseconds() = %v, want 2", got)
	}
	if got := (500 * Millisecond).Seconds(); got != 0.5 {
		t.Errorf("Seconds() = %v, want 0.5", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{1500 * Picosecond, "1.500ns"},
		{2 * Microsecond, "2.000us"},
		{3 * Millisecond, "3.000ms"},
		{4 * Second, "4.000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30*Nanosecond, func() { order = append(order, 3) })
	e.Schedule(10*Nanosecond, func() { order = append(order, 1) })
	e.Schedule(20*Nanosecond, func() { order = append(order, 2) })
	e.Run(Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran in order %v", order)
	}
	if e.Now() != Second {
		t.Fatalf("clock = %v, want horizon when queue drains", e.Now())
	}
}

func TestEngineQueueTimeIntegral(t *testing.T) {
	e := NewEngine()
	e.Schedule(10*Nanosecond, func() {})
	e.Schedule(30*Nanosecond, func() {})
	e.Run(Second)
	// Two events outstanding over [0,10ns), one over [10ns,30ns), none
	// afterwards — the idle advance to the horizon contributes nothing.
	want := 2*10*Nanosecond + 1*20*Nanosecond
	if got := e.QueueTimeIntegral(); got != want {
		t.Fatalf("QueueTimeIntegral = %v, want %v", got, want)
	}
	e.Reset()
	if got := e.QueueTimeIntegral(); got != 0 {
		t.Fatalf("QueueTimeIntegral after Reset = %v, want 0", got)
	}
}

func TestEngineSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5*Nanosecond, func() { order = append(order, i) })
	}
	e.Run(Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events reordered: pos %d got %d", i, v)
		}
	}
}

func TestEngineHorizon(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(10*Nanosecond, func() { ran++ })
	e.Schedule(20*Nanosecond, func() { ran++ })
	e.Schedule(30*Nanosecond, func() { ran++ })
	e.Run(20 * Nanosecond) // inclusive horizon
	if ran != 2 {
		t.Fatalf("ran %d events before horizon, want 2", ran)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.Run(Second)
	if ran != 3 {
		t.Fatalf("ran %d events total, want 3", ran)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var step func()
	step = func() {
		depth++
		if depth < 10 {
			e.Schedule(Nanosecond, step)
		}
	}
	e.Schedule(0, step)
	e.Run(Second)
	if depth != 10 {
		t.Fatalf("nested chain depth = %d, want 10", depth)
	}
	if e.Processed() != 10 {
		t.Fatalf("processed = %d, want 10", e.Processed())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(Nanosecond, func() { ran++; e.Stop() })
	e.Schedule(2*Nanosecond, func() { ran++ })
	e.Run(Second)
	if ran != 1 {
		t.Fatalf("Stop did not halt the loop: ran=%d", ran)
	}
	// Run again resumes.
	e.Run(Second)
	if ran != 2 {
		t.Fatalf("resume after Stop: ran=%d, want 2", ran)
	}
}

func TestEngineNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	e.Schedule(10*Nanosecond, func() {
		e.Schedule(-5*Nanosecond, func() {
			if e.Now() != 10*Nanosecond {
				t.Errorf("negative delay fired at %v", e.Now())
			}
		})
	})
	e.Run(Second)
}

func TestEngineAtClampsPast(t *testing.T) {
	e := NewEngine()
	fired := Time(-1)
	e.Schedule(10*Nanosecond, func() {
		e.At(3*Nanosecond, func() { fired = e.Now() })
	})
	e.Run(Second)
	if fired != 10*Nanosecond {
		t.Fatalf("At in the past fired at %v, want clamped to 10ns", fired)
	}
}

func TestEngineDrain(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(5*Second, func() { ran++ })
	end := e.Drain()
	if ran != 1 || end != 5*Second {
		t.Fatalf("Drain ran=%d end=%v", ran, end)
	}
}

func TestEngineMonotonicClock(t *testing.T) {
	e := NewEngine()
	r := NewRNG(42)
	last := Time(0)
	bad := false
	for i := 0; i < 1000; i++ {
		e.Schedule(r.Duration(Microsecond), func() {
			if e.Now() < last {
				bad = true
			}
			last = e.Now()
		})
	}
	e.Run(Second)
	if bad {
		t.Fatal("clock moved backwards")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(8)
	same := 0
	a2 := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a2.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collide too often: %d/1000", same)
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(1)
	if err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGFloat64Mean(t *testing.T) {
	r := NewRNG(5)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if mean < 0.49 || mean > 0.51 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(11)
	const mean = 100 * Nanosecond
	var sum Time
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Exp(mean)
	}
	got := float64(sum) / n
	want := float64(mean)
	if got < 0.97*want || got > 1.03*want {
		t.Fatalf("Exp mean = %v ps, want ~%v ps", got, want)
	}
	if r.Exp(0) != 0 || r.Exp(-Nanosecond) != 0 {
		t.Fatal("Exp of non-positive mean should be 0")
	}
}

func TestRNGDurationBounds(t *testing.T) {
	r := NewRNG(13)
	for i := 0; i < 10000; i++ {
		d := r.Duration(50 * Nanosecond)
		if d < 0 || d >= 50*Nanosecond {
			t.Fatalf("Duration out of range: %v", d)
		}
	}
	if r.Duration(0) != 0 {
		t.Fatal("Duration(0) != 0")
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(99)
	a := parent.Split()
	b := parent.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams collide: %d/1000", same)
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(Nanosecond, func() {})
		if e.Pending() > 1024 {
			e.Drain()
		}
	}
	e.Drain()
}

// TestRNGAdvanceMatchesSequentialDraws is the property the fast-forward
// layer's stream skipping rests on: for any seed and counts n and k,
// advancing by k times the position delta of n draws lands exactly
// where k·n sequential draws would, mixed draw kinds included (each
// consumes one position).
func TestRNGAdvanceMatchesSequentialDraws(t *testing.T) {
	prop := func(seed uint64, n16 uint16, k8 uint8) bool {
		n, k := int(n16%512), uint64(k8%64)
		probe := NewRNG(seed)
		before := probe.Pos()
		for i := 0; i < n; i++ {
			switch i % 3 {
			case 0:
				probe.Uint64()
			case 1:
				probe.Float64()
			default:
				probe.Exp(Nanosecond)
			}
		}
		delta := probe.Pos() - before
		if delta != uint64(n) {
			return false
		}
		skipped, walked := NewRNG(seed), NewRNG(seed)
		skipped.Advance(k * delta)
		for i := uint64(0); i < k*uint64(n); i++ {
			walked.Uint64()
		}
		for i := 0; i < 10; i++ {
			if skipped.Uint64() != walked.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
