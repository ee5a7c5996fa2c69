package atomics

import (
	"testing"

	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
)

func bufMemory(t *testing.T, depth int) (*sim.Engine, *Memory) {
	t.Helper()
	eng := sim.NewEngine()
	m := machine.XeonE5()
	m.StoreBufferDepth = depth
	mem, err := NewMemory(eng, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	return eng, mem
}

func TestBufferedStoreRetiresFast(t *testing.T) {
	eng, mem := bufMemory(t, 42)
	r := run(t, eng, func(done func(Result)) { mem.StoreOp(0, 1, 7, done) })
	if r.Latency != mem.Machine().Lat.L1Hit {
		t.Fatalf("buffered store retire latency %v, want L1 %v", r.Latency, mem.Machine().Lat.L1Hit)
	}
	// The drain already happened (we drained the engine): value visible.
	if mem.System().Value(1) != 7 {
		t.Fatalf("drained value %d, want 7", mem.System().Value(1))
	}
	if mem.PendingStores(0) != 0 {
		t.Fatal("buffer not empty after drain")
	}
}

func TestBufferedStoresDrainInOrder(t *testing.T) {
	eng, mem := bufMemory(t, 42)
	// Two stores to the same line: the later value must win (FIFO drain).
	mem.StoreOp(0, 1, 1, nil)
	mem.StoreOp(0, 1, 2, nil)
	eng.Drain()
	if got := mem.System().Value(1); got != 2 {
		t.Fatalf("final value %d, want 2 (program order)", got)
	}
}

func TestBufferFullStalls(t *testing.T) {
	eng, mem := bufMemory(t, 2)
	// Issue 5 stores back to back; with depth 2 the issuing "thread"
	// must stall, but all must eventually drain.
	retired := 0
	for i := 0; i < 5; i++ {
		mem.StoreOp(0, coherence.LineID(100+i), uint64(i), func(Result) { retired++ })
	}
	if mem.PendingStores(0) > 2 {
		t.Fatalf("buffer overfilled: %d", mem.PendingStores(0))
	}
	eng.Drain()
	if retired != 5 {
		t.Fatalf("retired %d/5", retired)
	}
	for i := 0; i < 5; i++ {
		if mem.System().Value(coherence.LineID(100+i)) != uint64(i) {
			t.Fatalf("store %d lost", i)
		}
	}
}

func TestAtomicImpliesFence(t *testing.T) {
	eng, mem := bufMemory(t, 42)
	// Park a store in the buffer whose drain is slow (remote line), then
	// issue an FAA: the FAA must serialize after the drain.
	mem.System().SetValue(1, 0)
	var faaDone sim.Time
	var storeVisibleAtFAA bool
	mem.StoreOp(0, 1, 99, nil) // will drain via RFO
	mem.FetchAndAdd(0, 2, 1, func(Result) {
		faaDone = eng.Now()
		storeVisibleAtFAA = mem.System().Value(1) == 99
	})
	eng.Drain()
	if !storeVisibleAtFAA {
		t.Fatal("locked RMW overtook a buffered store (missing implicit fence)")
	}
	if faaDone == 0 {
		t.Fatal("FAA never completed")
	}
}

func TestFenceWaitsForDrain(t *testing.T) {
	eng, mem := bufMemory(t, 42)
	mem.StoreOp(0, 1, 5, nil)
	r := run(t, eng, func(done func(Result)) { mem.FenceOp(0, done) })
	// The fence's reported latency includes the drain wait: it must
	// exceed the bare ExecFence.
	if r.Latency <= mem.Machine().Lat.ExecFence {
		t.Fatalf("fence latency %v did not include the drain", r.Latency)
	}
	if mem.System().Value(1) != 5 {
		t.Fatal("fence completed before the store drained")
	}
}

func TestUnbufferedSemanticsUnchanged(t *testing.T) {
	eng, mem := bufMemory(t, 0)
	r := run(t, eng, func(done func(Result)) { mem.StoreOp(0, 1, 7, done) })
	// Synchronous store: full miss latency, value observed.
	if r.Latency <= mem.Machine().Lat.L1Hit {
		t.Fatalf("unbuffered store too fast: %v", r.Latency)
	}
	if mem.PendingStores(0) != 0 {
		t.Fatal("phantom pending stores")
	}
}

// TestFenceOpDoesNotAllocate extends the zero-alloc contract (see
// TestBigAtomicDoesNotAllocate) to fences and the store buffer. With
// buffering off a fence only waits out its own occupancy; with it on,
// each round's fence is issued behind buffered stores, so it queues as
// a drain waiter, and the stores overflow a one-entry buffer (stalls)
// and hold up a locked RMW, which waits for the drain as well.
func TestFenceOpDoesNotAllocate(t *testing.T) {
	for _, depth := range []int{0, 1, 4} {
		eng, mem := bufMemory(t, depth)
		fences, pendingAtFence := 0, 0
		onFence := func(Result) {
			fences++
			pendingAtFence += mem.PendingStores(0)
		}
		round := func() {
			for i := 0; i < 3; i++ {
				mem.StoreOp(0, coherence.LineID(100+i), uint64(i), nil)
			}
			mem.FenceOp(0, onFence)
			mem.FetchAndAdd(0, 200, 1, nil)
			eng.Drain()
		}
		round() // warm the context pool and the buffer's queues
		if avg := testing.AllocsPerRun(200, round); avg != 0 {
			t.Fatalf("depth=%d: fence round allocates %.1f allocs/op, want 0", depth, avg)
		}
		if fences != 202 {
			t.Fatalf("depth=%d: %d fences completed, want 202", depth, fences)
		}
		if pendingAtFence != 0 {
			t.Fatalf("depth=%d: fences completed with %d stores still buffered", depth, pendingAtFence)
		}
	}
}
