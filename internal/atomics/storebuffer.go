package atomics

import (
	"atomicsmodel/internal/coherence"
)

// Store buffering (TSO), an opt-in machine feature
// (machine.Machine.StoreBufferDepth > 0).
//
// Real x86 cores retire a plain store in ~1 cycle into a store buffer
// and drain it to the coherence fabric asynchronously; the thread only
// stalls when the buffer is full. Fences — and locked RMWs, whose lock
// prefix implies a full fence — must wait for the buffer to drain.
// This is the mechanism behind two facts the paper's tables show:
// plain stores look nearly free to the issuing thread while atomics on
// the very same line cost tens of cycles, and an atomic's price is
// partly ordering (the drain), not only the line.
//
// Simplification (documented): loads do not snoop the local store
// buffer (no store-to-load forwarding), so buffered mode is meant for
// store/RMW workloads; the default (depth 0) keeps the strict
// semantics every other experiment relies on.

// pendingStore is one store waiting in a core's buffer.
type pendingStore struct {
	line coherence.LineID
	val  uint64
}

// storeBuf is one core's store buffer. Its drain callbacks are built
// once, and its queues are reused in place, so buffered stores and the
// fences waiting on them allocate nothing in steady state.
type storeBuf struct {
	mem      *Memory
	core     int
	q        []pendingStore
	draining bool
	// drainWaiters run when the buffer empties (fences, atomics);
	// spare is the other half of their double buffer.
	drainWaiters []func()
	spare        []func()
	// spaceWaiters are stalled stores, resumed in order as entries free.
	spaceWaiters []*opCtx
	applyFn      coherence.Apply
	doneFn       func(coherence.AccessResult)
}

func (mem *Memory) buf(core int) *storeBuf {
	if mem.bufs == nil {
		mem.bufs = make(map[int]*storeBuf)
	}
	b, ok := mem.bufs[core]
	if !ok {
		b = &storeBuf{mem: mem, core: core}
		b.applyFn = b.apply
		b.doneFn = b.drained
		mem.bufs[core] = b
	}
	return b
}

// bufferedStore retires the store c (core, line, arg1) locally and
// queues the drain.
func (mem *Memory) bufferedStore(c *opCtx) {
	b := mem.buf(c.core)
	if len(b.q) >= mem.bufDepth {
		// Buffer full: the store stalls until a drain completes.
		b.spaceWaiters = append(b.spaceWaiters, c)
		return
	}
	b.q = append(b.q, pendingStore{line: c.line, val: c.arg1})
	// Address generation + buffer write.
	mem.sys.Engine().Schedule(mem.m.Lat.L1Hit, c.retiredFn)
	if !b.draining {
		b.draining = true
		b.drain()
	}
}

// retired completes a buffered store. The overwritten value is unknown
// at retire time; buffered stores report Old = 0 by construction.
func (c *opCtx) retired() {
	retire := c.mem.m.Lat.L1Hit
	if done := c.recycle(); done != nil {
		done(Result{Latency: retire, OK: true})
	}
}

// drain writes the buffer head to the coherence system, then continues.
func (b *storeBuf) drain() {
	if len(b.q) == 0 {
		b.draining = false
		waiters := b.drainWaiters
		b.drainWaiters = b.spare[:0]
		for _, w := range waiters {
			w()
		}
		clear(waiters)
		b.spare = waiters[:0]
		return
	}
	b.mem.sys.Access(b.core, b.q[0].line, coherence.RFO, b.mem.m.Lat.ExecStore, b.applyFn, b.doneFn)
}

// apply writes the head store's value; the head leaves the queue only
// when its access completes.
func (b *storeBuf) apply(uint64) (uint64, bool) { return b.q[0].val, true }

func (b *storeBuf) drained(coherence.AccessResult) {
	b.q = b.q[:copy(b.q, b.q[1:])]
	if len(b.spaceWaiters) > 0 {
		c := b.spaceWaiters[0]
		b.spaceWaiters = b.spaceWaiters[:copy(b.spaceWaiters, b.spaceWaiters[1:])]
		b.mem.bufferedStore(c)
	}
	b.drain()
}

// waitDrained runs fn once the core's store buffer is empty (fences and
// locked RMWs). It runs immediately when nothing is pending.
func (mem *Memory) waitDrained(core int, fn func()) {
	if mem.bufDepth == 0 {
		fn()
		return
	}
	b := mem.buf(core)
	if len(b.q) == 0 && !b.draining {
		fn()
		return
	}
	b.drainWaiters = append(b.drainWaiters, fn)
}

// PendingStores reports how many stores core has waiting to drain
// (tests and experiments).
func (mem *Memory) PendingStores(core int) int {
	if mem.bufDepth == 0 || mem.bufs == nil {
		return 0
	}
	if b, ok := mem.bufs[core]; ok {
		return len(b.q)
	}
	return 0
}
