// Package apps builds the classic concurrent algorithms whose design
// choices the paper's model is meant to inform, on top of the simulated
// atomic primitives: FAA-based versus CAS-loop counters, a Treiber
// stack, and TAS / TTAS / ticket spinlocks. Running them on the same
// coherence substrate as the microbenchmarks lets the experiments show
// that the model's primitive-level predictions (FAA beats CAS under
// contention; TTAS spins locally while TAS storms the line; tickets are
// FIFO-fair) carry over to algorithm-level throughput and fairness.
//
// In the model pipeline (ARCHITECTURE.md) this package is a sibling of
// internal/workload: both drive internal/atomics on the simulated
// coherence substrate and feed results to the harness. MODEL.md §6
// (algorithms as access multisets) is the analytical counterpart of
// running these apps; Run accepts the same Metrics switch as
// workload.Config for per-cell observability.
package apps

import (
	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/sim"
)

// Well-known line IDs used by the applications. They are spread apart
// so their directory homes differ.
const (
	counterLine coherence.LineID = 10
	topLine     coherence.LineID = 30
	lockLine    coherence.LineID = 50
	ticketLine  coherence.LineID = 70
	servingLine coherence.LineID = 90
	dataLine    coherence.LineID = 110
	nodeBase    coherence.LineID = 1 << 20
)

// Thread is the per-worker context handed to an App step.
type Thread struct {
	ID   int
	Core int
	RNG  *sim.RNG

	// lastSeen caches the last observed value of the app's CAS target,
	// the usual optimization in retry loops.
	lastSeen uint64
}

// App is one concurrent algorithm. Step performs a single high-level
// operation (an increment, a push/pop, an acquire-release cycle) for
// the given thread and invokes done exactly once when it completes.
//
// Every structure issues its simulated accesses from a per-thread op
// context (threadOp plus the structure's own state) whose continuations
// are method values bound once, when the thread first steps. A thread
// has at most one Step in flight, so one context per thread suffices,
// and a Step allocates nothing: callers pass a done that is itself
// built once (the runner's per-thread continuation).
type App interface {
	Name() string
	Step(th *Thread, done func())
}

// threadOp is the part of a per-thread op context every structure
// shares: the thread and the continuation of its Step in flight.
type threadOp struct {
	th   *Thread
	done func()
}

// finish completes the Step in flight.
func (o *threadOp) finish() {
	done := o.done
	o.done = nil
	done()
}

// finished completes the Step in flight; it is the result callback of
// an op's last access.
func (o *threadOp) finished(atomics.Result) { o.finish() }

// threadCtx returns th's op context from ctxs, building it with build
// on the thread's first Step.
func threadCtx[S, T any](s S, ctxs *[]*T, th *Thread, build func(S, *Thread) *T) *T {
	for len(*ctxs) <= th.ID {
		*ctxs = append(*ctxs, nil)
	}
	o := (*ctxs)[th.ID]
	if o == nil {
		o = build(s, th)
		(*ctxs)[th.ID] = o
	}
	return o
}

// RetryStats is implemented by structures that count executions of
// their retry-loop body — the gating RMW issues (every CAS/TAS
// attempt, every ticket spin read), successful or not, over the whole
// run. Attempts divided by completed operations is the measured retry
// factor the conflict-based throughput model consumes
// (internal/predict); the runner surfaces it in RunResult.Attempts.
type RetryStats interface {
	Attempts() uint64
}

// FAACounter increments a shared counter with one fetch-and-add.
type FAACounter struct {
	mem *atomics.Memory
	ops []*faaOp
}

// NewFAACounter returns the FAA-based counter.
func NewFAACounter(mem *atomics.Memory) *FAACounter { return &FAACounter{mem: mem} }

func (c *FAACounter) Name() string { return "counter-faa" }

type faaOp struct {
	threadOp
	addedFn func(atomics.Result)
}

func newFAAOp(_ *FAACounter, th *Thread) *faaOp {
	o := &faaOp{threadOp: threadOp{th: th}}
	o.addedFn = o.finished
	return o
}

func (c *FAACounter) Step(th *Thread, done func()) {
	o := threadCtx(c, &c.ops, th, newFAAOp)
	o.done = done
	c.mem.FetchAndAdd(th.Core, counterLine, 1, o.addedFn)
}

// Value returns the counter's current value (for correctness checks).
func (c *FAACounter) Value() uint64 { return c.mem.System().Value(counterLine) }

// CASCounter increments a shared counter with the classic CAS retry
// loop (read value, CAS value -> value+1, retry on failure). This is
// the design the model tells you to avoid under contention.
type CASCounter struct {
	mem      *atomics.Memory
	attempts uint64
	ops      []*casOp
}

// NewCASCounter returns the CAS-loop counter.
func NewCASCounter(mem *atomics.Memory) *CASCounter { return &CASCounter{mem: mem} }

func (c *CASCounter) Name() string { return "counter-cas" }

// Attempts counts CAS issues, successful or not (RetryStats).
func (c *CASCounter) Attempts() uint64 { return c.attempts }

type casOp struct {
	threadOp
	c        *CASCounter
	expected uint64
	casFn    func(atomics.Result)
}

func newCASOp(c *CASCounter, th *Thread) *casOp {
	o := &casOp{threadOp: threadOp{th: th}, c: c}
	o.casFn = o.onCAS
	return o
}

func (c *CASCounter) Step(th *Thread, done func()) {
	o := threadCtx(c, &c.ops, th, newCASOp)
	o.done = done
	o.try()
}

// try issues one CAS with the thread's cached view of the counter.
func (o *casOp) try() {
	o.expected = o.th.lastSeen
	o.c.attempts++
	o.c.mem.CompareAndSwap(o.th.Core, counterLine, o.expected, o.expected+1, o.casFn)
}

func (o *casOp) onCAS(r atomics.Result) {
	if r.OK {
		o.th.lastSeen = o.expected + 1
		o.finish()
		return
	}
	o.th.lastSeen = r.Old
	o.try() // retry with the freshly observed value
}

// Value returns the counter's current value.
func (c *CASCounter) Value() uint64 { return c.mem.System().Value(counterLine) }

// TreiberStack is the classic lock-free stack: a CAS loop on the top
// pointer, with each node on its own cache line. Each Step performs a
// push or a pop (50/50), so the stack stays near its initial depth.
type TreiberStack struct {
	mem      *atomics.Memory
	nextID   uint64
	pushes   uint64
	pops     uint64
	empties  uint64
	attempts uint64
	// elim is the elimination array a failed top CAS falls back to
	// (EliminationStack); nil for the plain stack.
	elim *EliminationStack
	ops  []*stackOp
}

// NewTreiberStack returns a stack pre-seeded with depth nodes so pops
// do not immediately hit empty.
func NewTreiberStack(mem *atomics.Memory, depth int) *TreiberStack {
	s := &TreiberStack{mem: mem, nextID: 1}
	top := uint64(0)
	for i := 0; i < depth; i++ {
		id := s.nextID
		s.nextID++
		mem.System().SetValue(nodeBase+coherence.LineID(id), top)
		top = id
	}
	mem.System().SetValue(topLine, top)
	return s
}

func (s *TreiberStack) Name() string { return "treiber-stack" }

// Stats reports operation counts (pushes, pops, empty pops).
func (s *TreiberStack) Stats() (pushes, pops, empties uint64) {
	return s.pushes, s.pops, s.empties
}

// Attempts counts CAS issues on the top pointer (RetryStats).
func (s *TreiberStack) Attempts() uint64 { return s.attempts }

func (s *TreiberStack) nodeLine(id uint64) coherence.LineID {
	return nodeBase + coherence.LineID(id)
}

// alloc hands out the next node ID (allocation is not simulated; the
// node's line write is).
func (s *TreiberStack) alloc() uint64 {
	id := s.nextID
	s.nextID++
	return id
}

func (s *TreiberStack) Step(th *Thread, done func()) {
	o := threadCtx(s, &s.ops, th, newStackOp)
	o.done = done
	if th.RNG.Float64() < 0.5 {
		o.id = s.alloc()
		// Seed the first attempt with the thread's cached view of top.
		o.push(th.lastSeen)
	} else {
		o.pop()
	}
}

// stackOp is one thread's in-flight push or pop, on the plain stack or
// (elimination fields in use) the elimination stack.
type stackOp struct {
	threadOp
	s             *TreiberStack
	id, top, next uint64
	slot          coherence.LineID
	pushStoreFn   func(atomics.Result)
	pushCASFn     func(atomics.Result)
	popTopFn      func(atomics.Result)
	popNodeFn     func(atomics.Result)
	popCASFn      func(atomics.Result)
	parkFn        func(atomics.Result)
	windowFn      func()
	withdrawFn    func(atomics.Result)
	parkedResetFn func(atomics.Result)
	probeFn       func(atomics.Result)
}

func newStackOp(s *TreiberStack, th *Thread) *stackOp {
	o := &stackOp{threadOp: threadOp{th: th}, s: s}
	o.pushStoreFn = o.pushStored
	o.pushCASFn = o.pushCAS
	o.popTopFn = o.popTop
	o.popNodeFn = o.popNode
	o.popCASFn = o.popCAS
	o.parkFn = o.parked
	o.windowFn = o.windowOver
	o.withdrawFn = o.withdrawn
	o.parkedResetFn = o.parkedReset
	o.probeFn = o.probed
	return o
}

// push attempts to publish node o.id on top of oldTop.
func (o *stackOp) push(oldTop uint64) {
	// Write node.next = oldTop (the node line is private until the CAS
	// publishes it).
	o.top = oldTop
	o.s.mem.StoreOp(o.th.Core, o.s.nodeLine(o.id), oldTop, o.pushStoreFn)
}

func (o *stackOp) pushStored(atomics.Result) {
	o.s.attempts++
	o.s.mem.CompareAndSwap(o.th.Core, topLine, o.top, o.id, o.pushCASFn)
}

func (o *stackOp) pushCAS(r atomics.Result) {
	if r.OK {
		o.s.pushes++
		o.finish()
		return
	}
	if o.s.elim != nil {
		o.top = r.Old
		o.park()
		return
	}
	o.push(r.Old)
}

func (o *stackOp) pop() {
	o.s.mem.LoadOp(o.th.Core, topLine, o.popTopFn)
}

func (o *stackOp) popTop(r atomics.Result) {
	o.top = r.Old
	if o.top == 0 {
		o.s.empties++
		o.finish() // empty pop still counts as a completed operation
		return
	}
	// Read the node to find its successor — this line may be dirty in
	// the pusher's cache, which is exactly the traffic pattern that
	// makes stacks expensive under contention.
	o.s.mem.LoadOp(o.th.Core, o.s.nodeLine(o.top), o.popNodeFn)
}

func (o *stackOp) popNode(r atomics.Result) {
	o.next = r.Old
	o.s.attempts++
	o.s.mem.CompareAndSwap(o.th.Core, topLine, o.top, o.next, o.popCASFn)
}

func (o *stackOp) popCAS(r atomics.Result) {
	if r.OK {
		o.th.lastSeen = o.next
		o.s.pops++
		o.finish()
		return
	}
	o.th.lastSeen = r.Old
	if o.s.elim != nil {
		o.probe()
		return
	}
	o.pop()
}

// Lock abstracts a spinlock for the lock comparison experiments. An
// acquire-release cycle with a critical-section update of a shared data
// line is one Step.
type lockApp struct {
	name     string
	mem      *atomics.Memory
	crit     sim.Time
	eng      *sim.Engine
	attempts uint64
	// acquire enters the lock's acquisition loop, which calls
	// lockOp.locked once the thread holds the lock; release frees it
	// and completes the Step.
	acquire func(o *lockOp)
	release func(o *lockOp)
	// base and max bound lock-ttas-backoff's exponential backoff;
	// backoff selects it on a failed test-and-set.
	backoff   bool
	base, max sim.Time
	ops       []*lockOp
}

func (l *lockApp) Name() string { return l.name }

// Attempts counts acquisition-loop iterations: TAS issues for the
// test-and-set family, serving-counter refetches (reads observing a
// new value, i.e. line transfers) for the ticket lock (RetryStats).
func (l *lockApp) Attempts() uint64 { return l.attempts }

func (l *lockApp) Step(th *Thread, done func()) {
	o := threadCtx(l, &l.ops, th, newLockOp)
	o.done = done
	l.acquire(o)
}

// lockOp is one thread's in-flight acquire → critical section →
// release cycle.
type lockOp struct {
	threadOp
	l *lockApp
	// backoff is the current backoff bound (lock-ttas-backoff).
	backoff sim.Time
	// ticket, seen and last track the ticket lock's spin: the thread's
	// ticket and the last serving value it observed.
	ticket     uint64
	seen       bool
	last       uint64
	tasFn      func(atomics.Result)
	testFn     func()
	testLoadFn func(atomics.Result)
	testTASFn  func(atomics.Result)
	ticketFn   func(atomics.Result)
	servingFn  func(atomics.Result)
	critFn     func(atomics.Result)
	releaseFn  func()
	releasedFn func(atomics.Result)
}

func newLockOp(l *lockApp, th *Thread) *lockOp {
	o := &lockOp{threadOp: threadOp{th: th}, l: l}
	o.tasFn = o.onTAS
	o.testFn = o.test
	o.testLoadFn = o.onTestLoad
	o.testTASFn = o.onTestTAS
	o.ticketFn = o.onTicket
	o.servingFn = o.onServing
	o.critFn = o.onCrit
	o.releaseFn = o.releaseLock
	o.releasedFn = o.finished
	return o
}

// locked runs the critical section: update the protected data, hold,
// release.
func (o *lockOp) locked() {
	o.l.mem.FetchAndAdd(o.th.Core, dataLine, 1, o.critFn)
}

func (o *lockOp) onCrit(atomics.Result) {
	if o.l.crit > 0 {
		o.l.eng.Schedule(o.l.crit, o.releaseFn)
		return
	}
	o.releaseLock()
}

func (o *lockOp) releaseLock() { o.l.release(o) }

// releaseStore frees a test-and-set-family lock.
func (o *lockOp) releaseStore() {
	o.l.mem.StoreOp(o.th.Core, lockLine, 0, o.releasedFn)
}

// NewTASLock returns a test-and-set spinlock: every acquisition attempt
// is an RFO on the lock line (the line-bouncing worst case).
func NewTASLock(eng *sim.Engine, mem *atomics.Memory, crit sim.Time) App {
	return &lockApp{name: "lock-tas", mem: mem, crit: crit, eng: eng,
		acquire: (*lockOp).tas, release: (*lockOp).releaseStore}
}

func (o *lockOp) tas() {
	o.l.attempts++
	o.l.mem.TestAndSet(o.th.Core, lockLine, o.tasFn)
}

func (o *lockOp) onTAS(r atomics.Result) {
	if r.Old == 0 {
		o.locked()
		return
	}
	o.tas()
}

// NewTTASLock returns a test-and-test-and-set spinlock: waiters spin on
// local shared copies (reads) and only attempt the RFO when the lock
// looks free — the model-guided fix for TAS.
func NewTTASLock(eng *sim.Engine, mem *atomics.Memory, crit sim.Time) App {
	return &lockApp{name: "lock-ttas", mem: mem, crit: crit, eng: eng,
		acquire: (*lockOp).test, release: (*lockOp).releaseStore}
}

// NewTTASBackoffLock returns a TTAS lock with capped exponential
// backoff after failed acquisition attempts. Backoff is the classic
// remedy for the post-release thundering herd: when K waiters see the
// lock free at once, K-1 failing test-and-sets each cost a full line
// transfer, so spacing retries out trades a little handoff latency for
// far fewer bounces.
func NewTTASBackoffLock(eng *sim.Engine, mem *atomics.Memory, crit, base, max sim.Time) App {
	return &lockApp{name: "lock-ttas-backoff", mem: mem, crit: crit, eng: eng,
		acquire: (*lockOp).backoffAcquire, release: (*lockOp).releaseStore,
		backoff: true, base: base, max: max}
}

func (o *lockOp) backoffAcquire() {
	o.backoff = o.l.base
	o.test()
}

// test spins on the shared copy of the lock line.
func (o *lockOp) test() {
	o.l.mem.LoadOp(o.th.Core, lockLine, o.testLoadFn)
}

func (o *lockOp) onTestLoad(r atomics.Result) {
	if r.Old != 0 {
		o.test() // spin on the shared copy
		return
	}
	o.l.attempts++
	o.l.mem.TestAndSet(o.th.Core, lockLine, o.testTASFn)
}

func (o *lockOp) onTestTAS(r atomics.Result) {
	if r.Old == 0 {
		o.locked()
		return
	}
	if !o.l.backoff {
		o.test()
		return
	}
	wait := o.th.RNG.Duration(o.backoff) + o.backoff/2
	o.backoff *= 2
	if o.backoff > o.l.max {
		o.backoff = o.l.max
	}
	o.l.eng.Schedule(wait, o.testFn)
}

// NewTicketLock returns a ticket spinlock: one FAA takes a ticket, then
// the thread spins reading the serving counter — FIFO-fair by
// construction, which the fairness experiment demonstrates.
func NewTicketLock(eng *sim.Engine, mem *atomics.Memory, crit sim.Time) App {
	return &lockApp{name: "lock-ticket", mem: mem, crit: crit, eng: eng,
		acquire: (*lockOp).takeTicket, release: (*lockOp).releaseTicket}
}

func (o *lockOp) takeTicket() {
	o.l.mem.FetchAndAdd(o.th.Core, ticketLine, 1, o.ticketFn)
}

func (o *lockOp) onTicket(r atomics.Result) {
	o.ticket = r.Old
	o.seen, o.last = false, 0
	o.waitServing()
}

func (o *lockOp) waitServing() {
	o.l.mem.LoadOp(o.th.Core, servingLine, o.servingFn)
}

func (o *lockOp) onServing(r atomics.Result) {
	// Count serving-line refetches, not raw spin reads: between
	// handoffs a waiter re-reads its local Shared copy (no line
	// traffic), so only reads that observe a new serving value — a
	// refetch after the holder's invalidating bump — are attempts in
	// the conflict model's sense.
	if !o.seen || r.Old != o.last {
		o.seen, o.last = true, r.Old
		o.l.attempts++
	}
	if r.Old == o.ticket {
		o.th.lastSeen = o.ticket
		o.locked()
		return
	}
	o.waitServing()
}

func (o *lockOp) releaseTicket() {
	o.l.mem.StoreOp(o.th.Core, servingLine, o.th.lastSeen+1, o.releasedFn)
}

// DataValue returns the protected data line's value, for verifying
// mutual exclusion delivered exactly one update per completed cycle.
func DataValue(mem *atomics.Memory) uint64 { return mem.System().Value(dataLine) }

// CounterValue returns the shared counter value.
func CounterValue(mem *atomics.Memory) uint64 { return mem.System().Value(counterLine) }
