// Steady-state cycle memoizer: the workload-level half of the analytic
// fast-forward layer (the engine half is sim.ShiftPendingBefore and
// JumpClock, plus sim.RNG.Advance for the threads' streams).
//
// A closed-loop cell settles into an exactly periodic schedule, in one
// of two ways (the memoizer's modes):
//
//   - Grant rotation (ffGrant). On one shared line with no think time
//     and a FIFO arbiter, a value-independent RMW (FAA, SWAP, TAS,
//     Store) grants the same rotation of threads in the same order with
//     the same service intervals forever.
//   - Contention-free (ffFree). No op changes the directory state of
//     the lines it touches: loads that every core serves from its own
//     shared copy and fences that never reach the line, or — in low
//     contention — value-independent ops on each thread's private
//     lines, every one an owner hit after its cold fill. Every thread
//     cycles on its own fixed service time, independently of the
//     others.
//
// Either way the simulation spends its windows re-deriving a cycle it
// has already computed. The memoizer detects that cycle and skips it
// analytically:
//
//  1. Fingerprint the cell state between events. In grant mode that is
//     the line's directory entry and queue window in grant order plus
//     the time to the pending completion. In contention-free mode it is
//     every thread's in-flight issue offset (now − issuedAt) plus the
//     shared line's entry, or on private lines each thread's rotation
//     position and the entry of its in-flight line only. That is
//     everything the access path can read, minus the monotone counters
//     that provably do not feed back.
//  2. When the fingerprint recurs, one cycle has been recorded: its
//     event count, duration, counter deltas, per-thread RNG draws, and
//     trace-event sequence.
//  3. Record a second cycle and require it to match the first exactly
//     (events compared field-by-field, counters and draws
//     delta-by-delta). Two independent matches plus the state
//     fingerprint rule out coincidental recurrence.
//  4. Jump: multiply the integer counter deltas by the number of
//     whole cycles remaining, replay the cycle's energy additions in
//     order (float addition is non-associative, so scaling would
//     diverge from the simulated sum; replaying the identical addition
//     sequence cannot), advance each thread's RNG stream by its
//     scaled draw count, shift the pending completions and in-flight
//     issue times, and jump the clock. The final partial cycle plays
//     out live, so boundary behavior is identical to the unskipped run.
//
// Every eligible run gets two passes. The pre-warmup pass arms as soon
// as the startup convoy resolves (cold fills make the opening rotations
// aperiodic, so the first fingerprint may need to be retaken) and jumps
// up to just short of the warmup boundary. The warmup marker event
// stays pending throughout, at the boundary itself, so the jump moves
// only the events before it (sim.ShiftPendingBefore): the schedule's
// completions, all due within one cycle, land at or before the marker,
// and a tie still pops the marker first because it was scheduled
// earlier. The measured-window pass re-arms at the warmup boundary and
// jumps toward the end of the window; the marker is gone by then, so
// the same call moves every pending event. Both passes apply the
// identical set of counter/energy effects, so the state at every
// boundary matches the unskipped run bit-for-bit.
//
// Eligibility is conservative (see memoEligible): anything that makes
// an operation's behavior value-dependent (CAS), draws randomness that
// feeds back (jittered think time, a read/write mix that can draw an
// RMW), or needs per-event visibility (metrics, invariant checking,
// fault plans, stateful arbiters, store buffering, finite bandwidth)
// disables the memoizer for that run. An ineligible or aperiodic cell
// runs every event as before; the differential tests prove
// byte-identical results either way.
package workload

import (
	"bytes"
	"encoding/binary"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/sim"
	"atomicsmodel/internal/stats"
)

// fastForwardOn gates the memoizer globally. SetFastForward flips it;
// the differential tests run each experiment both ways and compare
// bytes.
var fastForwardOn = true

// SetFastForward enables or disables the steady-state cycle memoizer
// for subsequent runs (it defaults to on). Results are byte-identical
// either way; only the number of simulated events changes. Not safe to
// call while cells are running.
func SetFastForward(on bool) { fastForwardOn = on }

// FastForwardEnabled reports the current gate, for tests.
func FastForwardEnabled() bool { return fastForwardOn }

// Memoizer modes: memoEligible's verdict for a run.
const (
	ffOff   = iota // ineligible: every event is simulated
	ffGrant        // FIFO grant rotation of a value-independent RMW
	ffFree         // contention-free: no op changes the line's state
)

// jumpHook, when set, is called with the mode, the pass (false before
// the warmup boundary, true in the measured window) and the number of
// elided cycles each time a jump engages. Tests use it to prove the
// memoizer engaged on the cells it should; it is nil otherwise.
var jumpHook func(mode int, measuring bool, cycles uint64)

// Memoizer phases. The probe runs between events (engine idle hook) and
// walks: off → capture (fingerprint at an event boundary once the
// queue has the expected steady shape) → record (wait for the
// fingerprint to recur) → verify (require a second identical cycle) →
// done (jumped, or given up). memoArm restarts the walk for each pass.
const (
	memoOff = iota
	memoCapture
	memoRecord
	memoVerify
	memoDone
)

// maxCaptureAttempts bounds how many times a pass may re-take its
// starting fingerprint after a failed search before standing down.
const maxCaptureAttempts = 4

// memoState is the per-runner scratch for the memoizer. All slices are
// reused across runs, so an armed memoizer allocates only on its first
// few cycles ever.
type memoState struct {
	phase int
	// Pass parameters (memoArm): the expected steady pending-event
	// count (the schedule's completions — one in grant mode, one per
	// thread in contention-free mode — plus the warmup marker before
	// the boundary), probes to skip before the first capture,
	// re-capture budget, the cycle-search event bound, and the time the
	// jump must stay short of.
	want      int
	skip      int
	attempts  int
	searchLim uint64
	bound     sim.Time

	key []byte // fingerprint at cycle start
	tmp []byte // probe scratch

	// Baselines captured at the current cycle's start.
	t0          sim.Time
	p0          uint64
	opsB, attB  uint64
	failB       uint64
	perOpsB     []uint64
	rngB        []uint64 // per-thread RNG stream positions
	cohB        coherence.Stats
	latB, slatB *stats.Histogram

	// The recorded cycle (filled when the fingerprint first recurs).
	period            uint64
	dur               sim.Time
	dOps, dAtt, dFail uint64
	dPerOps           []uint64
	dRNG              []uint64
	dCoh              coherence.Stats
	evsA, evsB        []coherence.TraceEvent
	njs               []float64 // per-event energy charges, for Replay
}

// memoEligible returns the memoizer mode cfg's steady state admits.
// Both modes need a closed loop with no think time, a stateless FIFO
// grant order, no state that spills across cycles (store buffering,
// finite link bandwidth), and no observer that needs per-event
// visibility (metrics, invariant checking, fault plans).
//
//   - ffGrant: FAA, SWAP, TAS and Store in high contention on one
//     shared line. The fingerprint leaves out the line value, which
//     these primitives never branch on; CAS control flow does, so CAS
//     stays ineligible in every mode.
//   - ffFree: ops that never change a line's directory state once it
//     has settled. On one shared line that is Load and Fence in high
//     contention, and read/write mixes with ReadFraction 1, whose
//     per-op draw always yields a load — the draw advances the thread's
//     stream but its outcome never feeds back (a fraction below 1 can
//     draw an RMW, which is aperiodic). In low contention it is FAA,
//     SWAP, TAS, Store and Load on any number of private lines: after
//     its cold fill each line is an owner hit of constant cost that no
//     other thread touches. A low-contention CAS carries lastSeen from
//     one line to the next, so its control flow depends on values.
func memoEligible(cfg *Config) int {
	if cfg.LocalWork != 0 || cfg.OpenLoop ||
		cfg.Metrics || cfg.Check || cfg.Faults != nil {
		return ffOff
	}
	if cfg.Lines != 1 && cfg.Mode != LowContention {
		return ffOff
	}
	switch cfg.Arbiter.(type) {
	case nil, coherence.FIFOArbiter:
	default:
		return ffOff
	}
	if m := cfg.Machine; m.StoreBufferDepth != 0 || m.LinkOccupancy != 0 {
		return ffOff
	}
	switch cfg.Mode {
	case ReadWriteMix:
		if cfg.ReadFraction >= 1 {
			return ffFree
		}
	case HighContention:
		switch cfg.Primitive {
		case atomics.FAA, atomics.SWAP, atomics.TAS, atomics.Store:
			return ffGrant
		case atomics.Load, atomics.Fence:
			return ffFree
		}
	case LowContention:
		switch cfg.Primitive {
		case atomics.FAA, atomics.SWAP, atomics.TAS, atomics.Store, atomics.Load:
			return ffFree
		}
	}
	return ffOff
}

// memoLine is the shared line a memoized high-contention or mix cell
// cycles on (linesFor numbers shared lines from 1; eligibility pins
// Lines to 1 outside low contention).
const memoLine = coherence.LineID(1)

// memoArm starts (or restarts) a memoization pass and installs the
// probe and the recording tracer. want is the steady pending-event
// count: the schedule's own completions (one in grant mode, one per
// thread in contention-free mode), plus the warmup marker in the
// pre-warmup pass, which may only jump short of the warmup boundary;
// the measured-window pass jumps toward the end of the window. skip
// consumes probes before the first capture — past the startup convoy
// in the pre pass, past the warmup marker's own mid-service probe in
// the measured-window pass.
func (r *runner) memoArm(want, skip int, bound sim.Time) {
	m := &r.memo
	m.phase = memoCapture
	m.want, m.skip, m.bound = want, skip, bound
	m.attempts = 0
	// The steady cycle is one rotation of the closed loop — a few
	// events per thread and line — so a fingerprint that has not
	// recurred within a handful of rotations was taken mid-transient.
	// Keeping the search bound proportional to the rotation makes a
	// failed capture cheap enough to retry.
	m.searchLim = uint64(4*r.cfg.Threads*r.cfg.Lines + 64)
	r.eng.SetIdleHook(r.probeFn)
	r.mem.System().SetTracer(r.traceRecFn)
}

// memoCompletions is the number of completions a steady closed-loop
// schedule keeps pending: the one service in grant mode, one op per
// thread in contention-free mode.
func (r *runner) memoCompletions() int {
	if r.memoMode == ffFree {
		return r.cfg.Threads
	}
	return 1
}

// cycleKey fingerprints the cell between events: the protocol state of
// the lines in play plus the phase of the pending work. In grant mode
// that is the shared line and the time to the next pending event (the
// completion; pass bounds keep the warmup marker from ever being the
// nearer one on a cycle boundary). In contention-free mode every
// thread has its own op in flight, whose completion time is fixed by
// its issue offset; on private lines the key adds the thread's
// rotation position and only its in-flight line, since memoSettled has
// proven every line held by its thread's core at capture and no other
// thread can touch one. The key leads with thread 0's issue offset,
// which probe uses as a cheap filter.
func (r *runner) cycleKey(dst []byte) []byte {
	now := r.eng.Now()
	sys := r.mem.System()
	if r.memoMode != ffFree {
		at, _ := r.eng.PeekTime()
		dst = binary.LittleEndian.AppendUint64(dst, uint64(at-now))
		return sys.AppendCycleKey(dst, memoLine)
	}
	private := r.cfg.Mode == LowContention
	for _, th := range r.threads[:r.cfg.Threads] {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(now-th.issuedAt))
		if private {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(th.issued%len(th.lines)))
			dst = sys.AppendCycleKey(dst, th.inFlight())
		}
	}
	if private {
		return dst
	}
	return sys.AppendCycleKey(dst, memoLine)
}

// memoSettled reports whether a contention-free cell's lines are in
// their steady state, the precondition for a capture. A shared line
// must have drained its opening convoy of misses: until then the
// pending count can match while one thread's read is in service and the
// rest already hit. On private lines every cold fill must have
// completed — in a closed loop a thread issues past its rotation only
// once its last fill is done, which is O(threads) to check while the
// fills are under way — and every line must then be held by its
// thread's core with nothing queued.
func (r *runner) memoSettled() bool {
	sys := r.mem.System()
	if r.cfg.Mode != LowContention {
		return sys.LineIdle(memoLine)
	}
	threads := r.threads[:r.cfg.Threads]
	for _, th := range threads {
		if th.issued <= len(th.lines) {
			return false
		}
	}
	for _, th := range threads {
		for _, id := range th.lines {
			if !sys.LineHeld(id, th.core) {
				return false
			}
		}
	}
	return true
}

// memoBase records the counter baselines at a cycle boundary.
func (r *runner) memoBase() {
	m := &r.memo
	m.t0 = r.eng.Now()
	m.p0 = r.eng.Processed()
	m.opsB, m.attB, m.failB = r.ops, r.attempts, r.failures
	m.perOpsB = append(m.perOpsB[:0], r.perOps...)
	m.rngB = m.rngB[:0]
	for _, th := range r.threads[:r.cfg.Threads] {
		m.rngB = append(m.rngB, th.rng.Pos())
	}
	m.cohB = r.mem.System().Stats()
	if m.latB == nil {
		m.latB, m.slatB = stats.NewHistogram(), stats.NewHistogram()
	}
	r.lat.CopyInto(m.latB)
	r.slat.CopyInto(m.slatB)
}

// memoCapture takes the starting fingerprint of a (re)started cycle
// search at the current event boundary.
func (r *runner) memoCapture() {
	m := &r.memo
	m.key = r.cycleKey(m.key[:0])
	r.memoBase()
	m.evsA, m.evsB = m.evsA[:0], m.evsB[:0]
	m.phase = memoRecord
}

// memoAbort stands the memoizer down for the rest of the pass,
// restoring the plain tracer. Correctness is unaffected — the cell
// simply simulates every event (and the post-warmup pass still arms
// even if the pre-warmup pass gave up).
func (r *runner) memoAbort() {
	r.memo.phase = memoDone
	r.mem.System().SetTracer(r.traceFn)
}

// probe is the engine idle hook of an armed memoizer; it runs between
// events with a clean stack, the only place pending events may be
// translated and the clock jumped.
func (r *runner) probe() {
	m := &r.memo
	if m.phase == memoOff || m.phase == memoDone {
		return
	}
	if m.skip > 0 {
		m.skip--
		return
	}
	switch m.phase {
	case memoCapture:
		if r.eng.Pending() != m.want {
			// Startup convoy still forming (threads yet to issue their
			// first op); wait for the steady queue shape.
			return
		}
		if r.memoMode == ffFree && !r.memoSettled() {
			return
		}
		r.memoCapture()
	case memoRecord, memoVerify:
		if r.eng.Pending() != m.want {
			r.memoAbort()
			return
		}
		if r.eng.Processed()-m.p0 > m.searchLim {
			// The fingerprint did not recur: it was taken mid-transient
			// (e.g. the cold-miss fill still in service) or the schedule
			// is aperiodic. Re-fingerprint from the current state a few
			// times before standing down.
			if m.phase == memoRecord && m.attempts < maxCaptureAttempts {
				m.attempts++
				r.memoCapture()
				return
			}
			r.memoAbort()
			return
		}
		if r.memoMode == ffFree &&
			uint64(r.eng.Now()-r.threads[0].issuedAt) != binary.LittleEndian.Uint64(m.key) {
			// Thread 0 is off its captured phase: the key cannot match,
			// so skip building it (an O(threads) key on every event).
			return
		}
		m.tmp = r.cycleKey(m.tmp[:0])
		if !bytes.Equal(m.tmp, m.key) {
			return
		}
		if m.phase == memoRecord {
			// First recurrence: one whole cycle is on record. Measure
			// it, rebase, and demand an identical second cycle.
			m.period = r.eng.Processed() - m.p0
			m.dur = r.eng.Now() - m.t0
			m.dOps = r.ops - m.opsB
			m.dAtt = r.attempts - m.attB
			m.dFail = r.failures - m.failB
			m.dPerOps = m.dPerOps[:0]
			for i, b := range m.perOpsB {
				m.dPerOps = append(m.dPerOps, r.perOps[i]-b)
			}
			m.dRNG = m.dRNG[:0]
			for i, b := range m.rngB {
				m.dRNG = append(m.dRNG, r.threads[i].rng.Pos()-b)
			}
			m.dCoh = subStats(r.mem.System().Stats(), m.cohB)
			r.memoBase()
			m.evsB = m.evsB[:0]
			m.phase = memoVerify
			return
		}
		r.memoJump()
	}
}

// memoJump verifies the second recorded cycle against the first and, on
// an exact match, applies the remaining whole cycles analytically.
func (r *runner) memoJump() {
	m := &r.memo
	eng, sys := r.eng, r.mem.System()
	now := eng.Now()

	ok := eng.Processed()-m.p0 == m.period &&
		now-m.t0 == m.dur &&
		r.ops-m.opsB == m.dOps &&
		r.attempts-m.attB == m.dAtt &&
		r.failures-m.failB == m.dFail &&
		subStats(sys.Stats(), m.cohB) == m.dCoh &&
		len(m.evsA) == len(m.evsB)
	for i, b := range m.perOpsB {
		ok = ok && r.perOps[i]-b == m.dPerOps[i]
	}
	for i, b := range m.rngB {
		ok = ok && r.threads[i].rng.Pos()-b == m.dRNG[i]
	}
	if ok {
		for i := range m.evsA {
			if !sameTraceShape(m.evsA[i], m.evsB[i]) {
				ok = false
				break
			}
		}
	}
	if !ok || m.dur <= 0 {
		r.memoAbort()
		return
	}

	// Keep one whole cycle plus the final partial cycle live at the
	// tail. The jump lands on the verified periodic state shifted in
	// time, so the approach to the boundary (warmup marker or end of
	// window) develops exactly as in the unskipped run.
	cycles := uint64((m.bound - now) / m.dur)
	if cycles < 2 {
		r.memoAbort()
		return
	}
	k := cycles - 1
	jump := sim.Time(k) * m.dur
	// Every pending event of the periodic schedule is due within one
	// cycle, so it moves to at most bound; the warmup marker, pending
	// at bound in the pre-warmup pass, stays put and still pops first
	// on a tie (it was scheduled before any completion).
	eng.ShiftPendingBefore(m.bound, jump)

	r.ops += m.dOps * k
	r.attempts += m.dAtt * k
	r.failures += m.dFail * k
	for i := range m.dPerOps {
		r.perOps[i] += m.dPerOps[i] * k
	}
	r.lat.AddScaledDiff(m.latB, k)
	r.slat.AddScaledDiff(m.slatB, k)
	sys.AddScaledStats(m.dCoh, k)
	// Replay the energy additions of each elided cycle in simulated
	// order; the meter's float accumulator then holds exactly the sum
	// the unskipped run would have produced. The per-event charges are
	// computed once so the replay is a pure addition loop.
	m.njs = m.njs[:0]
	for _, ev := range m.evsB {
		m.njs = append(m.njs, r.meter.EventNJ(ev))
	}
	r.meter.Replay(m.njs, k)

	// Each thread now stands in for its k-cycles-later self: its
	// stream has made k cycles' worth of draws, and its in-flight op
	// (with the memory's request and fence stamps) issued jump later.
	for i, th := range r.threads[:r.cfg.Threads] {
		th.rng.Advance(k * m.dRNG[i])
		th.issuedAt += jump
	}
	r.mem.ShiftInFlight(jump)
	eng.JumpClock(now+jump, k*m.period)
	if jumpHook != nil {
		jumpHook(r.memoMode, r.measuring, k)
	}
	r.memoAbort() // restores the tracer; phase = done
}

// sameTraceShape compares two trace events ignoring their monotone
// fields: At (absolute time) and Result.Value (the line value, which
// grows every cycle under FAA). Everything that feeds the meter or the
// histograms is compared.
func sameTraceShape(a, b coherence.TraceEvent) bool {
	return a.Line == b.Line && a.Core == b.Core && a.Kind == b.Kind &&
		a.Result.Latency == b.Result.Latency &&
		a.Result.Hops == b.Result.Hops &&
		a.Result.QueuedBehind == b.Result.QueuedBehind &&
		a.Result.Source == b.Result.Source &&
		a.Result.Wrote == b.Result.Wrote &&
		a.Result.CrossSocket == b.Result.CrossSocket
}
