package apps

import (
	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/sim"
)

const (
	rwLockLine coherence.LineID = 170
	rwDataLine coherence.LineID = 190
	rwFlagLine coherence.LineID = 210
	rwSlotBase coherence.LineID = 1 << 24
)

// rwCommon carries the pieces both reader-writer locks share: the mix,
// the protected data, and exact overlap instrumentation. Because the
// simulation is one event loop, the activeReaders/activeWriters
// counters observe true simulated-time overlap — Violations counts
// real mutual-exclusion breaches, not sampling artifacts.
type rwCommon struct {
	mem      *atomics.Memory
	eng      *sim.Engine
	readFrac float64
	crit     sim.Time

	activeReaders int
	activeWriters int
	violations    int
	reads, writes uint64
	attempts      uint64
}

// Attempts counts acquisition attempts — the gating CAS/TAS issues and
// reader announce rounds, successful or not (RetryStats).
func (c *rwCommon) Attempts() uint64 { return c.attempts }

func (c *rwCommon) enterRead() {
	if c.activeWriters > 0 {
		c.violations++
	}
	c.activeReaders++
}

func (c *rwCommon) exitRead() { c.activeReaders-- }

func (c *rwCommon) enterWrite() {
	if c.activeWriters > 0 || c.activeReaders > 0 {
		c.violations++
	}
	c.activeWriters++
}

func (c *rwCommon) exitWrite() { c.activeWriters-- }

// Violations reports observed mutual-exclusion breaches (must be 0).
func (c *rwCommon) Violations() int { return c.violations }

// Ops reports completed read and write sections.
func (c *rwCommon) Ops() (reads, writes uint64) { return c.reads, c.writes }

// rwOp is the part of an RW-lock thread's op context both locks share:
// the protected section and its hand-off to the lock's release.
type rwOp struct {
	threadOp
	c       *rwCommon
	writing bool
	// release frees the lock for the section in flight (read or write)
	// and ends with releasedFn; each lock binds its own.
	release    func()
	critFn     func(atomics.Result)
	exitFn     func()
	releasedFn func(atomics.Result)
}

func (o *rwOp) init(c *rwCommon, th *Thread, release func()) {
	o.th, o.c, o.release = th, c, release
	o.critFn = o.onCrit
	o.exitFn = o.exit
	o.releasedFn = o.released
}

// enter runs the protected section — a read of the data line, or an
// update for a writer — then releases.
func (o *rwOp) enter(writing bool) {
	o.writing = writing
	if writing {
		o.c.enterWrite()
		o.c.mem.FetchAndAdd(o.th.Core, rwDataLine, 1, o.critFn)
		return
	}
	o.c.enterRead()
	o.c.mem.LoadOp(o.th.Core, rwDataLine, o.critFn)
}

func (o *rwOp) onCrit(atomics.Result) {
	if o.c.crit > 0 {
		o.c.eng.Schedule(o.c.crit, o.exitFn)
		return
	}
	o.exit()
}

func (o *rwOp) exit() {
	if o.writing {
		o.c.exitWrite()
	} else {
		o.c.exitRead()
	}
	o.release()
}

func (o *rwOp) released(atomics.Result) {
	if o.writing {
		o.c.writes++
	} else {
		o.c.reads++
	}
	o.finish()
}

// CentralRWLock is the textbook single-word reader-writer spinlock:
// bit 0 is the writer flag, the upper bits count readers. Every reader
// acquisition and release is an RMW on the one lock line, so a
// read-mostly workload still bounces it — the design the model warns
// about.
type CentralRWLock struct {
	rwCommon
	ops []*centralOp
}

// NewCentralRWLock returns the one-line reader-writer lock; readFrac of
// the Steps are read sections, crit is the section length.
func NewCentralRWLock(eng *sim.Engine, mem *atomics.Memory, readFrac float64, crit sim.Time) *CentralRWLock {
	return &CentralRWLock{rwCommon: rwCommon{mem: mem, eng: eng, readFrac: readFrac, crit: crit}}
}

func (l *CentralRWLock) Name() string { return "rwlock-central" }

func (l *CentralRWLock) Step(th *Thread, done func()) {
	o := threadCtx(l, &l.ops, th, newCentralOp)
	o.done = done
	if th.RNG.Float64() < l.readFrac {
		o.readAcquire()
	} else {
		o.writeAcquire()
	}
}

type centralOp struct {
	rwOp
	v           uint64 // lock word a reader observed
	readLoadFn  func(atomics.Result)
	readCASFn   func(atomics.Result)
	writeLoadFn func(atomics.Result)
	writeCASFn  func(atomics.Result)
}

func newCentralOp(l *CentralRWLock, th *Thread) *centralOp {
	o := &centralOp{}
	o.init(&l.rwCommon, th, o.unlock)
	o.readLoadFn = o.onReadLoad
	o.readCASFn = o.onReadCAS
	o.writeLoadFn = o.onWriteLoad
	o.writeCASFn = o.onWriteCAS
	return o
}

func (o *centralOp) readAcquire() {
	o.c.mem.LoadOp(o.th.Core, rwLockLine, o.readLoadFn)
}

func (o *centralOp) onReadLoad(r atomics.Result) {
	o.v = r.Old
	if o.v&1 == 1 {
		o.readAcquire() // writer active: spin on shared copy
		return
	}
	o.c.attempts++
	o.c.mem.CompareAndSwap(o.th.Core, rwLockLine, o.v, o.v+2, o.readCASFn)
}

func (o *centralOp) onReadCAS(r atomics.Result) {
	if !r.OK {
		o.readAcquire()
		return
	}
	o.enter(false)
}

func (o *centralOp) writeAcquire() {
	o.c.mem.LoadOp(o.th.Core, rwLockLine, o.writeLoadFn)
}

func (o *centralOp) onWriteLoad(r atomics.Result) {
	if r.Old != 0 {
		o.writeAcquire() // busy: spin
		return
	}
	o.c.attempts++
	o.c.mem.CompareAndSwap(o.th.Core, rwLockLine, 0, 1, o.writeCASFn)
}

func (o *centralOp) onWriteCAS(r atomics.Result) {
	if !r.OK {
		o.writeAcquire()
		return
	}
	o.enter(true)
}

func (o *centralOp) unlock() {
	if o.writing {
		o.c.mem.StoreOp(o.th.Core, rwLockLine, 0, o.releasedFn)
		return
	}
	// Reader release: subtract 2 (add the two's complement).
	o.c.mem.FetchAndAdd(o.th.Core, rwLockLine, ^uint64(1), o.releasedFn)
}

// DistributedRWLock is the big-reader design: each thread announces
// itself on its own cache line (readers never touch a shared line on
// the fast path), and a writer raises a central flag then scans every
// reader slot. Reads scale; writes pay O(threads) — the trade the
// model prices via its private-vs-shared line distinction.
type DistributedRWLock struct {
	rwCommon
	slots int
	ops   []*distOp
}

// NewDistributedRWLock returns the per-reader-slot lock for up to slots
// reader threads (thread IDs index the slots).
func NewDistributedRWLock(eng *sim.Engine, mem *atomics.Memory, slots int, readFrac float64, crit sim.Time) *DistributedRWLock {
	return &DistributedRWLock{rwCommon: rwCommon{mem: mem, eng: eng, readFrac: readFrac, crit: crit}, slots: slots}
}

func (l *DistributedRWLock) Name() string { return "rwlock-distributed" }

func (l *DistributedRWLock) slot(id int) coherence.LineID {
	return rwSlotBase + coherence.LineID(id)*512
}

func (l *DistributedRWLock) Step(th *Thread, done func()) {
	o := threadCtx(l, &l.ops, th, newDistOp)
	o.done = done
	if th.RNG.Float64() < l.readFrac {
		o.readAcquire()
	} else {
		o.writeAcquire()
	}
}

type distOp struct {
	rwOp
	l           *DistributedRWLock
	i           int // next reader slot a writer scans
	flagFn      func(atomics.Result)
	announcedFn func(atomics.Result)
	recheckFn   func(atomics.Result)
	withdrawnFn func(atomics.Result)
	writeTASFn  func(atomics.Result)
	scanFn      func(atomics.Result)
}

func newDistOp(l *DistributedRWLock, th *Thread) *distOp {
	o := &distOp{l: l}
	o.init(&l.rwCommon, th, o.unlock)
	o.flagFn = o.onFlag
	o.announcedFn = o.onAnnounced
	o.recheckFn = o.onRecheck
	o.withdrawnFn = o.onWithdrawn
	o.writeTASFn = o.onWriteTAS
	o.scanFn = o.onScan
	return o
}

func (o *distOp) readAcquire() {
	o.l.mem.LoadOp(o.th.Core, rwFlagLine, o.flagFn)
}

func (o *distOp) onFlag(r atomics.Result) {
	if r.Old != 0 {
		o.readAcquire() // writer present: spin on the flag
		return
	}
	// Announce, then re-check the flag (Dekker-style handshake).
	o.l.attempts++
	o.l.mem.StoreOp(o.th.Core, o.l.slot(o.th.ID), 1, o.announcedFn)
}

func (o *distOp) onAnnounced(atomics.Result) {
	o.l.mem.LoadOp(o.th.Core, rwFlagLine, o.recheckFn)
}

func (o *distOp) onRecheck(r atomics.Result) {
	if r.Old != 0 {
		// A writer raced in: withdraw and retry.
		o.l.mem.StoreOp(o.th.Core, o.l.slot(o.th.ID), 0, o.withdrawnFn)
		return
	}
	o.enter(false)
}

func (o *distOp) onWithdrawn(atomics.Result) { o.readAcquire() }

func (o *distOp) writeAcquire() {
	o.l.attempts++
	o.l.mem.TestAndSet(o.th.Core, rwFlagLine, o.writeTASFn)
}

func (o *distOp) onWriteTAS(r atomics.Result) {
	if r.Old != 0 {
		o.writeAcquire() // another writer holds the flag
		return
	}
	o.i = 0
	o.scan()
}

// scan waits for every announced reader to drain, then runs the write
// section.
func (o *distOp) scan() {
	if o.i == o.l.slots {
		o.enter(true)
		return
	}
	o.l.mem.LoadOp(o.th.Core, o.l.slot(o.i), o.scanFn)
}

func (o *distOp) onScan(r atomics.Result) {
	if r.Old == 0 {
		o.i++ // reader gone (or never there): next slot
	}
	o.scan() // a reader still inside keeps us spinning on its slot
}

func (o *distOp) unlock() {
	if o.writing {
		o.l.mem.StoreOp(o.th.Core, rwFlagLine, 0, o.releasedFn)
		return
	}
	o.l.mem.StoreOp(o.th.Core, o.l.slot(o.th.ID), 0, o.releasedFn)
}
