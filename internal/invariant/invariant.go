// Package invariant installs online checkers on the coherence directory
// and the simulation engine, turning silent protocol corruption into
// loud, deterministic errors. The paper's model is validated against
// the simulator, so a coherence bug that never crashes — two cores both
// believing they own a line, a lost sharer invalidation, event time
// running backwards — would skew every latency/throughput/fairness
// table while every test stays green. With checking enabled (the
// `-check` flag on atomicsim and atomicd jobs; workload.Config.Check /
// apps.RunConfig.Check underneath) every directory transition and every
// completed serialized access is audited as it happens, and Finalize
// sweeps the end-of-run state.
//
// Checked invariants, mapped to the assumptions MODEL.md leans on:
//
//	single-owner      — a line in M/E has exactly one owner and no
//	                    sharers (MODEL.md §1: one transfer source).
//	owner-range       — the owner is a real core.
//	event-monotone    — simulated time never moves backwards
//	                    (MODEL.md §2 queueing math assumes a clock).
//	queue-conserve    — per line, requests enqueued = granted + still
//	                    queued at the end (no lost or duplicated grants).
//	skip-bound        — a bounded-skip arbiter never bypasses a request
//	                    more than its bound plus the queue it stands in
//	                    (the anti-starvation property F-series fairness
//	                    tables depend on).
//	value-conserve    — the 64-bit line value observed at each
//	                    serialization point equals the value the
//	                    previous serialized access left behind: no lost
//	                    CAS/FAI updates, no torn values.
//
// Violations are collected (capped) in simulation order, so a given
// seed reports the same violations in the same order at any -par. In
// the pipeline (ARCHITECTURE.md) this package sits beside
// internal/metrics: both observe the substrate through nil-guarded
// hooks that cost nothing when off; DESIGN.md ("Fault injection and
// invariants") covers the design.
package invariant

import (
	"fmt"
	"sort"
	"strings"

	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/sim"
)

// maxViolations caps how many violations a checker records; one is
// enough to fail the cell, a handful is enough to debug it, and an
// unbounded list could swallow a long run's memory.
const maxViolations = 8

// lineAudit is the per-line ledger.
type lineAudit struct {
	enqueued int64
	granted  int64
	// lastValue is the value the previous serialized access left on the
	// line; seeded reports whether anything (SetValue or a completed
	// service) has established it yet.
	lastValue uint64
	seeded    bool
	// lastGrantAt guards per-line grant-time monotonicity.
	lastGrantAt sim.Time
}

// Checker audits one cell's engine and coherence system. It is not
// safe for concurrent use — a cell is single-threaded by construction
// (parallelism lives across cells, never inside one).
type Checker struct {
	eng *sim.Engine
	sys *coherence.System
	// skipBound is the arbiter's starvation bound (0 = unbounded).
	skipBound  int
	lines      map[coherence.LineID]*lineAudit
	violations []string
	truncated  int // violations dropped past the cap
}

// Install attaches a checker to eng and sys: it becomes the system's
// auditor and the engine's monotonicity check. The returned Checker
// must be finalized after the run.
func Install(eng *sim.Engine, sys *coherence.System) *Checker {
	c := &Checker{
		eng:   eng,
		sys:   sys,
		lines: make(map[coherence.LineID]*lineAudit),
	}
	if la, ok := sys.Arbiter().(*coherence.LocalityArbiter); ok && la.MaxSkips > 0 {
		c.skipBound = la.MaxSkips
	}
	sys.SetAuditor(c)
	eng.SetMonotoneCheck(func(err error) {
		c.report("event-monotone: %v", err)
	})
	return c
}

func (c *Checker) report(format string, args ...interface{}) {
	if len(c.violations) >= maxViolations {
		c.truncated++
		return
	}
	c.violations = append(c.violations,
		fmt.Sprintf("t=%v: ", c.eng.Now())+fmt.Sprintf(format, args...))
}

func (c *Checker) line(id coherence.LineID) *lineAudit {
	la, ok := c.lines[id]
	if !ok {
		la = &lineAudit{}
		c.lines[id] = la
	}
	return la
}

// LineEnqueued implements coherence.Auditor.
func (c *Checker) LineEnqueued(id coherence.LineID, queueLen int) {
	c.line(id).enqueued++
}

// LineGranted implements coherence.Auditor: post-transition directory
// exclusivity, owner range, skip bound, and grant-time monotonicity.
func (c *Checker) LineGranted(g coherence.AuditGrant) {
	la := c.line(g.Line)
	la.granted++
	if g.At < la.lastGrantAt {
		c.report("event-monotone: line %d granted at t=%v after a grant at t=%v", g.Line, g.At, la.lastGrantAt)
	}
	la.lastGrantAt = g.At
	if g.Owner >= 0 && g.Sharers > 0 {
		c.report("single-owner: line %d owned by core %d (dirty=%v) with %d sharers after %s grant to core %d",
			g.Line, g.Owner, g.OwnerDirty, g.Sharers, g.Kind, g.Core)
	}
	if n := c.sys.Params().NumCores; g.Owner >= n {
		c.report("owner-range: line %d owner %d outside [0,%d)", g.Line, g.Owner, n)
	}
	if !g.Valid && (g.Owner >= 0 || g.Sharers > 0) {
		c.report("single-owner: line %d cached (owner %d, %d sharers) but marked not valid", g.Line, g.Owner, g.Sharers)
	}
	// A bounded arbiter force-grants a request once it has been skipped
	// MaxSkips times; it can then be bypassed only by requests that also
	// hit the bound, of which there are at most QueueLen.
	if c.skipBound > 0 && g.Skipped > c.skipBound+g.QueueLen {
		c.report("skip-bound: line %d granted core %d after %d skips (bound %d, queue %d)",
			g.Line, g.Core, g.Skipped, c.skipBound, g.QueueLen)
	}
}

// AccessCompleted implements coherence.Auditor: the 64-bit value chain.
// Serialized services are granted one at a time per line, so each must
// observe exactly the value its predecessor left.
func (c *Checker) AccessCompleted(a coherence.AuditComplete) {
	la := c.line(a.Line)
	if la.seeded && a.Observed != la.lastValue {
		c.report("value-conserve: line %d %s by core %d observed %d, last serialized value was %d (lost update)",
			a.Line, a.Kind, a.Core, a.Observed, la.lastValue)
	}
	la.seeded = true
	la.lastValue = a.Observed
	if a.Wrote {
		la.lastValue = a.New
	}
}

// ValueSeeded implements coherence.Auditor.
func (c *Checker) ValueSeeded(id coherence.LineID, v uint64) {
	la := c.line(id)
	la.seeded = true
	la.lastValue = v
}

// Finalize runs the end-of-run sweeps — per-line queue conservation,
// plus the system's own full directory check — and returns a single
// deterministic error describing every recorded violation, or nil if
// the run was clean. It must be called after the engine has stopped.
func (c *Checker) Finalize() error {
	// Deterministic line order for the conservation sweep.
	ids := make([]coherence.LineID, 0, len(c.lines))
	for id := range c.lines {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		la := c.lines[id]
		queued := int64(c.sys.Directory(id).Queue)
		if la.granted+queued != la.enqueued {
			c.report("queue-conserve: line %d enqueued %d requests but granted %d with %d still queued",
				id, la.enqueued, la.granted, queued)
		}
	}
	if err := c.sys.CheckInvariants(); err != nil {
		c.report("directory: %v", err)
	}
	return c.Err()
}

// Err returns the violations recorded so far as one error (nil if
// none). Finalize is the usual entry point; Err exists for mid-run
// probes in tests.
func (c *Checker) Err() error {
	if len(c.violations) == 0 {
		return nil
	}
	msg := strings.Join(c.violations, "; ")
	if c.truncated > 0 {
		msg += fmt.Sprintf(" (+%d more violations)", c.truncated)
	}
	return fmt.Errorf("invariant: %d violation(s): %s", len(c.violations)+c.truncated, msg)
}

// Violations returns the recorded violation strings (tests).
func (c *Checker) Violations() []string { return c.violations }
