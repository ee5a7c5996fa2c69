package apps

import (
	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/coherence"
)

// stripeBase spaces stripe lines far apart so each lands on its own
// cache line with a distinct home.
const stripeBase coherence.LineID = 1 << 22

// StripedCounter shards a counter over per-stripe cache lines: writers
// FAA their own stripe (usually uncontended), and an occasional reader
// sums all stripes. It is the model-guided fix for a hot FAA counter —
// trading read cost for write scalability — and the contention-
// spreading experiment (F15) quantifies the trade.
type StripedCounter struct {
	mem     *atomics.Memory
	stripes int
	// ReadFraction is the probability a Step is a full read instead of
	// an increment.
	ReadFraction float64
	reads        uint64
	incs         uint64
	ops          []*stripedOp
}

// NewStripedCounter returns a counter sharded over the given number of
// stripes. readFraction sets how often a Step sums the stripes instead
// of incrementing.
func NewStripedCounter(mem *atomics.Memory, stripes int, readFraction float64) *StripedCounter {
	if stripes < 1 {
		stripes = 1
	}
	return &StripedCounter{mem: mem, stripes: stripes, ReadFraction: readFraction}
}

func (c *StripedCounter) Name() string { return "counter-striped" }

// Stats reports (increments, reads) performed.
func (c *StripedCounter) Stats() (incs, reads uint64) { return c.incs, c.reads }

func (c *StripedCounter) stripe(i int) coherence.LineID {
	return stripeBase + coherence.LineID(i)*512
}

// Value sums the stripes without simulating accesses (assertions).
func (c *StripedCounter) Value() uint64 {
	var sum uint64
	for i := 0; i < c.stripes; i++ {
		sum += c.mem.System().Value(c.stripe(i))
	}
	return sum
}

func (c *StripedCounter) Step(th *Thread, done func()) {
	o := threadCtx(c, &c.ops, th, newStripedOp)
	o.done = done
	if th.RNG.Float64() < c.ReadFraction {
		o.i = 0
		o.read()
		return
	}
	c.mem.FetchAndAdd(th.Core, c.stripe(th.ID%c.stripes), 1, o.incFn)
}

type stripedOp struct {
	threadOp
	c      *StripedCounter
	i      int // next stripe a read loads
	incFn  func(atomics.Result)
	readFn func(atomics.Result)
}

func newStripedOp(c *StripedCounter, th *Thread) *stripedOp {
	o := &stripedOp{threadOp: threadOp{th: th}, c: c}
	o.incFn = o.incremented
	o.readFn = o.loaded
	return o
}

func (o *stripedOp) incremented(atomics.Result) {
	o.c.incs++
	o.finish()
}

// read loads every stripe sequentially (a consistent snapshot is not
// promised, matching real striped counters).
func (o *stripedOp) read() {
	if o.i == o.c.stripes {
		o.c.reads++
		o.finish()
		return
	}
	o.c.mem.LoadOp(o.th.Core, o.c.stripe(o.i), o.readFn)
}

func (o *stripedOp) loaded(atomics.Result) {
	o.i++
	o.read()
}
