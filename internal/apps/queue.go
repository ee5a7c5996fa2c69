package apps

import (
	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/coherence"
)

// MS queue line layout. Node IDs index lines above qNodeBase; the value
// stored in a node's line is its next pointer (0 = null).
const (
	headLine  coherence.LineID = 130
	tailLine  coherence.LineID = 150
	qNodeBase coherence.LineID = 1 << 21
)

// MSQueue is the Michael–Scott lock-free FIFO queue built on the
// simulated CAS: two contended lines (head, tail) plus per-node lines.
// Each Step performs an enqueue or a dequeue (50/50). Compared with the
// Treiber stack it doubles the number of hot lines, which is exactly
// the contrast the contention model prices.
type MSQueue struct {
	mem      *atomics.Memory
	nextID   uint64
	enqueues uint64
	dequeues uint64
	empties  uint64
	attempts uint64
	ops      []*queueOp
}

// NewMSQueue returns a queue pre-seeded with depth elements (plus the
// dummy node the algorithm requires).
func NewMSQueue(mem *atomics.Memory, depth int) *MSQueue {
	q := &MSQueue{mem: mem, nextID: 1}
	dummy := q.alloc()
	mem.System().SetValue(q.node(dummy), 0)
	mem.System().SetValue(headLine, dummy)
	tail := dummy
	for i := 0; i < depth; i++ {
		id := q.alloc()
		mem.System().SetValue(q.node(id), 0)
		mem.System().SetValue(q.node(tail), id)
		tail = id
	}
	mem.System().SetValue(tailLine, tail)
	return q
}

func (q *MSQueue) Name() string { return "ms-queue" }

// Stats reports operation counts (enqueues, dequeues, empty dequeues).
func (q *MSQueue) Stats() (enqueues, dequeues, empties uint64) {
	return q.enqueues, q.dequeues, q.empties
}

// Attempts counts the publishing CAS issues — next-pointer links on
// enqueue, head swings on dequeue (RetryStats). Help-swing CASes are
// not counted; they are not the gating step.
func (q *MSQueue) Attempts() uint64 { return q.attempts }

func (q *MSQueue) alloc() uint64 {
	id := q.nextID
	q.nextID++
	return id
}

func (q *MSQueue) node(id uint64) coherence.LineID {
	return qNodeBase + coherence.LineID(id)
}

func (q *MSQueue) Step(th *Thread, done func()) {
	if th.RNG.Float64() < 0.5 {
		q.enqueue(th, done)
	} else {
		q.dequeue(th, done)
	}
}

func (q *MSQueue) enqueue(th *Thread, done func()) {
	o := threadCtx(q, &q.ops, th, newQueueOp)
	o.done = done
	o.id = q.alloc()
	// Initialize the new node's next pointer (private line until
	// published by the CAS on its predecessor).
	q.mem.StoreOp(th.Core, q.node(o.id), 0, o.enqStoreFn)
}

func (q *MSQueue) dequeue(th *Thread, done func()) {
	o := threadCtx(q, &q.ops, th, newQueueOp)
	o.done = done
	o.dequeue()
}

// queueOp is one thread's in-flight enqueue or dequeue.
type queueOp struct {
	threadOp
	q                     *MSQueue
	id, head, tail, next  uint64
	enqStoreFn, enqTailFn func(atomics.Result)
	enqNextFn, enqHelpFn  func(atomics.Result)
	enqLinkFn, enqSwingFn func(atomics.Result)
	deqHeadFn, deqTailFn  func(atomics.Result)
	deqNextFn, deqHelpFn  func(atomics.Result)
	deqCASFn              func(atomics.Result)
}

func newQueueOp(q *MSQueue, th *Thread) *queueOp {
	o := &queueOp{threadOp: threadOp{th: th}, q: q}
	o.enqStoreFn = o.enqRetry
	o.enqTailFn = o.enqTail
	o.enqNextFn = o.enqNext
	o.enqHelpFn = o.enqRetry
	o.enqLinkFn = o.enqLink
	o.enqSwingFn = o.enqSwung
	o.deqHeadFn = o.deqHead
	o.deqTailFn = o.deqTail
	o.deqNextFn = o.deqNext
	o.deqHelpFn = o.deqRetry
	o.deqCASFn = o.deqCAS
	return o
}

// enqRetry (re)starts linking node o.id after the tail.
func (o *queueOp) enqRetry(atomics.Result) {
	o.q.mem.LoadOp(o.th.Core, tailLine, o.enqTailFn)
}

func (o *queueOp) enqTail(r atomics.Result) {
	o.tail = r.Old
	o.q.mem.LoadOp(o.th.Core, o.q.node(o.tail), o.enqNextFn)
}

func (o *queueOp) enqNext(r atomics.Result) {
	o.next = r.Old
	if o.next != 0 {
		// Tail lags: help swing it, then retry.
		o.q.mem.CompareAndSwap(o.th.Core, tailLine, o.tail, o.next, o.enqHelpFn)
		return
	}
	o.q.attempts++
	o.q.mem.CompareAndSwap(o.th.Core, o.q.node(o.tail), 0, o.id, o.enqLinkFn)
}

func (o *queueOp) enqLink(r atomics.Result) {
	if !r.OK {
		o.enqRetry(r)
		return
	}
	// Published; swing the tail (best effort — failure means someone
	// helped already).
	o.q.mem.CompareAndSwap(o.th.Core, tailLine, o.tail, o.id, o.enqSwingFn)
}

func (o *queueOp) enqSwung(atomics.Result) {
	o.q.enqueues++
	o.finish()
}

func (o *queueOp) dequeue() {
	o.q.mem.LoadOp(o.th.Core, headLine, o.deqHeadFn)
}

func (o *queueOp) deqRetry(atomics.Result) { o.dequeue() }

func (o *queueOp) deqHead(r atomics.Result) {
	o.head = r.Old
	o.q.mem.LoadOp(o.th.Core, tailLine, o.deqTailFn)
}

func (o *queueOp) deqTail(r atomics.Result) {
	o.tail = r.Old
	o.q.mem.LoadOp(o.th.Core, o.q.node(o.head), o.deqNextFn)
}

func (o *queueOp) deqNext(r atomics.Result) {
	o.next = r.Old
	if o.next == 0 {
		// Empty (only the dummy remains).
		o.q.empties++
		o.finish()
		return
	}
	if o.head == o.tail {
		// Tail lags behind a concurrent enqueue: help.
		o.q.mem.CompareAndSwap(o.th.Core, tailLine, o.tail, o.next, o.deqHelpFn)
		return
	}
	o.q.attempts++
	o.q.mem.CompareAndSwap(o.th.Core, headLine, o.head, o.next, o.deqCASFn)
}

func (o *queueOp) deqCAS(r atomics.Result) {
	if !r.OK {
		o.dequeue()
		return
	}
	o.q.dequeues++
	o.finish()
}
