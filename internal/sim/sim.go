// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, an event queue ordered by (time, sequence), and seeded
// random-number streams. Every experiment in this repository runs on
// virtual time, so attacks that take minutes of "Internet time" (e.g. a
// SadDNS port scan) complete in milliseconds of wall time and are
// reproducible bit-for-bit.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"
)

// Action is a pre-allocated scheduled callback: scheduling a value
// that implements Action instead of a closure keeps the hot path
// allocation-free (a method value or closure literal costs one heap
// allocation per event; an Action pointer costs none).
type Action interface {
	// Fire runs the scheduled work.
	Fire()
}

// Event is a scheduled callback: either a plain closure (fn) or a
// pre-allocated Action (act). Exactly one of the two is set. next
// links the event to its successor in its timestamp's bucket.
type event struct {
	at   time.Duration
	fn   func()
	act  Action
	next *event
}

// bucket holds every event scheduled for one timestamp as an intrusive
// FIFO list, in insertion order. The scheduler's contract is (time,
// sequence) ordering; within one timestamp that is exactly FIFO, so a
// bucket needs no per-event sequence numbers — and draining a
// same-time burst (the paper's floods park tens of thousands of
// deliveries at now+latency) costs O(1) per event instead of an
// O(log n) heap sift with comparison calls. Linking the events through
// their own nodes means a bucket carries no capacity: a flood-sized
// burst never has to regrow a slice in whichever bucket the next
// timestamp happens to take from the freelist.
type bucket struct {
	at         time.Duration
	head, tail *event
}

// bucketQueue is a min-heap of buckets by timestamp. Timestamps are
// unique across live buckets (one bucket per distinct time), so the
// ordering needs no tie-break.
type bucketQueue []*bucket

func (q bucketQueue) Len() int            { return len(q) }
func (q bucketQueue) Less(i, j int) bool  { return q[i].at < q[j].at }
func (q bucketQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *bucketQueue) Push(x interface{}) { *q = append(*q, x.(*bucket)) }
func (q *bucketQueue) Pop() interface{} {
	old := *q
	n := len(old)
	b := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return b
}

// EventPool is a freelist of event nodes and timestamp buckets that
// can outlive a single Clock: a worker that builds many clocks over
// its lifetime hands the same pool to each so the nodes warmed up by
// one simulation are reused by the next. Single-goroutine, like the
// Clock itself.
type EventPool struct {
	free        []*event
	freeBuckets []*bucket
}

func (p *EventPool) getBucket(at time.Duration) *bucket {
	var b *bucket
	if n := len(p.freeBuckets); n > 0 {
		b = p.freeBuckets[n-1]
		p.freeBuckets[n-1] = nil
		p.freeBuckets = p.freeBuckets[:n-1]
	} else {
		b = &bucket{}
	}
	b.at = at
	return b
}

func (p *EventPool) putBucket(b *bucket) {
	b.head, b.tail = nil, nil
	p.freeBuckets = append(p.freeBuckets, b)
}

// putEvent clears e's references and returns it to the freelist.
func (p *EventPool) putEvent(e *event) {
	e.fn, e.act, e.next = nil, nil, nil
	p.free = append(p.free, e)
}

// Retained reports how many nodes the pool currently holds: free
// event nodes plus free timestamp buckets.
func (p *EventPool) Retained() int { return len(p.free) + len(p.freeBuckets) }

// Trim drops pooled nodes until at most max event nodes and at most
// max buckets remain — the retention bound a resident process applies
// between jobs, mirroring pool.Wire.Trim: a sweep that briefly parked
// a flood burst's worth of nodes does not pin them forever. Nodes are
// uniform-sized, so a plain truncation is the whole policy. Trim(0)
// empties the pool; it never affects correctness, only what the next
// simulation must re-allocate.
func (p *EventPool) Trim(max int) {
	p.free = trim(p.free, max)
	p.freeBuckets = trim(p.freeBuckets, max)
}

// trim truncates a freelist to at most max entries, clearing the
// dropped slots so the nodes can be collected.
func trim[T any](l []*T, max int) []*T {
	if max < 0 {
		max = 0
	}
	if len(l) <= max {
		return l
	}
	clear(l[max:])
	return l[:max]
}

// Clock is the discrete-event scheduler. The zero value is not usable;
// construct with NewClock.
type Clock struct {
	now     time.Duration
	queue   bucketQueue
	byTime  map[time.Duration]*bucket
	pending int
	pool    *EventPool // recycled event/bucket nodes; single-goroutine, so no locking
	rng     *rand.Rand
	limit   int // safety valve: max events per Run, 0 = unlimited
	nextID  uint64
}

// NewClock returns a scheduler whose virtual time starts at zero and
// whose random stream is seeded with seed.
func NewClock(seed int64) *Clock {
	return &Clock{
		rng:    rand.New(rand.NewSource(seed)),
		pool:   &EventPool{},
		byTime: make(map[time.Duration]*bucket),
	}
}

// SetEventPool replaces the clock's private event freelist with a
// shared one, so warmed-up nodes survive across clocks. A nil pool is
// ignored. Call before scheduling; the pool must only ever be used
// from one goroutine at a time.
func (c *Clock) SetEventPool(p *EventPool) {
	if p != nil {
		c.pool = p
	}
}

// Reset rewinds the clock to its post-NewClock state: pending events
// are drained into the freelist, virtual time returns to zero, and the
// random streams are reseeded with seed — so a reset clock replays
// exactly like a fresh NewClock(seed). The event freelist (and any
// shared EventPool) keeps its warmed-up nodes.
func (c *Clock) Reset(seed int64) {
	for i, b := range c.queue {
		for e := b.head; e != nil; {
			next := e.next
			c.pool.putEvent(e)
			e = next
		}
		c.pool.putBucket(b)
		c.queue[i] = nil
	}
	c.queue = c.queue[:0]
	clear(c.byTime)
	c.pending = 0
	c.now = 0
	c.nextID = 0
	c.rng.Seed(seed)
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration { return c.now }

// Rand returns the clock's deterministic random stream.
func (c *Clock) Rand() *rand.Rand { return c.rng }

// NewRand derives an independent deterministic stream from the clock's
// seed space; use one stream per stochastic subsystem so adding events
// in one subsystem does not perturb another.
func (c *Clock) NewRand() *rand.Rand {
	return rand.New(rand.NewSource(c.nextSeed()))
}

// Reseed rewinds r to the stream NewRand would return at this point,
// consuming the same draw from the clock's seed space, but in place:
// reseeding a math/rand source restarts it exactly as a new source
// with that seed would, without allocating the several-KB state a new
// source costs. r must come from NewRand (or rand.New over
// rand.NewSource).
func (c *Clock) Reseed(r *rand.Rand) { r.Seed(c.nextSeed()) }

// nextSeed draws the seed of the next derived stream.
func (c *Clock) nextSeed() int64 {
	c.nextID++
	return c.rng.Int63() ^ int64(c.nextID)
}

// SetEventLimit bounds the number of events a single Run/RunUntil may
// process; 0 removes the bound. It protects tests from runaway
// feedback loops (e.g. two hosts ping-ponging packets forever).
func (c *Clock) SetEventLimit(n int) { c.limit = n }

// alloc takes an event node from the free list (or the heap when the
// list is empty), stamps it with t, and returns it. Recycling nodes
// keeps steady-state scheduling allocation-free; the (time, insertion
// order) discipline is untouched, so event interleaving — and
// therefore every golden artifact — is byte-identical to the
// always-allocate version.
func (c *Clock) alloc(t time.Duration) *event {
	if t < c.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, c.now))
	}
	var e *event
	if n := len(c.pool.free); n > 0 {
		e = c.pool.free[n-1]
		c.pool.free[n-1] = nil
		c.pool.free = c.pool.free[:n-1]
	} else {
		e = &event{}
	}
	e.at = t
	return e
}

// schedule appends e to the tail of the bucket for its timestamp,
// creating (and heap-inserting) the bucket on first use of that time.
// Appending is what preserves the global (time, sequence) contract:
// insertion order within one timestamp IS sequence order.
func (c *Clock) schedule(e *event) {
	b := c.byTime[e.at]
	if b == nil {
		b = c.pool.getBucket(e.at)
		c.byTime[e.at] = b
		heap.Push(&c.queue, b)
	}
	if b.tail == nil {
		b.head = e
	} else {
		b.tail.next = e
	}
	b.tail = e
	c.pending++
}

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past panics: that is always a logic error in a discrete-event model.
func (c *Clock) At(t time.Duration, fn func()) {
	e := c.alloc(t)
	e.fn = fn
	c.schedule(e)
}

// After schedules fn to run d after the current virtual time.
func (c *Clock) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	c.At(c.now+d, fn)
}

// AtAction schedules act.Fire to run at absolute virtual time t
// without allocating a closure; see Action.
func (c *Clock) AtAction(t time.Duration, act Action) {
	e := c.alloc(t)
	e.act = act
	c.schedule(e)
}

// AfterAction schedules act.Fire to run d after the current virtual
// time without allocating a closure.
func (c *Clock) AfterAction(d time.Duration, act Action) {
	if d < 0 {
		d = 0
	}
	c.AtAction(c.now+d, act)
}

// Pending reports the number of queued events.
func (c *Clock) Pending() int { return c.pending }

// Step runs the single earliest event, advancing the clock to its
// timestamp. It reports whether an event was run.
func (c *Clock) Step() bool {
	if len(c.queue) == 0 {
		return false
	}
	b := c.queue[0]
	e := b.head
	b.head = e.next
	if b.head == nil {
		// Drained. An event fired later at this same timestamp gets a
		// fresh bucket; since the old one is already past, time-unique
		// bucket keys stay intact by removing the map entry first.
		heap.Pop(&c.queue)
		delete(c.byTime, b.at)
		c.pool.putBucket(b)
	}
	c.pending--
	c.now = e.at
	fn, act := e.fn, e.act
	c.pool.putEvent(e)
	if act != nil {
		act.Fire()
	} else {
		fn()
	}
	return true
}

// Run processes events until the queue is empty (or the event limit is
// reached). It returns the number of events processed.
func (c *Clock) Run() int {
	n := 0
	for c.Step() {
		n++
		if c.limit > 0 && n >= c.limit {
			break
		}
	}
	return n
}

// RunUntil processes events with timestamps <= deadline, then advances
// the clock to deadline. It returns the number of events processed.
// If the event limit stops processing early, the clock stays at the
// last processed event instead of jumping to the deadline, so the
// still-queued events are not stranded in the clock's past.
func (c *Clock) RunUntil(deadline time.Duration) int {
	n := 0
	for len(c.queue) > 0 && c.queue[0].at <= deadline {
		if c.limit > 0 && n >= c.limit {
			return n
		}
		if !c.Step() {
			break
		}
		n++
	}
	if c.now < deadline {
		c.now = deadline
	}
	return n
}

// RunFor processes events for d of virtual time from now.
func (c *Clock) RunFor(d time.Duration) int { return c.RunUntil(c.now + d) }
