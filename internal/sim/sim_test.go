package sim

import (
	"fmt"
	"testing"
	"time"
)

func TestClockOrdering(t *testing.T) {
	c := NewClock(1)
	var order []int
	c.At(30*time.Millisecond, func() { order = append(order, 3) })
	c.At(10*time.Millisecond, func() { order = append(order, 1) })
	c.At(20*time.Millisecond, func() { order = append(order, 2) })
	if n := c.Run(); n != 3 {
		t.Fatalf("Run processed %d events, want 3", n)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
	if c.Now() != 30*time.Millisecond {
		t.Fatalf("clock at %v, want 30ms", c.Now())
	}
}

func TestClockFIFOAtSameTime(t *testing.T) {
	c := NewClock(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.At(time.Second, func() { order = append(order, i) })
	}
	c.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-timestamp events not FIFO: %v", order)
		}
	}
}

func TestClockAfterAndNesting(t *testing.T) {
	c := NewClock(1)
	var hit []time.Duration
	c.After(time.Second, func() {
		hit = append(hit, c.Now())
		c.After(2*time.Second, func() { hit = append(hit, c.Now()) })
	})
	c.Run()
	if len(hit) != 2 || hit[0] != time.Second || hit[1] != 3*time.Second {
		t.Fatalf("nested scheduling produced %v", hit)
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	c := NewClock(1)
	ran := false
	c.At(5*time.Second, func() { ran = true })
	c.RunUntil(2 * time.Second)
	if ran {
		t.Fatal("event at 5s ran during RunUntil(2s)")
	}
	if c.Now() != 2*time.Second {
		t.Fatalf("clock at %v, want 2s", c.Now())
	}
	c.RunUntil(10 * time.Second)
	if !ran {
		t.Fatal("event at 5s did not run by 10s")
	}
	if c.Pending() != 0 {
		t.Fatalf("pending %d, want 0", c.Pending())
	}
}

func TestRunForRelative(t *testing.T) {
	c := NewClock(1)
	c.RunFor(time.Minute)
	c.RunFor(time.Minute)
	if c.Now() != 2*time.Minute {
		t.Fatalf("clock at %v, want 2m", c.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	c := NewClock(1)
	c.At(time.Second, func() {})
	c.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	c.At(time.Millisecond, func() {})
}

func TestEventLimit(t *testing.T) {
	c := NewClock(1)
	c.SetEventLimit(100)
	var bomb func()
	n := 0
	bomb = func() { n++; c.After(time.Millisecond, bomb) }
	c.After(0, bomb)
	c.Run()
	if n != 100 {
		t.Fatalf("event limit let %d events run, want 100", n)
	}
}

func TestRunUntilRespectsEventLimit(t *testing.T) {
	c := NewClock(1)
	c.SetEventLimit(3)
	for i := 1; i <= 5; i++ {
		c.At(time.Duration(i)*time.Millisecond, func() {})
	}
	if n := c.RunUntil(10 * time.Millisecond); n != 3 {
		t.Fatalf("RunUntil processed %d events, want 3", n)
	}
	if c.Pending() != 2 {
		t.Fatalf("pending %d, want 2", c.Pending())
	}
	// The clock must NOT have jumped to the deadline: the 4ms and 5ms
	// events are still queued and scheduling relative to a clock past
	// them would strand them in the past.
	if c.Now() != 3*time.Millisecond {
		t.Fatalf("clock at %v, want 3ms", c.Now())
	}
	// Lifting the limit lets the remaining events drain and the clock
	// reach the deadline.
	c.SetEventLimit(0)
	if n := c.RunUntil(10 * time.Millisecond); n != 2 {
		t.Fatalf("drain processed %d events, want 2", n)
	}
	if c.Now() != 10*time.Millisecond || c.Pending() != 0 {
		t.Fatalf("clock at %v with %d pending, want 10ms/0", c.Now(), c.Pending())
	}
}

func TestRunUntilLimitCountsPerCall(t *testing.T) {
	// The limit bounds each Run/RunUntil call separately, so repeated
	// RunFor windows (the scanners' idiom) each get a fresh budget.
	c := NewClock(1)
	c.SetEventLimit(2)
	for i := 1; i <= 4; i++ {
		c.At(time.Duration(i)*time.Millisecond, func() {})
	}
	if n := c.RunUntil(2 * time.Millisecond); n != 2 {
		t.Fatalf("first window ran %d, want 2", n)
	}
	if n := c.RunUntil(4 * time.Millisecond); n != 2 {
		t.Fatalf("second window ran %d, want 2", n)
	}
	if c.Now() != 4*time.Millisecond {
		t.Fatalf("clock at %v, want 4ms", c.Now())
	}
}

func TestDeterministicRandStreams(t *testing.T) {
	a := NewClock(42)
	b := NewClock(42)
	ra, rb := a.NewRand(), b.NewRand()
	for i := 0; i < 100; i++ {
		if ra.Uint64() != rb.Uint64() {
			t.Fatal("same-seed clocks produced different rand streams")
		}
	}
	// A second derived stream must differ from the first.
	ra2 := a.NewRand()
	same := 0
	for i := 0; i < 32; i++ {
		if ra2.Uint64() == rb.Uint64() {
			same++
		}
	}
	if same == 32 {
		t.Fatal("derived streams are identical")
	}
}

// TestEventPoolTrim pins the retention bound: a pool warmed by a big
// burst can be trimmed back between jobs, event nodes and buckets each
// to the bound, and a trimmed pool still serves the next simulation
// correctly.
func TestEventPoolTrim(t *testing.T) {
	p := &EventPool{}
	c := NewClock(1)
	c.SetEventPool(p)
	for i := 0; i < 100; i++ {
		c.After(time.Duration(i%4)*time.Millisecond, func() {})
	}
	c.Run()
	if got := p.Retained(); got != 104 {
		t.Fatalf("Retained %d, want 104 (100 events + 4 buckets)", got)
	}
	p.Trim(200)
	if got := p.Retained(); got != 104 {
		t.Fatalf("Trim above the pool size dropped nodes: Retained %d, want 104", got)
	}
	p.Trim(3)
	if len(p.free) != 3 || len(p.freeBuckets) != 3 {
		t.Fatalf("post-Trim pool holds %d events and %d buckets, want 3 of each",
			len(p.free), len(p.freeBuckets))
	}
	p.Trim(0)
	if p.Retained() != 0 {
		t.Fatalf("Trim(0) retained %d nodes", p.Retained())
	}
	// A trimmed (empty) pool still runs a clock normally.
	c = NewClock(1)
	c.SetEventPool(p)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.After(time.Duration(i%3)*time.Millisecond, func() { order = append(order, i) })
	}
	c.Run()
	want := []int{0, 3, 6, 9, 1, 4, 7, 2, 5, 8}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("trimmed pool ran %v, want %v", order, want)
	}
}

// TestSameInstantFIFO pins the intrusive per-timestamp queue: events at
// one instant fire in schedule order, including events a handler adds
// at Now() while that instant's bucket is still draining, and a Reset
// that strikes with a bucket half consumed returns every node to the
// freelist and leaves a clock that replays exactly like a fresh one.
func TestSameInstantFIFO(t *testing.T) {
	// run schedules a burst of five events at 1s whose third handler
	// adds two more at Now() and one at a later instant; stopAfter > 0
	// cuts the run short with the event limit.
	run := func(c *Clock, stopAfter int) []string {
		var got []string
		at := time.Second
		for i := 0; i < 5; i++ {
			i := i
			c.At(at, func() {
				got = append(got, fmt.Sprint("burst", i))
				if i == 2 {
					c.At(c.Now(), func() { got = append(got, "nested0") })
					c.After(0, func() { got = append(got, "nested1") })
					c.After(time.Millisecond, func() { got = append(got, "later") })
				}
			})
		}
		c.At(at+time.Millisecond, func() { got = append(got, "next") })
		c.SetEventLimit(stopAfter)
		c.Run()
		c.SetEventLimit(0)
		return got
	}
	want := "[burst0 burst1 burst2 burst3 burst4 nested0 nested1 next later]"
	c := NewClock(7)
	if got := fmt.Sprint(run(c, 0)); got != want {
		t.Fatalf("same-instant order %v, want %v", got, want)
	}

	// Reset mid-bucket: three of the burst have fired, the rest of the
	// 1s bucket (plus nested and later events) is still queued.
	p := &EventPool{}
	c = NewClock(7)
	c.SetEventPool(p)
	if got := run(c, 3); len(got) != 3 {
		t.Fatalf("limited run fired %d events, want 3", len(got))
	}
	queued := c.Pending()
	if queued != 6 {
		t.Fatalf("%d events pending mid-bucket, want 6", queued)
	}
	free := len(p.free)
	c.Reset(7)
	if c.Pending() != 0 || c.Now() != 0 {
		t.Fatalf("after Reset: %d pending at %v", c.Pending(), c.Now())
	}
	if got := len(p.free) - free; got != queued {
		t.Fatalf("Reset returned %d nodes to the freelist, want %d", got, queued)
	}
	for _, e := range p.free {
		if e.fn != nil || e.act != nil || e.next != nil {
			t.Fatal("freelist holds an event with live references")
		}
	}
	fresh := NewClock(7)
	if got, ref := fmt.Sprint(run(c, 0)), fmt.Sprint(run(fresh, 0)); got != ref || got != want {
		t.Fatalf("reset clock ran %v, fresh clock %v, want %v", got, ref, want)
	}
	if c.Rand().Int63() != fresh.Rand().Int63() {
		t.Fatal("reset clock's random stream diverged from a fresh clock's")
	}
}

// TestReseedMatchesNewRand pins Reseed's contract: rewinding an
// existing stream in place yields exactly the stream NewRand would
// have returned, and consumes the same draw from the clock.
func TestReseedMatchesNewRand(t *testing.T) {
	a, b := NewClock(42), NewClock(42)
	stale := a.NewRand()
	// Advance the source and leave a partial Read pending: Seed must
	// rewind both.
	for i := 0; i < 10; i++ {
		stale.Int63()
	}
	stale.Read(make([]byte, 3))
	b.NewRand()
	a.Reseed(stale)
	fresh := b.NewRand()
	got, want := make([]byte, 5), make([]byte, 5)
	stale.Read(got)
	fresh.Read(want)
	if string(got) != string(want) {
		t.Fatalf("reseeded Read %x, NewRand Read %x", got, want)
	}
	for i := 0; i < 100; i++ {
		if stale.Int63() != fresh.Int63() {
			t.Fatalf("draw %d: reseeded stream diverged from NewRand", i)
		}
	}
	if a.NewRand().Int63() != b.NewRand().Int63() {
		t.Fatal("Reseed consumed a different draw from the clock than NewRand")
	}
}
