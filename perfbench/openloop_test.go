package main

import (
	"context"
	"sync"
	"testing"
	"time"
)

// fakeClock is virtual time: sleeping and serving advance it, so a
// one-worker schedule is exact.
type fakeClock struct {
	mu sync.Mutex
	t  time.Duration
}

func (c *fakeClock) now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) sleep(_ context.Context, d time.Duration) { c.advance(d) }

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t += d
	c.mu.Unlock()
}

// serveFor returns a send function that takes d of virtual time.
func serveFor(c *fakeClock, d time.Duration) func(uint64) bool {
	return func(uint64) bool {
		c.advance(d)
		return true
	}
}

func TestOpenLoopBelowCapacity(t *testing.T) {
	clk := &fakeClock{}
	ph := runOpenLoop(context.Background(), clk, 100, time.Second, 1, serveFor(clk, 4*time.Millisecond))
	if len(ph.samples) != 100 || ph.unsent != 0 {
		t.Fatalf("sent %d, unsent %d; want 100, 0", len(ph.samples), ph.unsent)
	}
	for _, s := range ph.samples {
		if s.lag != 0 || s.lat != 4*time.Millisecond {
			t.Fatalf("request %d: lag %v latency %v, want 0 and 4ms", s.seq, s.lag, s.lat)
		}
	}
	st := evaluate(ph, 5)
	if !st.pass || st.p99 != 4 || st.lagGrow != 0 {
		t.Errorf("evaluate = %+v, want a pass with p99 4ms and no lag growth", st)
	}
}

func TestOpenLoopLatencyCountsFromDueTime(t *testing.T) {
	// 15 ms of service per request at one request per 10 ms: each
	// request is sent 5 ms later than the one before it, and its latency
	// counts that wait.
	clk := &fakeClock{}
	ph := runOpenLoop(context.Background(), clk, 100, time.Second, 1, serveFor(clk, 15*time.Millisecond))
	if len(ph.samples) != 100 {
		t.Fatalf("sent %d, want 100", len(ph.samples))
	}
	for i, s := range ph.samples {
		lag := time.Duration(i) * 5 * time.Millisecond
		if s.lag != lag || s.lat != lag+15*time.Millisecond {
			t.Fatalf("request %d: lag %v latency %v, want %v and %v", i, s.lag, s.lat, lag, lag+15*time.Millisecond)
		}
	}
	st := evaluate(ph, 1000)
	if st.pass || st.lagGrow < 300 {
		t.Errorf("evaluate = %+v, want a failure from lag growing by about 375 ms", st)
	}
}

func TestOpenLoopAbandonsPastGrace(t *testing.T) {
	// At 20 ms per request the backlog passes the 1.5 s limit after
	// request 75; the remaining 24 are counted, not sent.
	clk := &fakeClock{}
	ph := runOpenLoop(context.Background(), clk, 100, time.Second, 1, serveFor(clk, 20*time.Millisecond))
	if len(ph.samples) != 76 || ph.unsent != 24 {
		t.Fatalf("sent %d, unsent %d; want 76, 24", len(ph.samples), ph.unsent)
	}
	if evaluate(ph, 1e9).pass {
		t.Error("a phase with unsent requests passed")
	}
}

func TestOpenLoopConcurrentWorkers(t *testing.T) {
	var mu sync.Mutex
	seen := map[uint64]bool{}
	ph := runOpenLoop(context.Background(), wallClock{start: time.Now()}, 2000, 100*time.Millisecond, 2, func(seq uint64) bool {
		mu.Lock()
		defer mu.Unlock()
		if seen[seq] {
			t.Errorf("request %d sent twice", seq)
		}
		seen[seq] = true
		return true
	})
	if len(ph.samples)+ph.unsent != 200 {
		t.Fatalf("accounted for %d requests, want 200", len(ph.samples)+ph.unsent)
	}
	for i := 1; i < len(ph.samples); i++ {
		if ph.samples[i].seq <= ph.samples[i-1].seq {
			t.Fatal("samples are not in sequence order")
		}
	}
}

func TestEvaluateFailures(t *testing.T) {
	ph := phase{rate: 10, end: time.Second}
	for i := 0; i < 10; i++ {
		ph.samples = append(ph.samples, sample{seq: uint64(i), lat: time.Millisecond, ok: i != 3})
	}
	st := evaluate(ph, 5)
	if st.pass || st.errors != 1 || st.achieved != 9 {
		t.Errorf("evaluate = %+v, want a failure with 1 error and 9 successes per second", st)
	}
}

func TestWindowedPercentilesIgnoreOneBurst(t *testing.T) {
	ph := phase{rate: 1000, end: time.Second}
	for i := 0; i < 4000; i++ {
		lat := time.Millisecond
		if i < 1000 && i%10 == 0 {
			lat = 50 * time.Millisecond // a burst confined to the first window
		}
		ph.samples = append(ph.samples, sample{seq: uint64(i), lat: lat, ok: true})
	}
	st := evaluate(ph, 100)
	if st.p99 != 50 || st.p99w != 1 {
		t.Errorf("pooled p99 %g, windowed %g; want 50 and 1", st.p99, st.p99w)
	}
}

func TestLadderSearch(t *testing.T) {
	capacity := 1000.0
	var probed []float64
	probe := func(rate float64) stepStats {
		probed = append(probed, rate)
		return stepStats{rate: rate, achieved: rate, pass: rate <= capacity}
	}
	l := ladder{start: 500, factor: 1.25, bisections: 4, maxSteps: 20}
	best, steps := l.search(probe)
	if len(steps) != len(probed) || len(steps) != 5+4 {
		t.Fatalf("%d steps (%v), want 5 climbing and 4 bisecting", len(steps), probed)
	}
	// Four bisections of a 1.25x bracket leave less than 1.25^(1/16).
	if best.rate > capacity || best.rate < capacity/1.0141 {
		t.Errorf("best rate %g, want within 1.4%% below %g", best.rate, capacity)
	}
	for i, r := range probed[:5] {
		if want := 500 * pow(1.25, i); r != want {
			t.Errorf("climb step %d probed %g, want %g", i, r, want)
		}
	}
}

func TestLadderEdges(t *testing.T) {
	none, steps := ladder{start: 100, factor: 2, bisections: 3, maxSteps: 10}.search(func(r float64) stepStats {
		return stepStats{rate: r, pass: false}
	})
	if none.pass || none.rate != 0 || len(steps) != 1 {
		t.Errorf("no passing step: best %+v after %d steps, want the zero value after 1", none, len(steps))
	}
	all, steps := ladder{start: 100, factor: 2, bisections: 3, maxSteps: 4}.search(func(r float64) stepStats {
		return stepStats{rate: r, pass: true}
	})
	if len(steps) != 4 || all.rate != 800 {
		t.Errorf("every step passing: best %g after %d steps, want 800 after 4", all.rate, len(steps))
	}
}

func pow(x float64, n int) float64 {
	r := 1.0
	for i := 0; i < n; i++ {
		r *= x
	}
	return r
}

func TestCombineRoundsTakesMedians(t *testing.T) {
	rounds := []stepStats{
		{rate: 100, n: 10, p50: 1, p90: 2, achieved: 99, pass: true},
		{rate: 100, n: 10, p50: 9, p90: 30, achieved: 40, pass: false, errors: 1}, // a stalled round
		{rate: 100, n: 10, p50: 2, p90: 3, achieved: 100, pass: true},
	}
	st := combine(rounds)
	if st.n != 30 || st.errors != 1 || st.p50 != 2 || st.p90 != 3 || st.achieved != 99 || !st.pass {
		t.Errorf("combine = %+v, want counts summed, medians 2/3/99 and a pass", st)
	}
	rounds[2].pass = false
	if combine(rounds).pass {
		t.Error("one passing round of three must not pass")
	}
}
