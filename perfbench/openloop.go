package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// clock is the open-loop scheduler's time source: offsets from the
// phase start, and a sleep that returns early when ctx is done.
type clock interface {
	now() time.Duration
	sleep(ctx context.Context, d time.Duration)
}

// wallClock is the real clock, anchored when the phase starts.
type wallClock struct{ start time.Time }

func (c wallClock) now() time.Duration { return time.Since(c.start) }

// sleep waits in slices of at most 10 ms, so a canceled ctx ends it
// promptly.
func (c wallClock) sleep(ctx context.Context, d time.Duration) {
	until := time.Now().Add(d)
	for ctx.Err() == nil {
		left := time.Until(until)
		if left <= 0 {
			return
		}
		preciseSleep(min(left, 10*time.Millisecond))
	}
}

// sample is one open-loop request. Both times are measured from when the
// request was due, so a stall that delays later sends shows in their
// latency instead of being hidden by a late start.
type sample struct {
	seq uint64
	lag time.Duration // sent - due: how late the generator ran
	lat time.Duration // done - due
	ok  bool
}

// phase is one fixed-rate open-loop run.
type phase struct {
	rate    float64
	samples []sample      // every sent request, in seq order
	unsent  int           // fell due but not sent before the grace limit
	end     time.Duration // when the last request completed
}

// runOpenLoop sends the requests due at rate over d: request i is due at
// i/rate from the start, whether or not earlier requests have answered.
// At most workers requests are in flight; the generator, not the
// server, holds the backlog when they are all busy. Requests not sent
// within d plus a grace of d/2 are abandoned and counted as unsent.
func runOpenLoop(ctx context.Context, clk clock, rate float64, d time.Duration, workers int, send func(seq uint64) bool) phase {
	interval := float64(time.Second) / rate
	total := uint64(math.Ceil(d.Seconds() * rate))
	limit := d + d/2
	var next atomic.Uint64
	var unsent atomic.Int64
	var mu sync.Mutex
	var all []sample
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []sample
			for {
				i := next.Add(1) - 1
				if i >= total {
					break
				}
				due := time.Duration(float64(i) * interval)
				if wait := due - clk.now(); wait > 0 {
					clk.sleep(ctx, wait)
				}
				sent := clk.now()
				if sent > limit || ctx.Err() != nil {
					unsent.Add(1)
					continue
				}
				ok := send(i)
				local = append(local, sample{seq: i, lag: sent - due, lat: clk.now() - due, ok: ok})
			}
			mu.Lock()
			all = append(all, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	sort.Slice(all, func(a, b int) bool { return all[a].seq < all[b].seq })
	return phase{rate: rate, samples: all, unsent: int(unsent.Load()), end: clk.now()}
}

// stepStats summarizes a phase against a p99 latency limit.
type stepStats struct {
	rate          float64 // offered rate
	achieved      float64 // successful requests per second of the phase
	n             int     // requests sent
	errors        int     // requests that failed or answered wrongly
	unsent        int
	p50, p90, p99 float64 // due-time latency, ms
	// p99w is the median of the p99s of the phase's consecutive windows:
	// one burst moves one window, not the figure.
	p99w    float64
	lagP99  float64 // generator lag, ms
	lagGrow float64 // median lag of the last quarter minus the first, ms
	pass    bool
}

// maxLagGrowthMs is how much the generator's median lag may grow from the
// first quarter of a phase to the last before the backlog counts as
// growing. Below capacity it moves by tens of microseconds.
const maxLagGrowthMs = 1.0

// windows is how many consecutive windows a phase's windowed
// percentiles are taken over.
const windows = 8

// evaluate scores a phase: it passes when nothing failed or went unsent,
// the windowed p99 meets limitMs, and the lag did not grow by more than
// maxLagGrowthMs.
func evaluate(ph phase, limitMs float64) stepStats {
	st := stepStats{rate: ph.rate, n: len(ph.samples), unsent: ph.unsent}
	lat := make([]float64, 0, len(ph.samples))
	lag := make([]float64, 0, len(ph.samples))
	for _, s := range ph.samples {
		if !s.ok {
			st.errors++
		}
		lat = append(lat, ms(s.lat))
		lag = append(lag, ms(s.lag))
	}
	if ph.end > 0 {
		st.achieved = float64(st.n-st.errors) / ph.end.Seconds()
	}
	sl := sorted(lat)
	st.p50, st.p90, st.p99 = percentile(sl, 0.5), percentile(sl, 0.9), percentile(sl, 0.99)
	st.lagP99 = percentile(sorted(lag), 0.99)
	var w99 []float64
	for w := 0; w < windows; w++ {
		w99 = append(w99, percentile(sorted(lat[w*len(lat)/windows:(w+1)*len(lat)/windows]), 0.99))
	}
	st.p99w = median(w99)
	if q := len(lag) / 4; q > 0 {
		st.lagGrow = median(lag[len(lag)-q:]) - median(lag[:q])
	}
	st.pass = st.n > 0 && st.errors == 0 && st.unsent == 0 && st.p99w <= limitMs && st.lagGrow <= maxLagGrowthMs
	return st
}

// combine summarizes the rounds of one rate spread over a run: counts add
// up, and each figure is the median of the rounds' figures, so a host
// stall during one round moves one round, not the result. The rate
// passes when most rounds pass.
func combine(rounds []stepStats) stepStats {
	st := stepStats{rate: rounds[0].rate}
	var achieved, p50, p90, p99, p99w, lagP99, lagGrow []float64
	passed := 0
	for _, r := range rounds {
		st.n += r.n
		st.errors += r.errors
		st.unsent += r.unsent
		achieved, p50, p90, p99 = append(achieved, r.achieved), append(p50, r.p50), append(p90, r.p90), append(p99, r.p99)
		p99w, lagP99, lagGrow = append(p99w, r.p99w), append(lagP99, r.lagP99), append(lagGrow, r.lagGrow)
		if r.pass {
			passed++
		}
	}
	st.achieved, st.p50, st.p90, st.p99 = median(achieved), median(p50), median(p90), median(p99)
	st.p99w, st.lagP99, st.lagGrow = median(p99w), median(lagP99), median(lagGrow)
	st.pass = 2*passed > len(rounds)
	return st
}

// ladder is the max-rate search: a geometric climb from start by factor
// until a step fails, then bisections between the last passing and the
// first failing rate. maxSteps bounds the number of probes.
type ladder struct {
	start, factor float64
	bisections    int
	maxSteps      int
}

// search returns the best passing step (the zero value when none
// passed) and every step probed, in order.
func (l ladder) search(probe func(rate float64) stepStats) (best stepStats, steps []stepStats) {
	lo, hi := 0.0, 0.0
	for rate := l.start; len(steps) < l.maxSteps; rate *= l.factor {
		st := probe(rate)
		steps = append(steps, st)
		if !st.pass {
			hi = rate
			break
		}
		lo, best = rate, st
	}
	if lo == 0 || hi == 0 {
		return best, steps
	}
	for i := 0; i < l.bisections && len(steps) < l.maxSteps; i++ {
		rate := math.Sqrt(lo * hi)
		st := probe(rate)
		steps = append(steps, st)
		if st.pass {
			lo, best = rate, st
		} else {
			hi = rate
		}
	}
	return best, steps
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
