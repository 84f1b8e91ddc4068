package main

import (
	"context"
	"fmt"
	"time"
)

// openLoad fixes an open-loop workload's two rates (requests/s) and the
// p99 limit (ms) the max_rps ladder is held to.
type openLoad struct {
	lo, hi  float64
	limitMs float64
}

// The ladder climbs in steps of ladderFactor; ladderRetries bounds how
// many failing probes a run repeats.
const (
	ladderFactor  = 1.25
	ladderRetries = 2
)

// driveResult is one open-loop run: the lo and hi phases, the ladder's
// best passing step and every step it probed.
type driveResult struct {
	lo, hi stepStats
	best   stepStats
	steps  []stepStats
	gcFrac float64 // share of the run's CPU time spent in the GC
}

// Phase lengths as shares of the measured time: lo and hi each get
// fixedShare, run as rounds alternating lo and hi so that each rate
// samples the whole first part of the run; the ladder gets the rest in
// steps of ladderStep.
const (
	fixedShare = 0.2
	rounds     = 4
	ladderStep = 0.05
)

// drive runs the lo and hi rounds and the max_rps ladder, and fills out's
// counts and end-to-end metrics. send(seq) issues request seq and reports
// whether it was answered correctly; seq runs on across phases so the
// deck keeps rotating.
func (l openLoad) drive(ctx context.Context, d time.Duration, out *outcome, send func(seq uint64) bool) (*driveResult, error) {
	workers := loadWorkers()
	var offset uint64
	phaseAt := func(rate float64, pd time.Duration) phase {
		ph := runOpenLoop(ctx, wallClock{start: time.Now()}, rate, pd, workers, func(seq uint64) bool {
			return send(offset + seq)
		})
		offset += uint64(len(ph.samples) + ph.unsent)
		return ph
	}
	gc0, total0 := gcCPU()
	alloc0, cpu0 := allocBytes(), cpuTime()
	res := &driveResult{}
	var fixed int
	var lo, hi []stepStats
	roundD := time.Duration(fixedShare * float64(d) / rounds)
	for r := 0; r < rounds; r++ {
		for _, p := range []struct {
			rate float64
			into *[]stepStats
		}{{l.lo, &lo}, {l.hi, &hi}} {
			ph := phaseAt(p.rate, roundD)
			*p.into = append(*p.into, evaluate(ph, l.limitMs))
			out.attempted += len(ph.samples) + ph.unsent
			fixed += len(ph.samples)
			if ph.unsent > 0 {
				out.failed += ph.unsent
				out.failures = append(out.failures, fmt.Sprintf("%d requests due at %g/s were never sent", ph.unsent, p.rate))
			}
		}
	}
	res.lo, res.hi = combine(lo), combine(hi)
	alloc, cpu := allocBytes()-alloc0, cpuTime()-cpu0
	// The ladder climbs from the higher fixed rate that passed. A failing
	// probe is repeated once (at most ladderRetries times per run), so a
	// single stall of the host does not end the climb.
	stepD := time.Duration(ladderStep * float64(d))
	maxSteps := int((1 - 2*fixedShare) / ladderStep)
	retries := ladderRetries
	probe := func(rate float64) stepStats {
		ph := phaseAt(rate, stepD)
		out.attempted += len(ph.samples)
		return evaluate(ph, l.limitMs)
	}
	start := l.lo
	if res.hi.pass {
		start = l.hi
	}
	if res.lo.pass {
		res.best, res.steps = ladder{start: start, factor: ladderFactor, bisections: 3, maxSteps: maxSteps}.search(func(rate float64) stepStats {
			st := probe(rate)
			if !st.pass && retries > 0 {
				retries--
				out.notes = append(out.notes, fmt.Sprintf("ladder %8.1f/s: failed once (p99 %.3f ms, lag growth %.3f ms), probing again", rate, st.p99w, st.lagGrow))
				st = probe(rate)
			}
			return st
		})
	}
	gc1, total1 := gcCPU()
	if total1 > total0 {
		res.gcFrac = (gc1 - gc0) / (total1 - total0)
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	// The latencies are the medians of the rounds' figures; allocation and
	// CPU time are per request of the lo and hi rounds.
	out.e2e = []metric{
		{"alloc_kb_per_op", "KiB", float64(alloc) / float64(max(fixed, 1)) / 1024},
		{"cpu_ms_per_op", "ms", ms(cpu) / float64(max(fixed, 1))},
	}
	out.report = []metric{
		{"max_rps", "1/s", res.best.achieved},
		{"p50_ms.lo", "ms", res.lo.p50},
		{"p99_ms.lo", "ms", res.lo.p99},
		{"p50_ms.hi", "ms", res.hi.p50},
		{"p99_ms.hi", "ms", res.hi.p99},
		{"p90_ms.lo", "ms", res.lo.p90},
		{"p90_ms.hi", "ms", res.hi.p90},
		{"samples.lo", "count", float64(res.lo.n)},
		{"samples.hi", "count", float64(res.hi.n)},
		{"round_p99_reportable.lo", "bool", b2f(reportable(res.lo.n/rounds, 0.99))},
		{"round_p99_reportable.hi", "bool", b2f(reportable(res.hi.n/rounds, 0.99))},
		{"driver.lag_p99_ms.hi", "ms", res.hi.lagP99},
	}
	for _, st := range res.steps {
		out.notes = append(out.notes, fmt.Sprintf("ladder %8.1f/s: achieved %8.1f/s p50 %.3f ms p99 %.3f ms lag growth %.3f ms n=%d errors=%d unsent=%d pass=%v",
			st.rate, st.achieved, st.p50, st.p99w, st.lagGrow, st.n, st.errors, st.unsent, st.pass))
	}
	return res, nil
}
