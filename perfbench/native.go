package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"copernicus/internal/backend"
	"copernicus/internal/core"
	"copernicus/internal/formats"
	"copernicus/internal/gen"
	"copernicus/internal/hlsim"
	"copernicus/internal/matrix"
	"copernicus/internal/scenario"
	"copernicus/internal/workloads"
)

// native_exec runs repeated core sweeps of the spmv kernel under
// backend.Native{Threads: 1} on a warm engine: a seeded random matrix,
// the 12 sparse formats, p in {64, 128}. An operation is a sweep point:
// points_per_s and the latency of one point's backend evaluation are
// printed beside the gated per-point figures.
var nativeDef = workloadDef{
	name:     "native_exec",
	why:      "warm plans and host-timed SpMV, so the format exec kernels and the exec runner do the work; no HTTP",
	stresses: []string{"formats", "hlsim", "backend", "core"},
	bypasses: []string{"mtx", "service", "wire", "cluster"},
	setup:    setupNative,
}

// The matrix is large enough that the fastest format's single SpMV stays
// at least four times backend.Native's 100 µs minimum sample (calibration
// stays at one SpMV per sample), and small enough to stay in cache.
const (
	nativeDim     = 2048
	nativeDensity = 0.06
)

var nativePs = []int{64, 128}

// nativeKinds is every format but DENSE, whose O(p²) walk would take
// most of the time.
func nativeKinds() []formats.Kind { return formats.All()[1:] }

type nativeBench struct {
	m     *matrix.CSR
	eng   *core.Engine
	nb    *backend.Native
	plans []*hlsim.Plan // the traced run's own plans, built on first use
}

func setupNative(ctx context.Context, seed uint64) (bench, error) {
	b := &nativeBench{m: gen.Random(nativeDim, nativeDensity, 0x5EED+seed), eng: core.New(), nb: &backend.Native{Threads: 1}}
	// One sweep builds, verifies and measures every plan.
	if _, err := b.sweep(ctx, nil, -1, func(core.Result) {}); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *nativeBench) close() {}

// timedBackend times each Evaluate of the backend it wraps, and traces
// it as a backend span under the current sweep's span. The engine
// serializes sweep groups under a backend that is not parallelizable, as
// Native is, so calls never overlap.
type timedBackend struct {
	backend.Backend
	tr     *tracer
	parent int
	lat    []float64 // ms per Evaluate
}

func (t *timedBackend) Evaluate(ctx context.Context, pl *hlsim.Plan, sc scenario.Spec, k formats.Kind, x []float64) (backend.Measurement, error) {
	sp := t.tr.begin(t.parent, "backend", "backend.Native.Evaluate")
	start := time.Now()
	m, err := t.Backend.Evaluate(ctx, pl, sc, k, x)
	t.lat = append(t.lat, ms(time.Since(start)))
	t.tr.end(sp)
	return m, err
}

// sweep runs one core sweep of every point under a timed Native backend
// and returns the per-point Evaluate latencies.
func (b *nativeBench) sweep(ctx context.Context, tr *tracer, root int, yield func(core.Result)) ([]float64, error) {
	ws := []workloads.Workload{{ID: "native", M: b.m}}
	sp := tr.begin(root, "core", "core.Engine.SweepStreamExecWith")
	defer tr.end(sp)
	tb := &timedBackend{Backend: b.nb, tr: tr, parent: sp}
	err := b.eng.SweepStreamExecWith(ctx, b.eng.LocalExecutor(tb), ws, []scenario.Spec{scenario.Default()}, nativeKinds(), nativePs,
		func(r core.Result) error {
			yield(r)
			return nil
		})
	return tb.lat, err
}

func (b *nativeBench) measure(ctx context.Context, d time.Duration, tr *tracer) (*outcome, error) {
	out := &outcome{}
	nat0 := backend.NativeMeasureStats()
	plan0 := b.eng.PlanStats()
	var lats []float64
	var busy time.Duration
	points := 0
	alloc0, cpu0 := allocBytes(), cpuTime()
	start := time.Now()
	for time.Since(start) < d {
		root := tr.op("native.sweep")
		t0 := time.Now()
		n := 0
		lat, err := b.sweep(ctx, tr, root, func(r core.Result) {
			n++
			if !r.Measured || r.Degraded || r.Threads != 1 {
				out.fail("%s p=%d: measured=%v degraded=%v (%s) threads=%d", r.Format, r.P, r.Measured, r.Degraded, r.DegradedReason, r.Threads)
			}
		})
		tr.end(root)
		out.attempted += n
		if err != nil {
			out.attempted++
			out.fail("sweep: %v", err)
			continue
		}
		busy += time.Since(t0)
		lats = append(lats, lat...)
		points += n
	}
	alloc, cpu := allocBytes()-alloc0, cpuTime()-cpu0
	sl := sorted(lats)
	out.e2e = []metric{
		{"alloc_kb_per_op", "KiB", float64(alloc) / float64(max(points, 1)) / 1024},
		{"cpu_ms_per_op", "ms", ms(cpu) / float64(max(points, 1))},
	}
	out.report = []metric{
		{"points_per_s", "1/s", float64(points) / busy.Seconds()},
		{"point_p50_ms", "ms", percentile(sl, 0.5)},
		{"point_p90_ms", "ms", percentile(sl, 0.9)},
		{"points", "count", float64(points)},
		{"nnz", "count", float64(b.m.NNZ())},
	}
	if tr != nil {
		nat1 := backend.NativeMeasureStats()
		plan1 := b.eng.PlanStats()
		out.layers = append(out.layers,
			metric{"backend.native_degraded", "count", float64(nat1.Degraded - nat0.Degraded)},
			metric{"backend.native_retries", "count", float64(nat1.Retries - nat0.Retries)},
			metric{"core.plan_hits", "count", float64(plan1.Hits - plan0.Hits)},
		)
		out.layers = append(out.layers, b.execNsPerNNZ(tr)...)
		out.notes = append(out.notes, b.parallelNote())
	}
	return out, nil
}

// execNsPerNNZ times warm Plan.RunExecInto per format on the benchmark's
// own plans, one span per call.
func (b *nativeBench) execNsPerNNZ(tr *tracer) []metric {
	x := make([]float64, b.m.Cols)
	for i := range x {
		x[i] = float64(i%5) - 2
	}
	if b.plans == nil {
		for _, p := range nativePs {
			pl, err := hlsim.NewPlan(b.eng.Config(), b.m, p)
			if err != nil {
				return nil
			}
			var r hlsim.Result
			for _, k := range nativeKinds() {
				_ = pl.RunExecInto(k, x, &r, 1)
			}
			b.plans = append(b.plans, pl)
		}
	}
	const reps = 5
	var out []metric
	for _, k := range nativeKinds() {
		root := tr.op("native.exec")
		name := "hlsim.RunExecInto." + k.String()
		var r hlsim.Result
		for _, pl := range b.plans {
			for i := 0; i < reps; i++ {
				tr.do(root, "hlsim", name, func() { _ = pl.RunExecInto(k, x, &r, 1) })
			}
		}
		tr.end(root)
		spans := tr.snapshot()
		ns, _ := selfByName(spans, selfTimes(spans), name)
		out = append(out, metric{"hlsim.exec_ns_per_nnz." + fmtKey(k), "ns", float64(ns) / float64(reps*len(b.plans)*b.m.NNZ())})
	}
	return out
}

// parallelNote compares CSR exec at GOMAXPROCS threads with one thread,
// or says why it is skipped: a threads>1 figure taken on one CPU is not
// a measurement of parallelism.
func (b *nativeBench) parallelNote() string {
	n := runtime.GOMAXPROCS(0)
	if n < 2 {
		return "hlsim.exec_speedup.csr: skipped (GOMAXPROCS=1)"
	}
	x := make([]float64, b.m.Cols)
	var r hlsim.Result
	pl := b.plans[len(b.plans)-1]
	timeIt := func(threads int) time.Duration {
		best := time.Duration(1 << 62)
		for i := 0; i < 9; i++ {
			t := time.Now()
			_ = pl.RunExecInto(formats.CSR, x, &r, threads)
			best = min(best, time.Since(t))
		}
		return best
	}
	one, many := timeIt(1), timeIt(n)
	return fmt.Sprintf("hlsim.exec_speedup.csr.threads%d: %.3f (p=%d, best of 9)", n, float64(one)/float64(many), pl.P())
}

// fmtKey is a format's name in metric names: lower case, letters and
// digits only (ELL+COO is ellcoo, SELL-C-sig is sellcs).
func fmtKey(k formats.Kind) string {
	if k == formats.SELLCS {
		return "sellcs"
	}
	var sb strings.Builder
	for _, c := range strings.ToLower(k.String()) {
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' {
			sb.WriteRune(c)
		}
	}
	return sb.String()
}
