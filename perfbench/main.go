// Command perfbench is the repository benchmark. It drives one of four
// workloads against in-process Copernicus servers and libraries, checks
// every answer, and prints its metrics by name with their units; the
// last line of standard output is one JSON result object.
//
//	bash perfbench/run.sh --workload ingest_cold --seed 1 --seconds 20 --trace 0
//
// run.sh builds this module from the checkout it is run in (the module
// replaces copernicus with the parent directory), from the checkout's
// root. With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics: the first half of the run
// is untraced, the second records spans around every call the benchmark
// makes into a layer, and the difference is the tracing overhead.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// metric is one named measurement.
type metric struct {
	name  string
	unit  string
	value float64
}

// outcome is what one measured run of a workload produced.
type outcome struct {
	attempted int
	failed    int
	failures  []string // the first few failure reasons
	notes     []string // lines for the human-readable block
	e2e       []metric // the end-to-end metrics, setup_s aside
	report    []metric // extra named figures for the human-readable block
	layers    []metric // per-layer metrics (traced runs only)
}

// value returns the end-to-end metric called name, NaN if absent.
func (o *outcome) value(name string) float64 {
	for _, m := range o.e2e {
		if m.name == name {
			return m.value
		}
	}
	return math.NaN()
}

// fail counts one failed operation and keeps its reason if there is room.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 5 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// bench is a workload after set-up, ready to measure.
type bench interface {
	measure(ctx context.Context, d time.Duration, tr *tracer) (*outcome, error)
	close()
}

// workloadDef names a workload, why it is in the benchmark, and the
// layers it stresses and bypasses. A change confined to a bypassed layer
// should leave the workload's end-to-end metrics unchanged.
type workloadDef struct {
	name     string
	why      string
	stresses []string
	bypasses []string
	setup    func(ctx context.Context, seed uint64) (bench, error)
}

var workloadDefs = []workloadDef{ingestDef, serveDef, fleetDef, nativeDef}

// endToEnd lists the metrics of an untraced run, the ones a regression
// gate compares. Each workload reports all of them; what an operation is
// depends on the workload (see each workload's doc comment). Wall-clock
// latencies, throughput and max_rps are printed beside them but not
// listed: on a shared 2-CPU virtual machine whose neighbours take CPU
// time away for minutes at a time, their run-to-run spread reached 50%
// to 170%, wider than any bound a gate can use, while the process's own
// CPU time per operation stayed within a few percent.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"alloc_kb_per_op", "KiB"},
	{"cpu_ms_per_op", "ms"},
}

// setupRuns is how many times a run sets its workload up; setup_s is the
// median.
const setupRuns = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: ingest_cold, serve_warm, fleet_cold or native_exec")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "measured seconds")
	traceOn := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	commit := fs.String("commit", "unknown", "commit the program was built from")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the spans file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var def *workloadDef
	for i := range workloadDefs {
		if workloadDefs[i].name == *name {
			def = &workloadDefs[i]
		}
	}
	if def == nil || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q or bad --seconds\n", *name)
		return 2
	}
	printHost(stdout, *seed, *commit)
	fmt.Fprintf(stdout, "workload %s: %s\n  stresses %v; bypasses %v\n", def.name, def.why, def.stresses, def.bypasses)

	ctx := context.Background()
	var b bench
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if b != nil {
			b.close()
			runtime.GC()
		}
		start := time.Now()
		var err error
		if b, err = def.setup(ctx, *seed); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s set-up: %v\n", def.name, err)
			return 1
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer b.close()
	runtime.GC()
	fmt.Fprintf(stdout, "setup_s samples: %v\n", setups)

	d := time.Duration(*seconds * float64(time.Second))
	res := result{Metrics: map[string]resultMetric{}}
	var out *outcome
	if *traceOn == 0 {
		var err error
		if out, err = b.measure(ctx, d, nil); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", def.name, err)
			return 1
		}
		have := map[string]metric{"setup_s": {"setup_s", "s", median(setups)}}
		for _, m := range out.e2e {
			have[m.name] = m
		}
		// A workload that fails to report an end-to-end metric reports NaN
		// for it, which marks the run incorrect.
		for _, e := range endToEnd {
			m, ok := have[e.name]
			if !ok {
				m = metric{e.name, e.unit, math.NaN()}
			}
			res.add(m)
		}
	} else {
		base, err := b.measure(ctx, d/2, nil)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", def.name, err)
			return 1
		}
		tr := newTracer()
		if out, err = b.measure(ctx, d/2, tr); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s traced: %v\n", def.name, err)
			return 1
		}
		out.attempted += base.attempted
		out.failed += base.failed
		out.failures = append(out.failures, base.failures...)
		spans := tr.snapshot()
		self := selfTimes(spans)
		printTrace(stdout, spans, self)
		path := filepath.Join(*outDir, fmt.Sprintf("spans-%s-%d.jsonl", def.name, *seed))
		if err := writeSpans(path, spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
		var rootNs, ownNs int64
		for _, s := range spans {
			if s.Parent < 0 {
				rootNs += s.End - s.Start
				ownNs += self[s.ID]
			}
		}
		// The overhead compares the two halves' CPU time per operation,
		// the end-to-end figure that holds still on a shared host.
		untraced, traced := base.value("cpu_ms_per_op"), out.value("cpu_ms_per_op")
		out.layers = append(out.layers,
			metric{"trace.overhead_pct", "%", 100 * (traced - untraced) / untraced},
			metric{"trace.unattributed_pct", "%", 100 * float64(ownNs) / float64(max(rootNs, 1))})
		fmt.Fprintf(stdout, "cpu_ms_per_op untraced %.4f, traced %.4f\n", untraced, traced)
		have := map[string]metric{}
		for _, m := range out.layers {
			have[m.name] = m
		}
		// Every run reports every per-layer metric; a layer the workload
		// bypasses reads 0.
		for _, l := range perLayer {
			m, ok := have[l.name]
			if !ok {
				m = metric{l.name, l.unit, 0}
			}
			res.add(m)
		}
	}
	res.Attempted, res.Failed = out.attempted, out.failed
	for _, n := range out.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, f := range out.failures {
		fmt.Fprintf(stdout, "FAILED: %s\n", f)
	}
	errRate := float64(out.failed) / float64(max(out.attempted, 1))
	fmt.Fprintf(stdout, "%-32s %14.6g %s\n", "error_rate", errRate, "ratio")
	for _, m := range out.report {
		fmt.Fprintf(stdout, "%-32s %14.6g %s\n", m.name, m.value, m.unit)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-32s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	res.Correct = out.failed == 0 && out.attempted > 0 && !res.nonFinite
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = max(res.Failed, 1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// result is the final JSON line.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
	nonFinite bool
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// add records m; a NaN or infinite value (a metric with no samples) is
// reported as 0 and marks the run incorrect.
func (r *result) add(m metric) {
	if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
		r.nonFinite = true
		m.value = 0
	}
	r.Metrics[m.name] = resultMetric{Value: m.value, Unit: m.unit}
}

// printHost prints the host record every result is read against.
func printHost(w io.Writer, seed uint64, commit string) {
	llc := "unknown"
	if b := llcBytes(); b > 0 {
		llc = fmt.Sprintf("%dKiB", b>>10)
	}
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d go=%s cpu=%q llc=%s seed=%d commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), llc, seed, commit)
}

// allocBytes returns the bytes the process has allocated on the heap.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// gcCPU returns the CPU seconds spent in the garbage collector and in
// total since the process started.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// loadWorkers is how many goroutines send load and how many connections
// a client may open: never more than the host's CPUs.
func loadWorkers() int { return runtime.NumCPU() }
