package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"copernicus/internal/backend"
	"copernicus/internal/core"
	"copernicus/internal/formats"
	"copernicus/internal/hlsim"
	"copernicus/internal/matrix"
	"copernicus/internal/mtx"
	"copernicus/internal/scenario"
	"copernicus/internal/service"
	"copernicus/internal/wire"
	"copernicus/internal/workloads"
)

// ingest_cold is the write path. One closed-loop client runs sessions:
// upload a MatrixMarket matrix, sweep every format at p in {8, 16, 32},
// delete it. An operation is a sweep point; points_per_s and the session
// latencies are printed beside the gated per-point figures.
var ingestDef = workloadDef{
	name:     "ingest_cold",
	why:      "uploads share no work, so every session parses, partitions, encodes and decode-verifies from cold",
	stresses: []string{"mtx", "matrix", "formats", "hlsim", "backend", "core", "service", "wire"},
	bypasses: []string{"cluster"},
	setup:    setupIngest,
}

// ingestScale is the dimension of the uploaded suite matrices.
const ingestScale = 1024

// ingestPs is the partition sweep of every session.
var ingestPs = []int{8, 16, 32}

// ingestDropped names suite members left out of the deck: R0.5 (half
// dense) is a 15 MB upload whose session alone would take a third of a
// deck cycle.
var ingestDropped = map[string]bool{"R0.5": true}

type ingestMatrix struct {
	name string // suite ID
	body []byte // MatrixMarket text
}

type ingestBench struct {
	srv    *server
	client *http.Client
	deck   []ingestMatrix
	req    []byte // the sweep body template's format list
	// first holds each deck entry's first columnar slab; every later
	// session of the entry must answer byte-identically.
	first map[int][]byte
	ids   map[int]string
	// checked marks entries already compared with a direct engine sweep.
	checked map[int]bool
	// decodeAlloc sums the bytes the traced replays' decodes allocated.
	decodeAlloc float64
}

func setupIngest(ctx context.Context, seed uint64) (bench, error) {
	c := workloads.Config{Scale: ingestScale, RandomDim: ingestScale, BandDim: ingestScale, Seed: 0xC0FE + seed}
	var ws []workloads.Workload
	ws = append(ws, workloads.SuiteSparse(c)...)
	ws = append(ws, workloads.RandomSuite(c)...)
	ws = append(ws, workloads.BandSuite(c)...)
	b := &ingestBench{first: map[int][]byte{}, ids: map[int]string{}, checked: map[int]bool{}}
	for _, w := range ws {
		if ingestDropped[w.ID] {
			continue
		}
		var buf bytes.Buffer
		if err := mtx.Write(&buf, w.M); err != nil {
			return nil, fmt.Errorf("write %s: %w", w.ID, err)
		}
		b.deck = append(b.deck, ingestMatrix{name: w.ID, body: buf.Bytes()})
	}
	rand.New(rand.NewSource(int64(seed))).Shuffle(len(b.deck), func(i, j int) { b.deck[i], b.deck[j] = b.deck[j], b.deck[i] })
	names := make([]string, 0, formats.NumKinds)
	for _, k := range formats.All() {
		names = append(names, fmt.Sprintf("%q", k.String()))
	}
	b.req = []byte(strings.Join(names, ", "))
	srv, err := startServer(service.New(service.Options{Scale: 64}))
	if err != nil {
		return nil, err
	}
	b.srv, b.client = srv, newClient()
	return b, nil
}

func (b *ingestBench) close() {
	b.client.CloseIdleConnections()
	b.srv.close()
}

// session runs one upload-sweep-delete session for deck entry i and
// returns the columnar slab and the matrix ID.
func (b *ingestBench) session(tr *tracer, root, i int) (slab []byte, id string, err error) {
	m := b.deck[i]
	call := func(name string, req *http.Request, want int) (body []byte, err error) {
		sp := tr.begin(root, "service", name)
		defer tr.end(sp)
		status, body, err := do(b.client, req)
		if err == nil && status != want {
			err = fmt.Errorf("%s: status %d: %s", name, status, bytes.TrimSpace(body))
		}
		return body, err
	}
	req, _ := http.NewRequest("POST", b.srv.url+"/v1/matrices?name="+m.name, bytes.NewReader(m.body))
	body, err := call("POST /v1/matrices", req, http.StatusCreated)
	if err != nil {
		return nil, "", err
	}
	var up struct {
		Matrix service.MatrixInfo `json:"matrix"`
	}
	if err := json.Unmarshal(body, &up); err != nil {
		return nil, "", fmt.Errorf("upload answer: %w", err)
	}
	id = up.Matrix.ID
	sweep := fmt.Sprintf(`{"matrix": %q, "formats": [%s], "partitions": [8, 16, 32]}`, id, b.req)
	req, _ = http.NewRequest("POST", b.srv.url+"/v1/sweep", strings.NewReader(sweep))
	req.Header.Set("Accept", wire.ContentType)
	slab, err = call("POST /v1/sweep", req, http.StatusOK)
	if err != nil {
		return nil, id, err
	}
	req, _ = http.NewRequest("DELETE", b.srv.url+"/v1/matrices/"+id, nil)
	if _, err := call("DELETE /v1/matrices", req, http.StatusNoContent); err != nil {
		return nil, id, err
	}
	return slab, id, nil
}

func (b *ingestBench) measure(ctx context.Context, d time.Duration, tr *tracer) (*outcome, error) {
	out := &outcome{}
	st0, err := readStats(b.srv.svc)
	if err != nil {
		return nil, err
	}
	points := formats.NumKinds * len(ingestPs)
	type sess struct {
		lat  time.Duration
		full bool // part of a complete deck cycle
	}
	var sessions []sess
	var replayed int
	alloc0, cpu0 := allocBytes(), cpuTime()
	start := time.Now()
	cycleStart := 0
	fullCycle := false
	for i := 0; time.Since(start) < d; i++ {
		e := i % len(b.deck)
		if e == 0 {
			cycleStart = len(sessions)
		}
		root := tr.op("ingest.session")
		t0 := time.Now()
		slab, id, err := b.session(tr, root, e)
		lat := time.Since(t0)
		tr.end(root)
		out.attempted++
		switch {
		case err != nil:
			out.fail("session %s: %v", b.deck[e].name, err)
		case b.first[e] == nil:
			b.first[e], b.ids[e] = slab, id
		case !bytes.Equal(slab, b.first[e]) || id != b.ids[e]:
			out.fail("session %s: slab differs from the matrix's first session", b.deck[e].name)
		}
		sessions = append(sessions, sess{lat: lat})
		if e == len(b.deck)-1 {
			for j := cycleStart; j < len(sessions); j++ {
				sessions[j].full = true
			}
			fullCycle = true
		}
		if tr != nil && err == nil {
			// The replay's own cost stays out of the per-point figures.
			a, c := allocBytes(), cpuTime()
			b.replay(tr, e)
			alloc0, cpu0 = alloc0+allocBytes()-a, cpu0+cpuTime()-c
			replayed++
		}
	}
	alloc, cpu := allocBytes()-alloc0, cpuTime()-cpu0
	// Only whole deck cycles count, so every run weighs each matrix the
	// same; a run too short for one cycle counts what it has. Throughput
	// is over the counted sessions' own time, which leaves out the
	// traced run's replays.
	var lats []float64
	var busy time.Duration
	for _, s := range sessions {
		if s.full || !fullCycle {
			lats = append(lats, ms(s.lat))
			busy += s.lat
		}
	}
	st1, err := readStats(b.srv.svc)
	if err != nil {
		return nil, err
	}
	for e := range b.first {
		if !b.checked[e] {
			b.checked[e] = true
			if err := b.checkDirect(e); err != nil {
				out.fail("%v", err)
			}
		}
	}
	sl := sorted(lats)
	n := float64(len(lats))
	out.e2e = []metric{
		{"alloc_kb_per_op", "KiB", float64(alloc) / float64(len(sessions)*points) / 1024},
		{"cpu_ms_per_op", "ms", ms(cpu) / float64(len(sessions)*points)},
	}
	out.report = []metric{
		{"points_per_s", "1/s", n * float64(points) / busy.Seconds()},
		{"session_p50_ms", "ms", percentile(sl, 0.5)},
		{"session_p90_ms", "ms", percentile(sl, 0.9)},
		{"sessions_counted", "count", n},
		{"session_p90_reportable", "bool", b2f(reportable(len(lats), 0.9))},
	}
	if tr != nil {
		spans := tr.snapshot()
		self := selfTimes(spans)
		per := func(name string, scale float64) float64 {
			ns, _ := selfByName(spans, self, name)
			return float64(ns) / scale / float64(max(replayed, 1))
		}
		nsess := float64(max(len(sessions), 1))
		up, _ := selfByName(spans, self, "POST /v1/matrices")
		del, _ := selfByName(spans, self, "DELETE /v1/matrices")
		enc, _ := selfByName(spans, self, "formats.Encode")
		dec, _ := selfByName(spans, self, "formats.Decode")
		run, _ := selfByName(spans, self, "hlsim.Plan.RunInto")
		an, nAn := selfByName(spans, self, "backend.Analytic.Evaluate")
		we, nWe := selfByName(spans, self, "wire.Encode")
		out.layers = []metric{
			{"mtx.read_ms", "ms", per("mtx.ReadLimited", 1e6)},
			{"matrix.partition_ms", "ms", per("matrix.Partition", 1e6)},
			{"formats.encode_ms", "ms", per("formats.Encode", 1e6)},
			{"formats.decode_ms", "ms", per("formats.Decode", 1e6)},
			{"formats.decode_alloc_kb", "KiB", b.decodeAlloc / 1024 / float64(max(replayed, 1))},
			{"hlsim.warmup_self_ms", "ms", float64(run-enc-dec) / 1e6 / float64(max(replayed, 1))},
			{"backend.analytic_us_per_point", "us", float64(an) / 1e3 / float64(max(nAn, 1))},
			{"core.plan_misses", "count", float64(st1.EnginePlans.Misses-st0.EnginePlans.Misses) / nsess},
			{"service.upload_ms", "ms", float64(up) / 1e6 / nsess},
			{"service.delete_ms", "ms", float64(del) / 1e6 / nsess},
			{"service.cache_evictions", "count", float64(st1.SweepCache.Evictions - st0.SweepCache.Evictions)},
			{"wire.encode_us", "us", float64(we) / 1e3 / float64(max(nWe, 1))},
		}
		b.decodeAlloc = 0
	}
	return out, nil
}

// checkDirect compares deck entry e's slab with a direct core.Engine
// sweep of the same matrix under the same ID.
func (b *ingestBench) checkDirect(e int) error {
	m, err := mtx.Read(bytes.NewReader(b.deck[e].body))
	if err != nil {
		return fmt.Errorf("check %s: %w", b.deck[e].name, err)
	}
	eng := core.New()
	ws := []workloads.Workload{{ID: b.ids[e], M: m}}
	var rs []core.Result
	err = eng.SweepStreamExecWith(context.Background(), eng.LocalExecutor(nil), ws, []scenario.Spec{scenario.Default()}, formats.All(), ingestPs, func(r core.Result) error {
		rs = append(rs, r)
		return nil
	})
	if err != nil {
		return fmt.Errorf("check %s: direct sweep: %w", b.deck[e].name, err)
	}
	if !bytes.Equal(wire.Encode(rs), b.first[e]) {
		return fmt.Errorf("check %s: served slab differs from a direct engine sweep", b.deck[e].name)
	}
	return nil
}

// replay repeats deck entry e's session through the layers' own
// functions, in the order the server calls them, each call in a span:
// parse, partition and plan per p, then per format an encode and a
// decode of every tile, the plan's first RunInto (warm-up), an analytic
// evaluation, and finally a columnar encode of the session's rows.
func (b *ingestBench) replay(tr *tracer, e int) {
	root := tr.op("ingest.replay")
	defer tr.end(root)
	var m *matrix.CSR
	tr.do(root, "mtx", "mtx.ReadLimited", func() {
		m, _ = mtx.ReadLimited(bytes.NewReader(b.deck[e].body), mtx.Limits{MaxRows: 1 << 20, MaxCols: 1 << 20, MaxEntries: 1 << 24})
	})
	if m == nil {
		return
	}
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	for _, p := range ingestPs {
		var pt *matrix.Partitioning
		tr.do(root, "matrix", "matrix.Partition", func() { pt = matrix.Partition(m, p) })
		var pl *hlsim.Plan
		tr.do(root, "hlsim", "hlsim.NewPlan", func() { pl, _ = hlsim.NewPlan(hlsim.Default(), m, p) })
		if pl == nil {
			continue
		}
		for _, k := range formats.All() {
			encs := make([]formats.Encoded, len(pt.Tiles))
			tr.do(root, "formats", "formats.Encode", func() {
				for i, t := range pt.Tiles {
					encs[i] = formats.Encode(k, t)
				}
			})
			a0 := allocBytes()
			tr.do(root, "formats", "formats.Decode", func() {
				for _, enc := range encs {
					_, _ = enc.Decode()
				}
			})
			b.decodeAlloc += float64(allocBytes() - a0)
			var r hlsim.Result
			tr.do(root, "hlsim", "hlsim.Plan.RunInto", func() { _ = pl.RunInto(k, x, &r) })
			tr.do(root, "backend", "backend.Analytic.Evaluate", func() {
				_, _ = backend.Analytic{}.Evaluate(context.Background(), pl, scenario.Default(), k, x)
			})
		}
	}
	if rs, err := wire.Decode(b.first[e]); err == nil {
		tr.do(root, "wire", "wire.Encode", func() { _ = wire.Encode(rs) })
	}
}

func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}
