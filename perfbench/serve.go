package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"copernicus/internal/core"
	"copernicus/internal/formats"
	"copernicus/internal/scenario"
	"copernicus/internal/service"
	"copernicus/internal/wire"
	"copernicus/internal/workloads"
)

// serve_warm is the read path: open-loop requests at the fixed rates lo
// and hi, then a ladder that finds the highest rate meeting the p99
// limit. An operation is a request of the lo and hi rounds; max_rps and
// the p50 and p99 at lo and hi are printed beside the gated figures.
var serveDef = workloadDef{
	name:     "serve_warm",
	why:      "every answer is a result-cache hit, so routing, negotiation, encoding and the Go runtime do the work",
	stresses: []string{"service", "wire", "core", "runtime"},
	bypasses: []string{"mtx", "matrix", "formats", "hlsim", "backend", "cluster"},
	setup:    setupServe,
}

// serveScale is the built-in suites' scale on every server the benchmark
// starts.
const serveScale = 1024

// serveLoad fixes serve_warm's rates and latency limit (requests/s, ms).
// On a quiet 2-CPU Xeon host max_rps is about 20000. hi is well below
// three quarters of it: on a shared host that loses CPU time for seconds
// at a time, capacity halves, and a rate near it makes every hi-rate
// figure swing with the neighbours' load.
var serveLoad = openLoad{lo: 2000, hi: 6000, limitMs: 20}

// warmKind is one request shape of the warm deck, with its weight per
// deck cycle (the warm half of the loadgen default deck).
type warmKind struct {
	name     string
	endpoint string // sweep, characterize or advise
	weight   int
	columnar bool
}

var warmKinds = []warmKind{
	{"sweep_json", "sweep", 8, false},
	{"sweep_col", "sweep", 8, true},
	{"characterize_json", "characterize", 4, false},
	{"characterize_col", "characterize", 4, true},
	{"advise_json", "advise", 2, false},
	{"advise_col", "advise", 2, true},
}

// warmReq is one concrete request of the deck and its reference body.
type warmReq struct {
	kind   warmKind
	matrix string
	ref    []byte
}

func (r *warmReq) build(base string) *http.Request {
	var req *http.Request
	switch r.kind.endpoint {
	case "sweep":
		body := fmt.Sprintf(`{"matrix": %q, "formats": ["CSR", "ELL"], "partitions": [8, 16]}`, r.matrix)
		req, _ = http.NewRequest("POST", base+"/v1/sweep", strings.NewReader(body))
	case "characterize":
		req, _ = http.NewRequest("GET", base+"/v1/characterize?matrix="+r.matrix+"&format=CSR&p=8", nil)
	default:
		req, _ = http.NewRequest("GET", base+"/v1/advise?matrix="+r.matrix+"&p=8", nil)
	}
	if r.kind.columnar {
		req.Header.Set("Accept", wire.ContentType)
	}
	return req
}

type serveBench struct {
	srv    *server
	client *http.Client
	deck   []*warmReq
}

func setupServe(ctx context.Context, seed uint64) (bench, error) {
	svc := service.New(service.Options{Scale: serveScale})
	srv, err := startServer(svc)
	if err != nil {
		return nil, err
	}
	b := &serveBench{srv: srv, client: newClient()}
	rng := rand.New(rand.NewSource(int64(seed)))
	// The deck rotates over every built-in SuiteSparse surrogate; their
	// sweep, characterize and advise keys all fit the result cache.
	ids := suiteSparseIDs(svc)
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	var sched []warmKind
	for _, k := range warmKinds {
		for j := 0; j < k.weight; j++ {
			sched = append(sched, k)
		}
	}
	rng.Shuffle(len(sched), func(i, j int) { sched[i], sched[j] = sched[j], sched[i] })
	// The deck's length is a multiple of both the schedule and the
	// rotation, so every (kind, matrix) pair appears.
	refs := map[string][]byte{}
	for i := 0; i < len(sched)*len(ids); i++ {
		r := &warmReq{kind: sched[i%len(sched)], matrix: ids[(i+i/len(sched))%len(ids)]}
		key := r.kind.name + "|" + r.matrix
		if refs[key] == nil {
			// The first call computes and fills the cache; the second is
			// the warm answer every measured response must equal.
			for pass := 0; pass < 2; pass++ {
				rec := serveDirect(svc.Handler(), r.build(""))
				if rec.Code != http.StatusOK {
					b.close()
					return nil, fmt.Errorf("warm %s: status %d: %s", key, rec.Code, rec.Body.Bytes())
				}
				refs[key] = rec.Body.Bytes()
			}
			if r.kind.name == "sweep_col" {
				if err := checkSweepSlab(svc, r.matrix, refs[key]); err != nil {
					b.close()
					return nil, err
				}
			}
		}
		r.ref = refs[key]
		b.deck = append(b.deck, r)
	}
	return b, nil
}

// checkSweepSlab compares a served warm columnar sweep with a direct
// engine sweep of the same points.
func checkSweepSlab(svc *service.Server, id string, slab []byte) error {
	_, m, ok := svc.Registry().Lookup(id)
	if !ok {
		return fmt.Errorf("check %s: not registered", id)
	}
	eng := core.New()
	var rs []core.Result
	err := eng.SweepStreamExecWith(context.Background(), eng.LocalExecutor(nil), []workloads.Workload{{ID: id, M: m}},
		[]scenario.Spec{scenario.Default()}, []formats.Kind{formats.CSR, formats.ELL}, []int{8, 16}, func(r core.Result) error {
			rs = append(rs, r)
			return nil
		})
	if err != nil {
		return fmt.Errorf("check %s: %w", id, err)
	}
	if !bytes.Equal(wire.Encode(rs), slab) {
		return fmt.Errorf("check %s: served sweep slab differs from a direct engine sweep", id)
	}
	return nil
}

func (b *serveBench) close() {
	b.client.CloseIdleConnections()
	b.srv.close()
}

func (b *serveBench) measure(ctx context.Context, d time.Duration, tr *tracer) (*outcome, error) {
	out := &outcome{}
	var mu sync.Mutex
	send := func(seq uint64) bool {
		r := b.deck[seq%uint64(len(b.deck))]
		root := tr.op("serve.request")
		sp := tr.begin(root, "service", "HTTP "+r.kind.name)
		status, body, err := do(b.client, r.build(b.srv.url))
		tr.end(sp)
		tr.end(root)
		ok := err == nil && status == http.StatusOK && bytes.Equal(body, r.ref)
		if !ok {
			mu.Lock()
			if err == nil {
				err = fmt.Errorf("status %d, %d bytes, body differs from reference", status, len(body))
			}
			out.fail("%s %s: %v", r.kind.name, r.matrix, err)
			mu.Unlock()
		}
		return ok
	}
	st0, err := readStats(b.srv.svc)
	if err != nil {
		return nil, err
	}
	run, err := serveLoad.drive(ctx, d, out, send)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		st1, err := readStats(b.srv.svc)
		if err != nil {
			return nil, err
		}
		b.replay(tr, out, run)
		hits := float64(st1.SweepCache.Hits - st0.SweepCache.Hits)
		all := hits + float64(st1.SweepCache.Misses-st0.SweepCache.Misses)
		out.layers = append(out.layers, metric{"service.cache_hit_ratio", "ratio", hits / max(all, 1)})
	}
	return out, nil
}

// replay sends deck requests straight to the handler and calls the core
// and wire functions an advise answer is built from, each in a span.
func (b *serveBench) replay(tr *tracer, out *outcome, run *driveResult) {
	h := b.srv.svc.Handler()
	var colBytes, jsonBytes, nCol, nJSON float64
	for _, r := range b.deck {
		if r.kind.columnar {
			colBytes, nCol = colBytes+float64(len(r.ref)), nCol+1
		} else {
			jsonBytes, nJSON = jsonBytes+float64(len(r.ref)), nJSON+1
		}
	}
	for rep := 0; rep < 4; rep++ {
		for _, r := range b.deck {
			req := r.build("")
			root := tr.op("serve.replay")
			sink := &sinkWriter{code: http.StatusOK}
			tr.do(root, "service", "service.hit."+r.kind.endpoint, func() { h.ServeHTTP(sink, req) })
			if sink.code != http.StatusOK || sink.n != len(r.ref) {
				out.fail("replay %s %s: status %d, %d bytes, want %d", r.kind.name, r.matrix, sink.code, sink.n, len(r.ref))
			}
			out.attempted++
			if r.kind.name == "advise_col" {
				if rs, err := wire.Decode(r.ref); err == nil {
					tr.do(root, "core", "core.Rank", func() { _, _ = core.Rank(rs, core.BalancedObjective()) })
				}
				if _, m, ok := b.srv.svc.Registry().Lookup(r.matrix); ok {
					tr.do(root, "core", "core.Classify", func() { _ = core.Classify(m) })
				}
			}
			tr.end(root)
		}
	}
	spans := tr.snapshot()
	self := selfTimes(spans)
	us := func(name string) float64 {
		ns, n := selfByName(spans, self, name)
		return float64(ns) / 1e3 / float64(max(n, 1))
	}
	var rtNs, rtN int64
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "HTTP ") {
			rtNs += s.End - s.Start
			rtN++
		}
	}
	hitNs, hitN := int64(0), 0
	for _, e := range []string{"sweep", "characterize", "advise"} {
		ns, n := selfByName(spans, self, "service.hit."+e)
		hitNs, hitN = hitNs+ns, hitN+n
	}
	// The round trip and the handler time are averaged over the same deck
	// mix, so their difference is the network and client cost.
	netUs := (float64(rtNs)/float64(max(rtN, 1)) - float64(hitNs)/float64(max(hitN, 1))) / 1e3
	out.layers = append(out.layers,
		metric{"service.hit_us.sweep", "us", us("service.hit.sweep")},
		metric{"service.hit_us.characterize", "us", us("service.hit.characterize")},
		metric{"service.hit_us.advise", "us", us("service.hit.advise")},
		metric{"core.rank_us", "us", us("core.Rank")},
		metric{"core.classify_us", "us", us("core.Classify")},
		metric{"wire.bytes_per_resp", "B", colBytes / max(nCol, 1)},
		metric{"service.json_bytes_per_resp", "B", jsonBytes / max(nJSON, 1)},
		metric{"net.overhead_us", "us", netUs},
		metric{"runtime.gc_cpu_frac", "ratio", run.gcFrac},
		metric{"driver.lag_p99_ms", "ms", run.hi.lagP99},
	)
}

// sinkWriter is a ResponseWriter that discards the body, keeping its
// status and length.
type sinkWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *sinkWriter) Header() http.Header {
	if w.h == nil {
		w.h = http.Header{}
	}
	return w.h
}

func (w *sinkWriter) WriteHeader(code int) { w.code = code }

func (w *sinkWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// suiteSparseIDs lists the server's built-in SuiteSparse surrogates, in
// registration order.
func suiteSparseIDs(svc *service.Server) []string {
	var ids []string
	for _, m := range svc.Registry().List() {
		if m.Source == "builtin" && !strings.HasSuffix(m.Kind, " Synthetic") {
			ids = append(ids, m.ID)
		}
	}
	return ids
}
