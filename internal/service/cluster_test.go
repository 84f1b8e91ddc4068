package service

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"copernicus/internal/cluster"
	"copernicus/internal/core"
	"copernicus/internal/faults"
	"copernicus/internal/scenario"
	"copernicus/internal/wire"
	"copernicus/internal/workloads"
)

// killSwitch wraps a worker's handler so chaos tests can kill it
// "mid-job": once tripped (by the dieAt-th sweep request, or Kill), every
// request — the in-flight one included — aborts its connection, exactly
// what a SIGKILLed worker looks like to the coordinator.
type killSwitch struct {
	h      http.Handler
	dieAt  atomic.Int64 // kill on the Nth /v1/sweep request (0 = never)
	sweeps atomic.Int64
	dead   atomic.Bool
}

func (k *killSwitch) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if k.dead.Load() {
		panic(http.ErrAbortHandler)
	}
	if at := k.dieAt.Load(); at > 0 && strings.HasPrefix(r.URL.Path, "/v1/sweep") && k.sweeps.Add(1) >= at {
		k.dead.Store(true)
		panic(http.ErrAbortHandler)
	}
	k.h.ServeHTTP(w, r)
}

// workerAddr strips the scheme from an httptest URL — the host:port form
// a fleet config would list (exercising the coordinator's http://
// normalization).
func workerAddr(ts *httptest.Server) string {
	return strings.TrimPrefix(ts.URL, "http://")
}

// newWorker starts one fleet worker behind a kill switch.
func newWorker(t *testing.T) (*Server, *killSwitch, *httptest.Server) {
	t.Helper()
	s := New(Options{Scale: 64})
	t.Cleanup(s.Shutdown)
	ks := &killSwitch{h: s.Handler()}
	ts := httptest.NewServer(ks)
	t.Cleanup(ts.Close)
	return s, ks, ts
}

// newCoordinator starts a coordinator fronting the given workers.
func newCoordinator(t *testing.T, cfg cluster.Config, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	co, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts.Scale = 64
	opts.Cluster = co
	s := New(opts)
	t.Cleanup(s.Shutdown)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// fetch issues one request and returns the status, body, and headers.
func fetch(t *testing.T, method, url, accept, body string, hdr map[string]string) (int, []byte, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw, resp.Header
}

func clusterStats(t *testing.T, base string) map[string]any {
	t.Helper()
	code, body := doJSON(t, "GET", base+"/v1/stats", nil)
	if code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	cs, ok := body["cluster"].(map[string]any)
	if !ok {
		t.Fatalf("stats has no cluster section: %v", body)
	}
	return cs
}

const parityBody = `{"matrix": "DW", "formats": ["CSR", "ELL", "SELL-C-sig"], "partitions": [8, 16, 32]}`
const parityGet = "/v1/sweep?matrix=DW&formats=CSR,ELL,SELL-C-sig&partitions=8,16,32"

// A clustered sweep must be byte-identical to the single-node one — as
// a JSON slab (cold and warm), a columnar slab, an NDJSON stream, and
// against the engine's own sweep output.
func TestClusterSweepParity(t *testing.T) {
	single, singleTS := newTestServer(t)
	_, _, w1 := newWorker(t)
	_, _, w2 := newWorker(t)
	_, coordTS := newCoordinator(t, cluster.Config{Workers: []string{workerAddr(w1), workerAddr(w2)}}, Options{})

	// Cold JSON parity.
	cs, cold, _ := fetch(t, "POST", coordTS.URL+"/v1/sweep", "", parityBody, nil)
	ss, want, _ := fetch(t, "POST", singleTS.URL+"/v1/sweep", "", parityBody, nil)
	if cs != http.StatusOK || ss != http.StatusOK {
		t.Fatalf("cold sweep: coordinator %d, single %d: %s", cs, ss, cold)
	}
	if !bytes.Equal(cold, want) {
		t.Fatalf("cold JSON differs:\ncluster: %.200s\nsingle:  %.200s", cold, want)
	}

	// Warm JSON parity (coordinator LRU hit vs single-node LRU hit).
	_, warm, _ := fetch(t, "POST", coordTS.URL+"/v1/sweep", "", parityBody, nil)
	_, wantWarm, _ := fetch(t, "POST", singleTS.URL+"/v1/sweep", "", parityBody, nil)
	if !bytes.Equal(warm, wantWarm) {
		t.Fatalf("warm JSON differs:\ncluster: %.200s\nsingle:  %.200s", warm, wantWarm)
	}

	// Columnar parity, plus the headers.
	_, colC, hdrC := fetch(t, "GET", coordTS.URL+parityGet, wire.ContentType, "", nil)
	_, colS, hdrS := fetch(t, "GET", singleTS.URL+parityGet, wire.ContentType, "", nil)
	if !bytes.Equal(colC, colS) {
		t.Fatal("columnar slabs differ")
	}
	for _, h := range []string{headerRows, headerMatrix} {
		if hdrC.Get(h) != hdrS.Get(h) {
			t.Fatalf("%s: cluster %q, single %q", h, hdrC.Get(h), hdrS.Get(h))
		}
	}

	// NDJSON stream parity.
	_, ndC, _ := fetch(t, "GET", coordTS.URL+parityGet, "application/x-ndjson", "", nil)
	_, ndS, _ := fetch(t, "GET", singleTS.URL+parityGet, "application/x-ndjson", "", nil)
	if !bytes.Equal(ndC, ndS) {
		t.Fatal("NDJSON streams differ")
	}

	// And against the engine primitive itself: the columnar body is
	// exactly wire.Encode of the engine's slab.
	_, m, ok := single.Registry().Lookup("DW")
	if !ok {
		t.Fatal("DW not registered")
	}
	kinds, err := parseKinds([]string{"CSR", "ELL", "SELL-C-sig"})
	if err != nil {
		t.Fatal(err)
	}
	var rows []core.Result
	eng := single.Engine()
	err = eng.SweepStreamExecWith(context.Background(), eng.LocalExecutor(nil),
		[]workloads.Workload{{ID: "DW", M: m}}, []scenario.Spec{scenario.Default()}, kinds, []int{8, 16, 32},
		func(r core.Result) error {
			rows = append(rows, r)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(colC, wire.Encode(rows)) {
		t.Fatal("clustered columnar slab != wire.Encode(engine sweep slab)")
	}

	// The groups really were dispatched (3 p-values × 1 kernel = 3).
	st := clusterStats(t, coordTS.URL)
	if got := st["groups_dispatched"].(float64); got != 3 {
		t.Fatalf("groups_dispatched = %v, want 3", got)
	}
	if got := st["peer_cache_misses"].(float64); got != 3 {
		t.Fatalf("peer_cache_misses = %v, want 3 (all cold at the workers)", got)
	}
}

// A worker that dies mid-sweep (its in-flight dispatch aborts, and it
// never answers again) must not fail the sweep or change a byte of it:
// its groups re-dispatch to the ring's next replica.
func TestClusterWorkerDeathRedispatch(t *testing.T) {
	_, singleTS := newTestServer(t)
	_, ks1, w1 := newWorker(t)
	_, ks2, w2 := newWorker(t)
	names := []string{workerAddr(w1), workerAddr(w2)}
	_, coordTS := newCoordinator(t, cluster.Config{Workers: names}, Options{})

	// Kill the worker that owns the sweep's first group, on its first
	// sweep request — the deterministic stand-in for SIGKILL mid-job.
	ring, err := cluster.NewRing(names, 0, cluster.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	q := cluster.SweepQuery{
		Matrix:     "DW",
		Formats:    []string{"CSR", "ELL", "SELL-C-sig"},
		Partitions: []int{8},
		Backend:    "analytic",
		Kernel:     scenario.Default().String(),
	}
	if ring.Owner(q.Key()) == names[0] {
		ks1.dieAt.Store(1)
	} else {
		ks2.dieAt.Store(1)
	}

	cs, got, _ := fetch(t, "POST", coordTS.URL+"/v1/sweep", "", parityBody, nil)
	ss, want, _ := fetch(t, "POST", singleTS.URL+"/v1/sweep", "", parityBody, nil)
	if cs != http.StatusOK || ss != http.StatusOK {
		t.Fatalf("sweep after worker death: coordinator %d, single %d: %s", cs, ss, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("post-death JSON differs:\ncluster: %.200s\nsingle:  %.200s", got, want)
	}
	st := clusterStats(t, coordTS.URL)
	if got := st["redispatched"].(float64); got < 1 {
		t.Fatalf("redispatched = %v, want >= 1", got)
	}
}

// The peer cache tier: a worker whose dispatch breaker is open is still
// consulted cache-only — warm groups come back from its sweep LRU
// without any compute dispatch, and only truly missing groups fall back
// to local compute.
func TestClusterPeerCacheTier(t *testing.T) {
	_, singleTS := newTestServer(t)
	_, _, w1 := newWorker(t)
	// CacheEntries: 1 lets the test evict the coordinator's own slab
	// (the second sweep below displaces the first) without reaching into
	// internals; BreakerThreshold 1 opens the breaker on one failure.
	_, coordTS := newCoordinator(t,
		cluster.Config{Workers: []string{workerAddr(w1)}, BreakerThreshold: 1},
		Options{CacheEntries: 1})

	const sweepX = `{"matrix": "DW", "formats": ["CSR", "ELL"], "partitions": [8, 16]}`
	const sweepY = `{"matrix": "FR", "formats": ["CSR"], "partitions": [8]}`

	// Warm the worker's LRU with X's groups, then evict X from the
	// coordinator's own cache by sweeping Y.
	if code, body, _ := fetch(t, "POST", coordTS.URL+"/v1/sweep", "", sweepX, nil); code != http.StatusOK {
		t.Fatalf("warm sweep: %d %s", code, body)
	}
	if code, _, _ := fetch(t, "POST", coordTS.URL+"/v1/sweep", "", sweepY, nil); code != http.StatusOK {
		t.Fatalf("evicting sweep: %d", code)
	}

	// One injected dispatch failure opens the worker's breaker; from
	// then on the worker is a cache peer only.
	pt := faults.Point("cluster.dispatch")
	pt.Arm(faults.Injection{Kind: faults.KindError, Times: 1})
	t.Cleanup(pt.Disarm)

	cs, got, _ := fetch(t, "POST", coordTS.URL+"/v1/sweep", "", sweepX, nil)
	ss, want, _ := fetch(t, "POST", singleTS.URL+"/v1/sweep", "", sweepX, nil)
	if cs != http.StatusOK || ss != http.StatusOK {
		t.Fatalf("sweep with open breaker: coordinator %d, single %d: %s", cs, ss, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("breaker-open JSON differs:\ncluster: %.200s\nsingle:  %.200s", got, want)
	}
	st := clusterStats(t, coordTS.URL)
	if hits := st["peer_cache_hits"].(float64); hits < 1 {
		t.Fatalf("peer_cache_hits = %v, want >= 1 (worker LRU should have served warm groups)", hits)
	}
	if fb := st["local_fallbacks"].(float64); fb != 1 {
		t.Fatalf("local_fallbacks = %v, want 1 (the faulted group)", fb)
	}
}

// With every worker unreachable the coordinator still answers — all
// groups fall back to local compute — and a coordinator-internal
// request never fans out at all (the dispatch-loop guard).
func TestClusterFallbackAndLoopGuard(t *testing.T) {
	_, singleTS := newTestServer(t)
	// 127.0.0.1:1 refuses connections; the readiness probe may or may
	// not have marked it down yet — either path must end in local
	// fallback, not an error.
	_, coordTS := newCoordinator(t, cluster.Config{Workers: []string{"127.0.0.1:1"}}, Options{})

	cs, got, _ := fetch(t, "POST", coordTS.URL+"/v1/sweep", "", parityBody, nil)
	ss, want, _ := fetch(t, "POST", singleTS.URL+"/v1/sweep", "", parityBody, nil)
	if cs != http.StatusOK || ss != http.StatusOK {
		t.Fatalf("sweep with dead fleet: coordinator %d, single %d: %s", cs, ss, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("dead-fleet JSON differs from single-node")
	}
	st := clusterStats(t, coordTS.URL)
	if fb := st["local_fallbacks"].(float64); fb != 3 {
		t.Fatalf("local_fallbacks = %v, want 3 (every group)", fb)
	}

	// Internal requests compute locally without touching the fleet: no
	// new fallbacks (a dispatch would have to fail first) on a cold key.
	code, _, _ := fetch(t, "GET", coordTS.URL+parityGet+"&kernel=jacobi:7", "",
		"", map[string]string{cluster.InternalHeader: "1"})
	if code != http.StatusOK {
		t.Fatalf("internal sweep: %d", code)
	}
	st = clusterStats(t, coordTS.URL)
	if fb := st["local_fallbacks"].(float64); fb != 3 {
		t.Fatalf("local_fallbacks moved to %v on an internal request — loop guard broken", fb)
	}
}

// cache=only answers strictly from the sweep LRU: 404 cold, the exact
// warm body once populated, never a compute.
func TestSweepCacheOnly(t *testing.T) {
	_, ts := newTestServer(t)
	get := ts.URL + "/v1/sweep?matrix=DW&formats=CSR,ELL&partitions=8,16"

	if code, body, _ := fetch(t, "GET", get+"&cache=only", "", "", nil); code != http.StatusNotFound {
		t.Fatalf("cold cache=only: %d %s, want 404", code, body)
	}
	if code, _, _ := fetch(t, "GET", get, "", "", nil); code != http.StatusOK {
		t.Fatalf("compute sweep failed: %d", code)
	}
	_, want, _ := fetch(t, "GET", get, "", "", nil) // warm body
	code, got, _ := fetch(t, "GET", get+"&cache=only", "", "", nil)
	if code != http.StatusOK {
		t.Fatalf("warm cache=only: %d", code)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("cache=only body differs from the warm sweep body")
	}
	code, colGot, hdr := fetch(t, "GET", get+"&cache=only", wire.ContentType, "", nil)
	if code != http.StatusOK || hdr.Get(headerCached) != "true" {
		t.Fatalf("columnar cache=only: %d cached=%q", code, hdr.Get(headerCached))
	}
	if _, err := wire.Decode(colGot); err != nil {
		t.Fatalf("columnar cache=only body: %v", err)
	}
	if code, _, _ := fetch(t, "GET", get+"&cache=sometimes", "", "", nil); code != http.StatusBadRequest {
		t.Fatalf("cache=sometimes: %d, want 400", code)
	}
}

// GET /v1/advise with the columnar Accept returns the ranked result
// rows as a slab with the verdict in headers, matching the JSON
// envelope's ranking exactly.
func TestAdviseColumnar(t *testing.T) {
	_, ts := newTestServer(t)
	url := ts.URL + "/v1/advise?matrix=DW&p=8"

	code, body := doJSON(t, "GET", url, nil)
	if code != http.StatusOK {
		t.Fatalf("advise JSON: %d", code)
	}
	var ranking []string
	for _, v := range body["ranking"].([]any) {
		ranking = append(ranking, v.(string))
	}

	code, raw, hdr := fetch(t, "GET", url, wire.ContentType, "", nil)
	if code != http.StatusOK {
		t.Fatalf("advise columnar: %d %s", code, raw)
	}
	rows, err := wire.Decode(raw)
	if err != nil {
		t.Fatalf("decode advise slab: %v", err)
	}
	if len(rows) != len(ranking) {
		t.Fatalf("%d rows, want %d (one per ranked format)", len(rows), len(ranking))
	}
	for i, r := range rows {
		if r.Format.String() != ranking[i] {
			t.Fatalf("row %d is %s, ranking says %s — slab must be in ranked order", i, r.Format, ranking[i])
		}
	}
	if got, want := hdr.Get(headerAdviseFormat), body["format"].(string); got != want {
		t.Fatalf("%s = %q, JSON format %q", headerAdviseFormat, got, want)
	}
	if got, want := hdr.Get(headerAdviseRanking), strings.Join(ranking, ","); got != want {
		t.Fatalf("%s = %q, want %q", headerAdviseRanking, got, want)
	}
	if hdr.Get(headerAdviseClass) == "" || hdr.Get(headerCached) != "true" {
		t.Fatalf("missing advise headers: class=%q cached=%q", hdr.Get(headerAdviseClass), hdr.Get(headerCached))
	}
	if hdr.Get(headerRows) == "" {
		t.Fatal("missing rows header")
	}
}
