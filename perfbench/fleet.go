package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"copernicus/internal/backend"
	"copernicus/internal/cluster"
	"copernicus/internal/core"
	"copernicus/internal/formats"
	"copernicus/internal/scenario"
	"copernicus/internal/service"
	"copernicus/internal/wire"
	"copernicus/internal/workloads"
)

// fleet_cold drives a coordinator over two workers, all at serveScale,
// open-loop at lo and hi and on the max_rps ladder. Every request is a
// columnar sweep with its own jacobi:N kernel, so plans are warm on the
// workers but no result is cached. An operation is a request; the
// metrics map as on serve_warm.
var fleetDef = workloadDef{
	name:     "fleet_cold",
	why:      "plans are warm but results are not, so ring dispatch, worker round trips and columnar decode dominate",
	stresses: []string{"cluster", "service", "wire", "core", "hlsim", "backend"},
	bypasses: []string{"mtx", "matrix"},
	setup:    setupFleet,
}

// fleetLoad fixes fleet_cold's rates and p99 limit (requests/s, ms). On
// a quiet 2-CPU Xeon host max_rps is about 2400; the rates sit well
// below it for the reason given at serveLoad.
var fleetLoad = openLoad{lo: 200, hi: 600, limitMs: 25}

// fleetKinds and fleetPs are each request's sweep points.
var (
	fleetKinds = []formats.Kind{formats.CSR, formats.ELL}
	fleetPs    = []int{8, 16}
)

// fleetKeys is how many distinct jacobi:N kernels the requests cycle
// through: far more keys than the result caches hold.
const fleetKeys = 4000

// fleetSampleEvery picks the responses compared with a single-node
// answer.
const fleetSampleEvery = 16

type fleetBench struct {
	workers []*server
	coord   *server
	co      *cluster.Coordinator
	client  *http.Client
	ids     []string
	offset  uint64 // seeded start of the jacobi:N sequence
	ref     *core.Engine
}

func setupFleet(ctx context.Context, seed uint64) (bench, error) {
	b := &fleetBench{client: newClient(), ref: core.New(), offset: seed * 7919 % fleetKeys}
	var addrs []string
	for i := 0; i < 2; i++ {
		w, err := startServer(service.New(service.Options{Scale: serveScale}))
		if err != nil {
			b.close()
			return nil, err
		}
		b.workers = append(b.workers, w)
		addrs = append(addrs, w.addr)
	}
	co, err := cluster.New(cluster.Config{Workers: addrs})
	if err != nil {
		b.close()
		return nil, err
	}
	b.co = co
	if b.coord, err = startServer(service.New(service.Options{Scale: serveScale, Cluster: co})); err != nil {
		b.close()
		return nil, err
	}
	// Requests rotate over every built-in SuiteSparse surrogate, in a
	// seeded order.
	b.ids = suiteSparseIDs(b.coord.svc)
	rand.New(rand.NewSource(int64(seed))).Shuffle(len(b.ids), func(i, j int) { b.ids[i], b.ids[j] = b.ids[j], b.ids[i] })
	// Warm every worker's plans for every rotated matrix: any worker may
	// own a group, since the ring key includes the kernel.
	for _, w := range b.workers {
		for _, id := range b.ids {
			req := httptest.NewRequest("GET", "/v1/sweep?matrix="+id+"&formats=CSR,ELL&partitions=8,16", nil)
			if rec := serveDirect(w.svc.Handler(), req); rec.Code != http.StatusOK {
				b.close()
				return nil, fmt.Errorf("warm worker %s: status %d", id, rec.Code)
			}
		}
	}
	return b, nil
}

func (b *fleetBench) close() {
	b.client.CloseIdleConnections()
	if b.coord != nil {
		b.coord.close() // also closes the coordinator's prober
	} else if b.co != nil {
		b.co.Close()
	}
	for _, w := range b.workers {
		w.close()
	}
}

// request returns request seq's matrix and kernel.
func (b *fleetBench) request(seq uint64) (id, kernel string) {
	return b.ids[seq%uint64(len(b.ids))], fmt.Sprintf("jacobi:%d", 2+(b.offset+seq)%fleetKeys)
}

func (b *fleetBench) measure(ctx context.Context, d time.Duration, tr *tracer) (*outcome, error) {
	out := &outcome{}
	var mu sync.Mutex
	samples := map[uint64][]byte{}
	send := func(seq uint64) bool {
		id, kernel := b.request(seq)
		body := fmt.Sprintf(`{"matrix": %q, "formats": ["CSR", "ELL"], "partitions": [8, 16], "kernel": %q}`, id, kernel)
		req, _ := http.NewRequest("POST", b.coord.url+"/v1/sweep", strings.NewReader(body))
		req.Header.Set("Accept", wire.ContentType)
		root := tr.op("fleet.request")
		sp := tr.begin(root, "service", "HTTP sweep_cold_col")
		status, slab, err := do(b.client, req)
		tr.end(sp)
		tr.end(root)
		ok := err == nil && status == http.StatusOK
		mu.Lock()
		defer mu.Unlock()
		if !ok {
			if err == nil {
				err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(slab))
			}
			out.fail("%s %s: %v", id, kernel, err)
		} else if seq%fleetSampleEvery == 0 {
			samples[seq] = slab
		}
		return ok
	}
	st0, err := readStats(b.coord.svc)
	if err != nil {
		return nil, err
	}
	run, err := fleetLoad.drive(ctx, d, out, send)
	if err != nil {
		return nil, err
	}
	for seq, slab := range samples {
		if err := b.checkSingleNode(seq, slab); err != nil {
			out.fail("%v", err)
		}
	}
	out.report = append(out.report, metric{"checked_single_node", "count", float64(len(samples))})
	if tr != nil {
		b.replay(tr)
		st1, err := readStats(b.coord.svc)
		if err != nil {
			return nil, err
		}
		c0, c1 := st0.Cluster, st1.Cluster
		if c0 == nil || c1 == nil {
			return nil, fmt.Errorf("coordinator stats carry no cluster section")
		}
		hits := float64(c1.PeerHits - c0.PeerHits)
		spans := tr.snapshot()
		self := selfTimes(spans)
		us := func(name string) float64 {
			ns, n := selfByName(spans, self, name)
			return float64(ns) / 1e3 / float64(max(n, 1))
		}
		out.layers = append(out.layers,
			metric{"cluster.dispatch_us", "us", us("cluster.Executor.ExecuteGroup")},
			metric{"cluster.peer_hit_ratio", "ratio", hits / max(hits+float64(c1.PeerMisses-c0.PeerMisses), 1)},
			metric{"cluster.redispatched", "count", float64(c1.Redispatched - c0.Redispatched)},
			metric{"cluster.local_fallbacks", "count", float64(c1.LocalFallback - c0.LocalFallback)},
			metric{"service.worker_group_us", "us", us("service.worker.sweep")},
			metric{"wire.decode_us", "us", us("wire.Decode")},
			metric{"runtime.gc_cpu_frac", "ratio", run.gcFrac},
			metric{"driver.lag_p99_ms", "ms", run.hi.lagP99},
		)
	}
	return out, nil
}

// checkSingleNode compares a coordinator answer with the same sweep run
// on one engine.
func (b *fleetBench) checkSingleNode(seq uint64, slab []byte) error {
	id, kernel := b.request(seq)
	_, m, ok := b.coord.svc.Registry().Lookup(id)
	if !ok {
		return fmt.Errorf("check %s: not registered", id)
	}
	sc, err := scenario.Parse(kernel)
	if err != nil {
		return err
	}
	var rs []core.Result
	err = b.ref.SweepStreamExecWith(context.Background(), b.ref.LocalExecutor(nil), []workloads.Workload{{ID: id, M: m}},
		[]scenario.Spec{sc}, fleetKinds, fleetPs, func(r core.Result) error {
			rs = append(rs, r)
			return nil
		})
	if err != nil {
		return fmt.Errorf("check %s %s: %w", id, kernel, err)
	}
	if !bytes.Equal(wire.Encode(rs), slab) {
		return fmt.Errorf("check %s %s: fleet answer differs from a single node", id, kernel)
	}
	return nil
}

// replay calls the cluster executor directly for fresh groups, then asks
// a worker's handler for a group the way the coordinator does and
// decodes its slab, each call in a span.
func (b *fleetBench) replay(tr *tracer) {
	exec := b.co.Executor("analytic", 0, b.coord.svc.Engine().LocalExecutor(backend.Analytic{}))
	for i := 0; i < 32; i++ {
		root := tr.op("fleet.replay")
		id := b.ids[i%len(b.ids)]
		_, m, _ := b.coord.svc.Registry().Lookup(id)
		// Kernels past the load's range (and below the service's cap of
		// 4096 iterations) keep these groups cold.
		n := fleetKeys + 2 + i
		sc := scenario.Spec{Kernel: scenario.Jacobi, N: n}
		tr.do(root, "cluster", "cluster.Executor.ExecuteGroup", func() {
			_, _ = exec.ExecuteGroup(context.Background(), workloads.Workload{ID: id, M: m}, sc, fleetPs[i%2], fleetKinds)
		})
		q := fmt.Sprintf("/v1/sweep?matrix=%s&formats=CSR,ELL&partitions=%d&backend=analytic&kernel=jacobi:%d", id, fleetPs[i%2], n+40)
		req := httptest.NewRequest("GET", q, nil)
		req.Header.Set("Accept", wire.ContentType)
		req.Header.Set(cluster.InternalHeader, "1")
		var rec *httptest.ResponseRecorder
		tr.do(root, "service", "service.worker.sweep", func() { rec = serveDirect(b.workers[i%2].svc.Handler(), req) })
		slab := rec.Body.Bytes()
		tr.do(root, "wire", "wire.Decode", func() { _, _ = wire.Decode(slab) })
		tr.end(root)
	}
}
