package hlsim

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"copernicus/internal/faults"
	"copernicus/internal/formats"
	"copernicus/internal/matrix"
	"copernicus/internal/resilience"
)

// Plan is an encode-once streaming plan: one matrix partitioned at one
// partition size, with each format's encodings, cycle costs and
// decode-and-verify cross-check computed at most once and cached. It is
// the package's only entry to the model: a one-shot query builds a plan
// and drops it, while callers that stream the same matrix repeatedly —
// iterative kernels, characterization sweeps — hold one so each SpMV
// pays only the per-iteration dot work.
//
// The plan is sparse-native end to end: the partitioning stores compact
// per-tile CSR spans (O(nnz) resident, never p² buffers), each format's
// encoder walks the sparse tile in O(nnz + p), and the reference SpMV's
// rows are gathered from those spans on first use.
//
// Each format warms up in three lazy phases — encode, decode-verify and
// exec build — each behind its own cancellation-safe once-guard, so
// different formats warm concurrently and a warm run takes no lock. All
// three phases fan their tiles out over a bounded encode pool
// (SetWorkers, SetEncodePool) with deterministic, tile-ordered results:
// aggregation is serial in tile order, and verify reports the
// lowest-index failure, as a serial walk would.
//
// A Plan is safe for concurrent use.
type Plan struct {
	cfg Config
	m   *matrix.CSR
	p   int
	pt  *matrix.Partitioning

	// encPool, when set, lends helper goroutines to tile-parallel warmup;
	// nil encodes serially. The engine shares one pool across every plan
	// it caches so total encode parallelism stays bounded by its worker
	// count even when many sweep groups warm plans at once.
	encPool atomic.Pointer[EncodePool]

	// xpool, when set, overrides the process-shared execPool used by the
	// tile-parallel RunExecInto path; nil uses the shared default. Only
	// in-package tests set it, to observe a private pool's accounting.
	xpool atomic.Pointer[execPool]

	// spansOnce/spans hold the per-grid-block-row ownership table of the
	// exec path: each span owns a contiguous y range and tile range, so
	// parallel workers never write the same output row (see exec.go).
	spansOnce sync.Once
	spans     []execSpan

	// CSR-native functional view of the non-zero tiles, built lazily by
	// ensureRows on the first multiplication (cycle-model-only paths —
	// Trace, Schedule — never pay for it): each row spans
	// cols/vals[row.start:row.end]. Iterating these reproduces the exact
	// accumulation order of the per-tile pipeline (ascending local row,
	// ascending column), so results are bit-identical to the pre-plan path.
	rowsOnce  sync.Once
	rows      []planRow
	cols      []int32
	vals      []float64
	rowsBytes atomic.Int64

	ptBytes int64
	fmts    [formats.NumKinds]planSlot
}

// planSlot is one format's cached state, one phase guard per warm-up
// phase. enc and ver publish the same *planFormat: enc once every tile
// is encoded and priced, ver once the encodings have been cross-checked.
// exec publishes the resident re-encodings RunExecInto walks.
type planSlot struct {
	enc, ver phase[planFormat]
	exec     phase[planExec]
}

// planFormat caches everything format-dependent: per-tile cycle costs,
// the aggregated Result totals, and the outcome of the one-time
// decode-and-verify cross-check (run on first functional use, not for
// cycle-model-only consumers like Trace and Schedule). tiles and agg are
// immutable once published; encs is consumed under the verify guard.
type planFormat struct {
	tiles []TileResult
	agg   formatAgg
	// encs holds the encodings from format() until verify consumes them
	// (freed afterwards); a plan that is only traced or scheduled keeps
	// them until the plan itself is dropped.
	encs []formats.Encoded
	// sticky is the first model or decode/cross-check failure, published
	// atomically so format() readers can observe it without locking.
	sticky atomic.Pointer[error]
}

func (pf *planFormat) err() error { return loadErr(&pf.sticky) }

// formatAgg carries the Result totals aggregated over all non-zero tiles.
type formatAgg struct {
	MemCycles         uint64
	ComputeCycles     uint64
	DecompCycles      uint64
	PipelinedCycles   uint64
	IdleComputeCycles uint64
	StallMemCycles    uint64
	DotRows           uint64
	NNZ               uint64
	Footprint         formats.Footprint
	sumBalance        float64
}

// planRow is one non-zero tile row: its global row index and the span of
// its entries in the plan's cols/vals arrays.
type planRow struct {
	gi         int
	start, end int
}

// planEncodeHook, when non-nil, is called at the start of every format
// encode — a test seam proving that different formats warm up
// concurrently rather than serializing on a shared lock.
var planEncodeHook func(formats.Kind)

// NewPlan partitions m once at partition size p under the given hardware
// configuration. Encodings are produced lazily, once per format, on first
// use.
func NewPlan(cfg Config, m *matrix.CSR, p int) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pl := &Plan{
		cfg: cfg,
		m:   m,
		p:   p,
		pt:  matrix.Partition(m, p),
	}
	pl.ptBytes = pl.pt.MemoryBytes()
	return pl, nil
}

// Config returns the plan's hardware configuration.
func (pl *Plan) Config() Config { return pl.cfg }

// Matrix returns the planned matrix.
func (pl *Plan) Matrix() *matrix.CSR { return pl.m }

// P returns the partition size.
func (pl *Plan) P() int { return pl.p }

// EncodePool is a token bucket lending helper goroutines to the
// tile-parallel warmup of every plan that shares it. A format encode
// borrows helpers only when tokens are immediately free and always does
// work on the calling goroutine too, so a pool shared across concurrent
// sweep groups bounds *total* extra encode goroutines at the pool size
// instead of multiplying per plan — and a drained pool degrades to the
// plain serial encode.
type EncodePool struct {
	tokens chan struct{}
}

// NewEncodePool returns a pool lending up to `helpers` concurrent helper
// goroutines (0 means no parallelism beyond the caller).
func NewEncodePool(helpers int) *EncodePool {
	if helpers < 0 {
		helpers = 0
	}
	return &EncodePool{tokens: make(chan struct{}, helpers)}
}

// SetWorkers bounds the tile-parallel warmup: encode, decode-verify and
// exec build fan tiles out over up to n goroutines, caller included
// (aggregation stays serial and tile-ordered, and verify reports the
// lowest-index failure, so results are identical to a serial warmup).
// n <= 1 warms serially; 0 is treated as GOMAXPROCS. The pool created
// here is private to this plan; use SetEncodePool to share one bound
// across many plans.
func (pl *Plan) SetWorkers(n int) {
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	pl.SetEncodePool(NewEncodePool(n - 1))
}

// SetEncodePool installs a (possibly shared) helper pool for
// tile-parallel warmup; nil restores serial encoding.
func (pl *Plan) SetEncodePool(p *EncodePool) { pl.encPool.Store(p) }

// MemoryBytes returns the plan's resident footprint: the sparse tile
// spans, the functional rows/cols/vals arrays (once built), and every
// cached per-format cycle table. Because tiles are CSR-native this is
// O(nnz + tiles·p + formats·tiles), not O(tiles·p²).
func (pl *Plan) MemoryBytes() int64 {
	b := pl.ptBytes + pl.rowsBytes.Load()
	for i := range pl.fmts {
		if pf := pl.fmts[i].enc.val.Load(); pf != nil {
			b += int64(len(pf.tiles)) * int64(unsafe.Sizeof(TileResult{}))
		}
		if ex := pl.fmts[i].exec.val.Load(); ex != nil {
			b += ex.bytes
		}
	}
	return b
}

// ensureRows copies the CSR-native per-tile row spans into the plan's
// functional arrays, once per plan, on the first multiplication — a pure
// O(nnz) copy out of the sparse tiles (the old dense p²-per-tile rescan
// is gone).
func (pl *Plan) ensureRows() {
	pl.rowsOnce.Do(func() {
		nnz := 0
		nzRows := 0
		for _, t := range pl.pt.Tiles {
			nnz += t.NNZ()
			nzRows += t.NonZeroRows()
		}
		rows := make([]planRow, 0, nzRows)
		cols := make([]int32, 0, nnz)
		vals := make([]float64, 0, nnz)
		for _, t := range pl.pt.Tiles {
			base := int32(t.Col)
			for i := 0; i < t.P; i++ {
				gi := t.Row + i
				if gi >= pl.m.Rows {
					break
				}
				tc, tv := t.RowView(i)
				if len(tc) == 0 {
					continue
				}
				start := len(cols)
				for _, c := range tc {
					cols = append(cols, base+c)
				}
				vals = append(vals, tv...)
				rows = append(rows, planRow{gi: gi, start: start, end: len(cols)})
			}
		}
		pl.rows, pl.cols, pl.vals = rows, cols, vals
		pl.rowsBytes.Store(int64(len(rows))*int64(unsafe.Sizeof(planRow{})) +
			int64(len(cols))*4 + int64(len(vals))*8)
	})
}

// format returns format k's encoded and priced state, built at most once
// per (plan, format) under the slot's enc guard, without the decode
// cross-check (see verify). A Kind outside the implemented range is an
// ErrUnknownFormat error, not a panic, so it reaches engine sweeps and
// services as a client fault. A sticky model error is returned with the
// state. A canceled or faulted encode returns its error and leaves the
// slot idle, so the next caller encodes from scratch.
func (pl *Plan) format(ctx context.Context, k formats.Kind) (*planFormat, error) {
	if k < 0 || int(k) >= formats.NumKinds {
		return nil, fmt.Errorf("%w: kind %d", ErrUnknownFormat, int(k))
	}
	pf, err := pl.fmts[k].enc.do(ctx, func() (*planFormat, error) { return pl.encodeFormat(ctx, k) })
	if err != nil {
		return nil, err
	}
	return pf, pf.err()
}

// Tile-parallel warmup tuning: chunks of tiles are claimed atomically so
// stragglers balance, and tiny tile counts stay serial.
const (
	encodeChunk      = 8
	minParallelTiles = 2 * encodeChunk
)

// encodeFormat encodes and prices every non-zero tile in format k into
// index-addressed slots (eachTile), then aggregates serially in tile
// order, so the totals, the float balance sum included, are
// bit-identical to a serial encode. A canceled or faulted encode returns
// the error and its partial planFormat is discarded, never published.
func (pl *Plan) encodeFormat(ctx context.Context, k formats.Kind) (*planFormat, error) {
	if planEncodeHook != nil {
		planEncodeHook(k)
	}
	tiles := pl.pt.Tiles
	pf := &planFormat{tiles: make([]TileResult, len(tiles)), encs: make([]formats.Encoded, len(tiles))}
	err := pl.eachTile(ctx, ptEncodeTile, func(lo, hi int) bool {
		for i := lo; i < hi; i++ {
			pf.encs[i] = formats.Encode(k, tiles[i])
			tr, err := runTile(pl.cfg, pf.encs[i])
			if err != nil {
				// Unreachable for in-range Kinds (format guards the range),
				// but a model gap must surface as the slot's sticky error.
				storeFirst(&pf.sticky, err)
			}
			pf.tiles[i] = tr
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if pf.err() != nil {
		return pf, nil
	}
	for i := range pf.tiles {
		tr := &pf.tiles[i]
		pf.agg.MemCycles += uint64(tr.MemCycles)
		pf.agg.ComputeCycles += uint64(tr.ComputeCycles)
		pf.agg.DecompCycles += uint64(tr.DecompCycles)
		pf.agg.PipelinedCycles += uint64(max(tr.MemCycles, tr.ComputeCycles))
		if tr.MemCycles > tr.ComputeCycles {
			pf.agg.IdleComputeCycles += uint64(tr.MemCycles - tr.ComputeCycles)
		} else {
			pf.agg.StallMemCycles += uint64(tr.ComputeCycles - tr.MemCycles)
		}
		pf.agg.DotRows += uint64(tr.DotRows)
		pf.agg.NNZ += uint64(pf.encs[i].Stats().NNZ)
		pf.agg.Footprint.UsefulBytes += tr.Footprint.UsefulBytes
		pf.agg.Footprint.MetaBytes += tr.Footprint.MetaBytes
		pf.agg.Footprint.ValueLaneBytes += tr.Footprint.ValueLaneBytes
		pf.agg.Footprint.IndexLaneBytes += tr.Footprint.IndexLaneBytes
		pf.agg.sumBalance += tr.Balance()
	}
	return pf, nil
}

// eachTile hands every tile index to fn exactly once, in chunks [lo, hi)
// of up to encodeChunk tiles, on the calling goroutine plus however many
// encode-pool helpers are free right now (none without a pool or below
// minParallelTiles tiles). Participants claim chunks in ascending order
// from a shared counter, so the helper count changes only wall time,
// provided fn writes only state addressed by its tile indices. fn
// returns false to report a failure in its chunk: from then on no
// participant claims a chunk starting above it, while every chunk below
// it still runs, so a caller that keeps the lowest-index failure gets
// the one a serial walk stops at. Each participant checks ctx, and
// whether another has faulted, between chunks and hits point once per
// tile before handing a chunk to fn; a panic in fn is recovered as a
// *resilience.PanicError named after point. eachTile returns ctx.Err(),
// else the first fault, else nil, and every borrowed pool token is
// returned either way. Sharing one pool across plans bounds the extra
// goroutines of concurrent warm-ups by its size.
func (pl *Plan) eachTile(ctx context.Context, point *faults.P, fn func(lo, hi int) bool) error {
	n := len(pl.pt.Tiles)
	var next, cut atomic.Int64 // cut: the lowest chunk start fn failed in
	cut.Store(int64(n))
	var fail atomic.Pointer[error]
	work := func() {
		defer func() {
			if pe := resilience.Recovered(point.Name(), recover()); pe != nil {
				storeFirst(&fail, pe)
			}
		}()
		for ctx.Err() == nil && fail.Load() == nil {
			lo := next.Add(encodeChunk) - encodeChunk
			if lo >= int64(n) || lo > cut.Load() {
				return // claims only ascend: nothing left for this participant
			}
			hi := min(int(lo)+encodeChunk, n)
			for i := int(lo); i < hi; i++ {
				if err := point.Hit(); err != nil {
					storeFirst(&fail, err)
					return
				}
			}
			if !fn(int(lo), hi) {
				for c := cut.Load(); lo < c && !cut.CompareAndSwap(c, lo); c = cut.Load() {
				}
			}
		}
	}
	var wg sync.WaitGroup
	if pool := pl.encPool.Load(); pool != nil && n >= minParallelTiles {
	borrow:
		for h := min(cap(pool.tokens), n/encodeChunk-1); h > 0; h-- {
			select {
			case pool.tokens <- struct{}{}: // a helper slot is free now
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { <-pool.tokens }()
					work()
				}()
			default:
				break borrow // pool busy: the caller works alone
			}
		}
	}
	work()
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return loadErr(&fail)
}

// verify returns format k's state after the decode-and-verify
// cross-check, run at most once per (plan, format) under the slot's ver
// guard: every encoding must decode back to its tile, so stream
// corruption surfaces as a sticky error here rather than as a silently
// wrong SpMV. Functional entry points call it; cycle-model-only
// consumers (Trace, Schedule) call format alone. A canceled or faulted
// cross-check leaves the encodings unconsumed and the slot unverified,
// so the next caller re-runs it in full.
func (pl *Plan) verify(ctx context.Context, k formats.Kind) (*planFormat, error) {
	pf, err := pl.format(ctx, k)
	if err != nil {
		return pf, err
	}
	vf, err := pl.fmts[k].ver.do(ctx, func() (*planFormat, error) { return pf, pl.runVerify(ctx, k, pf) })
	if err != nil {
		return nil, err
	}
	return vf, vf.err()
}

// verifyBuilders lends each verify participant one reusable decode
// builder per chunk, so a cross-check pass allocates per worker, not per
// tile.
var verifyBuilders = sync.Pool{New: func() any { return new(matrix.TileBuilder) }}

// runVerify cross-checks every tile's encoding, fanned out over
// eachTile. A nil return means the pass completed — success or a sticky
// decode, cross-check or model error published in pf — and the
// encodings were consumed. Of several failing tiles the lowest-index one
// is published, so the sticky error is the serial walk's at every pool
// size. A non-nil return (cancellation, injected fault, or a panic
// recovered as *resilience.PanicError) leaves the encodings unconsumed
// and the slot unverified, so a retry re-runs the cross-check in full.
func (pl *Plan) runVerify(ctx context.Context, k formats.Kind, pf *planFormat) error {
	tiles, encs := pl.pt.Tiles, pf.encs
	var first lowestFailure
	err := pl.eachTile(ctx, ptVerifyTile, func(lo, hi int) bool {
		b := verifyBuilders.Get().(*matrix.TileBuilder)
		defer verifyBuilders.Put(b)
		for i := lo; i < hi; i++ {
			if err := verifyTile(k, tiles[i], encs[i], b); err != nil {
				first.record(i, err)
				return false
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	storeFirst(&pf.sticky, first.err)
	pf.encs = nil // encodings are not needed once cross-checked
	return nil
}

// lowestFailure keeps the lowest-index failure that concurrent verify
// participants report.
type lowestFailure struct {
	mu  sync.Mutex
	at  int
	err error
}

func (f *lowestFailure) record(i int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err == nil || i < f.at {
		f.at, f.err = i, err
	}
}

// verifyTile decodes enc through the reusable builder b and cross-checks
// the result against the original tile.
func verifyTile(k formats.Kind, tile *matrix.Tile, enc formats.Encoded, b *matrix.TileBuilder) error {
	dec, err := enc.DecodeInto(b)
	if err != nil {
		return fmt.Errorf("hlsim: tile (%d,%d): %w", tile.Row, tile.Col, err)
	}
	return crossCheck(k, tile, dec)
}

// crossCheck compares a decoded tile against the original, sparse row by
// sparse row — O(nnz), with the same NaN-tolerant exact equality as the
// old dense compare: NaN entries round-trip as NaN (the mtx loader admits
// them), which must not read as corruption.
func crossCheck(k formats.Kind, tile, dec *matrix.Tile) error {
	for i := 0; i < tile.P; i++ {
		tc, tv := tile.RowView(i)
		dc, dv := dec.RowView(i)
		if len(tc) != len(dc) {
			return fmt.Errorf("hlsim: tile (%d,%d): %v decode mismatch at local row %d: %d non-zeros != %d",
				tile.Row, tile.Col, k, i, len(dc), len(tc))
		}
		for x := range tc {
			if tc[x] != dc[x] {
				return fmt.Errorf("hlsim: tile (%d,%d): %v decode mismatch at local row %d: column %d != %d",
					tile.Row, tile.Col, k, i, dc[x], tc[x])
			}
			if dv[x] != tv[x] && !(math.IsNaN(dv[x]) && math.IsNaN(tv[x])) {
				return fmt.Errorf("hlsim: tile (%d,%d): %v decode mismatch at local (%d,%d): %g != %g",
					tile.Row, tile.Col, k, i, tc[x], dv[x], tv[x])
			}
		}
	}
	return nil
}

// slicesOverlap reports whether the two slices' element ranges share any
// memory (compared by address range, so offset overlaps are caught too).
func slicesOverlap(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	pa := uintptr(unsafe.Pointer(unsafe.SliceData(a)))
	pb := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	const w = unsafe.Sizeof(float64(0))
	return pa < pb+uintptr(len(b))*w && pb < pa+uintptr(len(a))*w
}

// spmv accumulates y += A·x through the plan's tile rows, reproducing the
// per-tile-row accumulation order of the modelled pipeline. Like the
// software reference CSR.MulVec, it multiplies only stored non-zeros: a
// structural zero never meets a non-finite operand entry (0·Inf, 0·NaN),
// exactly as in the golden model the output is verified against.
func (pl *Plan) spmv(x []float64, y []float64) {
	pl.ensureRows()
	for _, r := range pl.rows {
		s := 0.0
		for k := r.start; k < r.end; k++ {
			s += pl.vals[k] * x[pl.cols[k]]
		}
		y[r.gi] += s
	}
}

// Run streams every non-zero partition through the modelled accelerator
// in format k, multiplying by x. Cycle totals come from the cached
// per-format aggregates; only the functional dot work is paid per call.
func (pl *Plan) Run(k formats.Kind, x []float64) (*Result, error) {
	r := new(Result)
	if err := pl.RunInto(k, x, r); err != nil {
		return nil, err
	}
	return r, nil
}

// RunInto is Run writing into a caller-held Result, reusing r.Y when its
// capacity suffices: the warm path performs zero allocations, so solver
// loops and sweep services can stream SpMVs with no GC traffic. The
// previous contents of r are overwritten. The input x must not alias the
// reused r.Y (the output is cleared before accumulation, which would
// zero the input); feeding an iteration's output back in requires a
// second Result, as kernels.Accelerator's double buffering does — the
// aliasing is detected and rejected.
func (pl *Plan) RunInto(k formats.Kind, x []float64, r *Result) error {
	return pl.RunIntoContext(context.Background(), k, x, r)
}

// RunIntoContext is RunInto under a context: a cancellation aborts the
// one-time warmup (encode and decode-verify) between tile chunks and
// returns ctx.Err() without poisoning the plan's per-format slots — a
// later run of the same format redoes the aborted phase cleanly. Once
// the format's encode and verify are cached, a call performs zero
// allocations, takes no lock and checks no context (the remaining work
// is pure dot products).
func (pl *Plan) RunIntoContext(ctx context.Context, k formats.Kind, x []float64, r *Result) error {
	if err := pl.begin(ctx, k, x, r, "RunInto"); err != nil {
		return err
	}
	clear(r.Y)
	pl.spmv(x, r.Y)
	return nil
}

// begin is the prologue shared by RunIntoContext and RunExecIntoContext
// (who names the caller in errors): it checks x's length, verifies
// format k, sizes r.Y to the row count — reusing its storage when the
// capacity suffices, after rejecting an x that overlaps it — and fills
// r's model fields from the cached aggregates. r.Y's contents are left
// to the caller.
func (pl *Plan) begin(ctx context.Context, k formats.Kind, x []float64, r *Result, who string) error {
	if len(x) != pl.m.Cols {
		return fmt.Errorf("hlsim: vector length %d for %d-column matrix", len(x), pl.m.Cols)
	}
	pf, err := pl.verify(ctx, k)
	if err != nil {
		return err
	}
	y := r.Y
	if cap(y) < pl.m.Rows {
		y = make([]float64, pl.m.Rows)
	} else if slicesOverlap(x, y[:cap(y)]) {
		return fmt.Errorf("hlsim: %s input x overlaps the reused r.Y buffer; use a second Result to feed an output back in", who)
	}
	*r = Result{
		Kind:              k,
		P:                 pl.p,
		Y:                 y[:pl.m.Rows],
		NonZeroTiles:      len(pl.pt.Tiles),
		TotalTiles:        pl.pt.TotalTiles,
		MemCycles:         pf.agg.MemCycles,
		ComputeCycles:     pf.agg.ComputeCycles,
		DecompCycles:      pf.agg.DecompCycles,
		PipelinedCycles:   pf.agg.PipelinedCycles,
		IdleComputeCycles: pf.agg.IdleComputeCycles,
		StallMemCycles:    pf.agg.StallMemCycles,
		DotRows:           pf.agg.DotRows,
		NNZ:               pf.agg.NNZ,
		Footprint:         pf.agg.Footprint,
		sumBalance:        pf.agg.sumBalance,
		cfg:               pl.cfg,
	}
	return nil
}

// RunParallel streams the non-zero partitions across `lanes` independent
// pipeline instances using the cached per-tile costs: round-robin
// distribution, the static schedule a streaming DMA would use. With
// lanes=1 it degenerates to Run's pipelined total.
func (pl *Plan) RunParallel(k formats.Kind, x []float64, lanes int) (*ParallelResult, error) {
	if lanes < 1 {
		return nil, fmt.Errorf("hlsim: RunParallel with %d lanes", lanes)
	}
	if len(x) != pl.m.Cols {
		return nil, fmt.Errorf("hlsim: vector length %d for %d-column matrix", len(x), pl.m.Cols)
	}
	pf, err := pl.verify(context.Background(), k)
	if err != nil {
		return nil, err
	}
	r := &ParallelResult{
		Kind:         k,
		P:            pl.p,
		Lanes:        lanes,
		Y:            make([]float64, pl.m.Rows),
		LaneCycles:   make([]uint64, lanes),
		NonZeroTiles: len(pl.pt.Tiles),
		cfg:          pl.cfg,
	}
	for i, tr := range pf.tiles {
		r.LaneCycles[i%lanes] += uint64(max(tr.MemCycles, tr.ComputeCycles))
	}
	for _, c := range r.LaneCycles {
		if c > r.TotalCycles {
			r.TotalCycles = c
		}
	}
	pl.spmv(x, r.Y)
	return r, nil
}

// RunSpMM multiplies the planned matrix by the dense operand b
// (m.Cols × cols, row-major) through the modelled pipeline.
func (pl *Plan) RunSpMM(k formats.Kind, b []float64, cols int) (*SpMMResult, error) {
	if cols < 1 {
		return nil, fmt.Errorf("hlsim: RunSpMM with %d columns", cols)
	}
	if len(b) != pl.m.Cols*cols {
		return nil, fmt.Errorf("hlsim: operand is %d values, want %d×%d", len(b), pl.m.Cols, cols)
	}
	pf, err := pl.verify(context.Background(), k)
	if err != nil {
		return nil, err
	}
	r := &SpMMResult{
		Kind: k, P: pl.p, Columns: cols,
		Y:            make([]float64, pl.m.Rows*cols),
		NonZeroTiles: len(pl.pt.Tiles),
		MemCycles:    pf.agg.MemCycles,
		DecompCycles: pf.agg.DecompCycles,
		cfg:          pl.cfg,
	}
	r.ComputeCycles, r.PipelinedCycles = pl.spmmCycles(pf, cols)
	pl.ensureRows()
	for _, row := range pl.rows {
		for kk := row.start; kk < row.end; kk++ {
			v := pl.vals[kk]
			gj := int(pl.cols[kk])
			for c := 0; c < cols; c++ {
				r.Y[row.gi*cols+c] += v * b[gj*cols+c]
			}
		}
	}
	return r, nil
}

// Trace returns the per-partition streaming record in streaming order.
func (pl *Plan) Trace(k formats.Kind) ([]TileTrace, error) {
	pf, err := pl.format(context.Background(), k)
	if err != nil {
		return nil, err
	}
	out := make([]TileTrace, 0, len(pl.pt.Tiles))
	for i, tr := range pf.tiles {
		tile := pl.pt.Tiles[i]
		tt := TileTrace{
			Row: tile.Row, Col: tile.Col, NNZ: tile.NNZ(),
			MemCycles:     tr.MemCycles,
			DecompCycles:  tr.DecompCycles,
			ComputeCycles: tr.ComputeCycles,
			Pipelined:     max(tr.MemCycles, tr.ComputeCycles),
			MemoryBound:   tr.MemCycles > tr.ComputeCycles,
		}
		if tt.MemoryBound {
			tt.Bubble = tr.MemCycles - tr.ComputeCycles
		} else {
			tt.Bubble = tr.ComputeCycles - tr.MemCycles
		}
		out = append(out, tt)
	}
	return out, nil
}

// Schedule computes the event-level three-stage pipeline timeline from
// the cached per-tile costs.
func (pl *Plan) Schedule(k formats.Kind) (*Schedule, error) {
	pf, err := pl.format(context.Background(), k)
	if err != nil {
		return nil, err
	}
	s := &Schedule{Kind: k, P: pl.p, Tiles: make([]StageTimes, 0, len(pf.tiles)), cfg: pl.cfg}
	var memFree, compFree, writeFree uint64
	for _, tr := range pf.tiles {
		var st StageTimes
		st.MemStart = memFree
		st.MemEnd = st.MemStart + uint64(tr.MemCycles)
		memFree = st.MemEnd

		st.ComputeStart = max64(st.MemEnd, compFree)
		st.ComputeEnd = st.ComputeStart + uint64(tr.ComputeCycles)
		compFree = st.ComputeEnd

		st.WriteStart = max64(st.ComputeEnd, writeFree)
		st.WriteEnd = st.WriteStart + uint64(pl.cfg.writeCycles(pl.p))
		writeFree = st.WriteEnd

		s.Tiles = append(s.Tiles, st)
	}
	s.Makespan = writeFree
	return s, nil
}
