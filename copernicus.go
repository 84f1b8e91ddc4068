// Package copernicus is a from-scratch Go reproduction of "Copernicus:
// Characterizing the Performance Implications of Compression Formats Used
// in Sparse Workloads" (Asgari et al., IISWC 2021).
//
// The library characterizes how sparse compression formats — CSR, CSC,
// BCSR, COO, DOK, LIL, ELL, DIA, and the ELL-variant extensions SELL,
// ELL+COO and JDS — behave on a streaming SpMV accelerator: how much
// latency their decompression adds (σ), whether they leave the pipeline
// memory- or compute-bound (balance ratio), what throughput and
// memory-bandwidth utilization they reach, and what FPGA resources and
// power their decompressors cost. The accelerator is a deterministic
// cycle-level model of the paper's HLS design (see internal/hlsim and
// DESIGN.md for the substitution rationale); every simulated SpMV is
// functionally verified against a software reference.
//
// Quick start:
//
//	m := copernicus.Random(1024, 0.01, 42)
//	res, err := copernicus.Characterize(m, copernicus.COO, 16)
//	// res.Sigma, res.ThroughputBps, res.BandwidthUtil, res.Synth ...
//
// For format selection on a concrete matrix:
//
//	rec, err := copernicus.NewEngine().Recommend(m, 16, nil, copernicus.BalancedObjective())
//
// To regenerate a paper artifact:
//
//	tab, err := copernicus.RunExperiment(copernicus.NewReportOptions(), "fig4")
//	tab.Render(os.Stdout)
package copernicus

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"

	"copernicus/internal/backend"
	"copernicus/internal/core"
	"copernicus/internal/formats"
	"copernicus/internal/gen"
	"copernicus/internal/hlsim"
	"copernicus/internal/kernels"
	"copernicus/internal/matrix"
	"copernicus/internal/mtx"
	"copernicus/internal/report"
	"copernicus/internal/scenario"
	"copernicus/internal/synth"
	"copernicus/internal/workloads"
)

// Matrix is a sparse matrix in canonical CSR form.
type Matrix = matrix.CSR

// Builder assembles a Matrix from (row, col, value) triplets.
type Builder = matrix.Builder

// Tile is one p×p partition of a matrix, stored as an immutable
// per-tile CSR; all-zero padding past the matrix boundary is implicit.
type Tile = matrix.Tile

// PartitionStats are the Fig. 3 per-partition statistics.
type PartitionStats = matrix.PartitionStats

// NewBuilder returns a Builder for a rows×cols matrix.
func NewBuilder(rows, cols int) *Builder { return matrix.NewBuilder(rows, cols) }

// FromDense builds a Matrix from a row-major dense slice, skipping zeros.
func FromDense(rows, cols int, dense []float64) *Matrix {
	return matrix.FromDense(rows, cols, dense)
}

// Stats computes the Fig. 3 partition statistics at partition size p.
func Stats(m *Matrix, p int) PartitionStats { return matrix.StatsFor(m, p) }

// NewTileFromMatrix extracts the p×p tile of m anchored at (row, col),
// zero-padded past the matrix boundary.
func NewTileFromMatrix(m *Matrix, row, col, p int) *Tile { return matrix.TileAt(m, row, col, p) }

// Format identifies a compression format under study.
type Format = formats.Kind

// The compression formats. Dense is the σ=1 baseline.
const (
	Dense  = formats.Dense
	CSR    = formats.CSR
	CSC    = formats.CSC
	BCSR   = formats.BCSR
	COO    = formats.COO
	DOK    = formats.DOK
	LIL    = formats.LIL
	ELL    = formats.ELL
	DIA    = formats.DIA
	SELL   = formats.SELL
	ELLCOO = formats.ELLCOO
	JDS    = formats.JDS
	SELLCS = formats.SELLCS
)

// CoreFormats returns the paper's measured set (dense + seven sparse
// formats) in figure order.
func CoreFormats() []Format { return formats.Core() }

// SparseFormats returns the seven studied sparse formats.
func SparseFormats() []Format { return formats.Sparse() }

// AllFormats returns every implemented format, extensions included.
func AllFormats() []Format { return formats.All() }

// Encoded is a tile compressed in some format; it can Decode back and
// reports its transfer Footprint and structural Stats.
type Encoded = formats.Encoded

// Encode compresses one tile in the given format.
func Encode(f Format, t *Tile) Encoded { return formats.Encode(f, t) }

// CSRTile is the CSR encoding of one tile. Beyond the Encoded interface
// it exposes the executable kernel pair the bench artifact compares:
// SpMV (the encode-time non-empty-row skip-list walk) and SpMVFullWalk
// (the per-row offset walk it replaced, kept as the bit-identical
// reference).
type CSRTile = formats.CSREnc

// PartitionMatrix partitions m into its p×p tile grid, returning the
// non-empty tiles block-row-major (each Tile records its Row/Col origin
// in the parent matrix).
func PartitionMatrix(m *Matrix, p int) []*Tile { return matrix.Partition(m, p).Tiles }

// Workload generators (§3). All are deterministic in their seed.

// Random returns an n×n matrix with the given density (§3.2 random
// suite).
func Random(n int, density float64, seed uint64) *Matrix { return gen.Random(n, density, seed) }

// Band returns an n×n band matrix of width k (a[i][j] = 0 if |i-j| >
// k/2); width 1 is a diagonal matrix.
func Band(n, width int, seed uint64) *Matrix { return gen.Band(n, width, seed) }

// Diagonal returns an n×n diagonal matrix.
func Diagonal(n int, seed uint64) *Matrix { return gen.Diagonal(n, seed) }

// Stencil2D returns the 5-point finite-difference matrix of a rows×cols
// grid (SPD; scientific-computing workloads).
func Stencil2D(rows, cols int, seed uint64) *Matrix { return gen.Stencil2D(rows, cols, seed) }

// Stencil3D returns the 7-point stencil matrix of an nx×ny×nz grid.
func Stencil3D(nx, ny, nz int, seed uint64) *Matrix { return gen.Stencil3D(nx, ny, nz, seed) }

// ScaleFreeGraph returns a preferential-attachment directed graph
// adjacency matrix (web/social graph workloads).
func ScaleFreeGraph(n, outDegree int, seed uint64) *Matrix {
	return gen.PreferentialAttachment(n, outDegree, seed)
}

// RMATGraph returns a Graph500-parameter Kronecker graph of 2^scale
// vertices.
func RMATGraph(scale, edgeFactor int, seed uint64) *Matrix {
	return gen.Graph500RMAT(scale, edgeFactor, seed)
}

// Circuit returns a circuit-simulation matrix (diagonal + local couplings
// + global nets).
func Circuit(n int, seed uint64) *Matrix { return gen.Circuit(n, seed) }

// PrunedWeights returns a magnitude-pruned neural-network weight matrix
// with the given keep rate (ML workloads).
func PrunedWeights(rows, cols int, keep float64, seed uint64) *Matrix {
	return gen.PrunedWeights(rows, cols, keep, seed)
}

// Characterization engine.

// Engine drives characterizations against a fixed hardware model.
type Engine = core.Engine

// Result is one characterization point (σ, balance, latency, throughput,
// bandwidth utilization, synthesis estimate).
type Result = core.Result

// Objective weights the advisor's metric trade-off.
type Objective = core.Objective

// Recommendation is the advisor's ranked outcome.
type Recommendation = core.Recommendation

// HardwareConfig parameterizes the modelled accelerator.
type HardwareConfig = hlsim.Config

// SynthReport is the resource/power estimate of one decompressor variant.
type SynthReport = synth.Report

// Backend costs characterization points: the analytic HLS cycle model
// (the paper's instrument) or the measured native-CPU backend, which
// times the warm streaming SpMV on the host. Both evaluate the same
// encode-once plans — only the costing differs — so the Engine takes a
// Backend wherever it costs points: LocalExecutor(b) for
// SweepStreamExecWith and SweepGroupsExecWith, and the b argument of
// SweepFormatsKernelWith and RecommendKernelWith. nil selects the
// analytic default, and a canceled context aborts the sweep mid-warmup
// with ctx.Err().
type Backend = backend.Backend

// SweepGroup is one completed (workload, kernel, partition size) group of
// a streaming sweep (Engine.SweepGroupsExecWith): its results in format
// order plus the group's compute wall time. Engine.SweepStreamExecWith
// flattens groups to single results.
type SweepGroup = core.SweepGroup

// BackendMeasurement is one costed evaluation of a (plan, format) point.
type BackendMeasurement = backend.Measurement

// AnalyticBackend returns the analytic cycle-model backend — bit-identical
// to the backend-free entry points.
func AnalyticBackend() Backend { return backend.Analytic{} }

// NativeBackend returns the measured host-CPU backend: min-of-runs wall
// time of the warm tile-parallel SpMV through the format's own
// executable kernel (runs <= 0 selects the default of
// backend.DefaultRuns samples; the fan-out defaults to 1 thread — see
// WithNativeThreads).
func NativeBackend(runs int) Backend { return &backend.Native{Runs: runs} }

// WithNativeThreads sets the SpMV fan-out of a native backend value: each
// measured multiplication spreads its tile block rows over up to threads
// goroutines. Only the native backend has a measured fan-out, and counts
// beyond GOMAXPROCS are rejected — the extra goroutines could only
// time-slice and distort the measurement.
func WithNativeThreads(b Backend, threads int) (Backend, error) {
	nb, ok := b.(*backend.Native)
	if !ok {
		return nil, fmt.Errorf("threads applies only to the native backend, not %q", b.ID())
	}
	if maxT := runtime.GOMAXPROCS(0); threads < 1 || threads > maxT {
		return nil, fmt.Errorf("threads %d outside [1, GOMAXPROCS=%d]", threads, maxT)
	}
	nb.Threads = threads
	return nb, nil
}

// BackendFor resolves a backend by ID ("analytic", "native"); the empty
// string selects the analytic default.
func BackendFor(id string) (Backend, error) { return backend.For(id) }

// BackendIDs lists the selectable backend identifiers.
func BackendIDs() []string { return backend.IDs() }

// KernelSpec selects the kernel a characterization point is costed for:
// one SpMV (the default), a k-column SpMM, or an N-iteration solver loop
// (cg, jacobi, pagerank) whose inner operation is the modelled SpMV. BFS
// resolves its iteration count from the matrix itself (its frontier
// level count). SweepFormatsKernelWith and RecommendKernelWith take one
// spec; SweepStreamExecWith and SweepGroupsExecWith take a list of specs
// as a sweep axis alongside formats and partition sizes.
type KernelSpec = scenario.Spec

// ParseKernel parses a kernel spec string: "spmv", "bfs", or
// "spmm:K"/"cg:N"/"jacobi:N"/"pagerank:N" with a positive parameter.
func ParseKernel(s string) (KernelSpec, error) { return scenario.Parse(s) }

// DefaultKernel returns the spmv spec — the kernel every
// kernel-unaware entry point characterizes.
func DefaultKernel() KernelSpec { return scenario.Default() }

// NewEngine returns an engine with the calibrated default hardware model
// (250 MHz, 64-bit dual AXI streamlines; see internal/hlsim).
func NewEngine() *Engine { return core.New() }

// NewEngineWithConfig returns an engine with a custom hardware model.
func NewEngineWithConfig(cfg HardwareConfig) (*Engine, error) { return core.NewWithConfig(cfg) }

// DefaultHardware returns the calibrated hardware configuration.
func DefaultHardware() HardwareConfig { return hlsim.Default() }

// Characterize runs one (matrix, format, partition size) point on the
// default engine, verifying the simulated SpMV result.
func Characterize(m *Matrix, f Format, p int) (Result, error) {
	rs, err := core.New().SweepFormatsKernelWith(context.Background(), nil, "matrix", m, scenario.Default(), p, []Format{f})
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}

// SpMV multiplies y = A·x through the modelled accelerator: A is
// partitioned, compressed in format f, streamed, decompressed, and fed to
// the dot-product engine. Use Matrix.MulVec for the plain software path,
// or a StreamPlan when multiplying the same matrix repeatedly.
func SpMV(m *Matrix, x []float64, f Format, p int) ([]float64, error) {
	res, err := hlsim.Run(hlsim.Default(), m, f, p, x)
	if err != nil {
		return nil, err
	}
	return res.Y, nil
}

// StreamPlan is an encode-once streaming plan: the matrix is partitioned
// once at one partition size, each format is encoded and decode-verified
// once on first use, and every subsequent modelled SpMV on the plan pays
// only the per-iteration dot work. Its Run, RunParallel, RunSpMM, Trace,
// and Schedule methods mirror the package-level one-shot helpers; RunInto
// is the allocation-free warm path (reuse one StreamResult across calls),
// and SetWorkers enables tile-parallel warmup with bit-identical results.
type StreamPlan = hlsim.Plan

// ExecPool is the persistent worker pool behind StreamPlan.RunExecInto,
// the tile-parallel SpMV through each format's own executable kernel.
// Plans use a process-shared GOMAXPROCS-wide pool by default; install a
// custom one with StreamPlan.SetExecPool to bound exec parallelism
// across many plans explicitly.
type ExecPool = hlsim.ExecPool

// NewExecPool starts a pool of `workers` parked helper goroutines for
// RunExecInto (0 means every caller executes alone).
func NewExecPool(workers int) *ExecPool { return hlsim.NewExecPool(workers) }

// StreamResult is one modelled SpMV run: the functional output vector
// plus the aggregated cycle totals. Hold one and call StreamPlan.RunInto
// to stream multiplications without allocating.
type StreamResult = hlsim.Result

// NewStreamPlan builds a streaming plan for m at partition size p on the
// default hardware model.
func NewStreamPlan(m *Matrix, p int) (*StreamPlan, error) {
	return hlsim.NewPlan(hlsim.Default(), m, p)
}

// NewStreamPlanWithConfig builds a streaming plan on a custom hardware
// model.
func NewStreamPlanWithConfig(cfg HardwareConfig, m *Matrix, p int) (*StreamPlan, error) {
	return hlsim.NewPlan(cfg, m, p)
}

// ParallelResult models aggregated pipeline instances (§5.1).
type ParallelResult = hlsim.ParallelResult

// SpMVParallel runs the SpMV across `lanes` independent pipeline
// instances — the coarse-grained parallelism of §5.1 — returning the
// functional result and the per-lane timing model.
func SpMVParallel(m *Matrix, x []float64, f Format, p, lanes int) (*ParallelResult, error) {
	return hlsim.RunParallel(hlsim.Default(), m, f, p, x, lanes)
}

// SpMMResult models sparse-matrix × dense-matrix multiplication, where
// each tile's decompression amortizes over the operand columns (§3.3).
type SpMMResult = hlsim.SpMMResult

// SpMM multiplies m by the dense operand b (m.Cols × cols, row-major)
// through the modelled pipeline.
func SpMM(m *Matrix, b []float64, cols int, f Format, p int) (*SpMMResult, error) {
	return hlsim.RunSpMM(hlsim.Default(), m, f, p, b, cols)
}

// Schedule is the event-level three-stage pipeline timeline (memory
// read → compute → memory write) of one streaming run.
type Schedule = hlsim.Schedule

// BuildSchedule computes the exact pipeline timeline for a run,
// refining the per-tile max(mem, compute) approximation with fill,
// drain, and writeback overlap.
func BuildSchedule(m *Matrix, f Format, p int) (*Schedule, error) {
	return hlsim.BuildSchedule(hlsim.Default(), m, f, p)
}

// Application kernels (§3.3): iterative solvers and graph algorithms
// whose inner loop is SpMV, runnable over the software reference or the
// modelled accelerator.

// SpMVBackend is the matrix-vector product a kernel iterates with.
type SpMVBackend = kernels.SpMV

// KernelStats reports an iterative kernel's outcome.
type KernelStats = kernels.Stats

// SoftwareBackend returns the plain software SpMV backend for m.
func SoftwareBackend(m *Matrix) SpMVBackend { return kernels.Software(m) }

// AcceleratorBackend returns an SpMV backend streaming m through the
// modelled pipeline, plus the modelled cycle cost per multiplication.
func AcceleratorBackend(m *Matrix, f Format, p int) (SpMVBackend, uint64, error) {
	return kernels.Accelerator(hlsim.Default(), m, f, p)
}

// SolveCG solves A·x = b for SPD A by conjugate gradients.
func SolveCG(mul SpMVBackend, b []float64, tol float64, maxIter int) ([]float64, KernelStats, error) {
	return kernels.CG(mul, b, tol, maxIter)
}

// SolveJacobi solves A·x = b by Jacobi iteration given A's diagonal.
func SolveJacobi(mul SpMVBackend, diag, b []float64, tol float64, maxIter int) ([]float64, KernelStats, error) {
	return kernels.Jacobi(mul, diag, b, tol, maxIter)
}

// SymGaussSeidel runs symmetric Gauss-Seidel sweeps on A·x = b.
func SymGaussSeidel(m *Matrix, b []float64, sweeps int) ([]float64, KernelStats, error) {
	return kernels.SymGaussSeidel(m, b, sweeps)
}

// PageRankOperator builds the PageRank transition matrix from a
// directed adjacency matrix.
func PageRankOperator(adj *Matrix) *Matrix { return kernels.PageRankOperator(adj) }

// PageRank iterates the damped PageRank recurrence with the given
// backend over the PageRank operator.
func PageRank(mul SpMVBackend, n int, damping, tol float64, maxIter int) ([]float64, KernelStats, error) {
	return kernels.PageRank(mul, n, damping, tol, maxIter)
}

// BFSLevels computes breadth-first levels from source using repeated
// frontier SpMVs with mulT (a backend over the adjacency transpose).
func BFSLevels(adj *Matrix, source int, mulT SpMVBackend) ([]int, error) {
	return kernels.BFSLevels(adj, source, mulT)
}

// TileTrace is one partition's streaming record (stage costs, bubbles,
// bound classification).
type TileTrace = hlsim.TileTrace

// TraceSummary aggregates a trace.
type TraceSummary = hlsim.TraceSummary

// TraceSpMV streams the matrix in format f and returns the per-partition
// pipeline trace, making the §4.2 streaming bubbles visible tile by
// tile.
func TraceSpMV(m *Matrix, f Format, p int) ([]TileTrace, error) {
	return hlsim.Trace(hlsim.Default(), m, f, p)
}

// SummarizeTrace folds a trace into totals.
func SummarizeTrace(traces []TileTrace) TraceSummary { return hlsim.Summarize(traces) }

// RenderTimeline writes an ASCII per-tile timeline of a trace (at most
// maxTiles lines; 0 means all).
func RenderTimeline(w io.Writer, traces []TileTrace, maxTiles int) error {
	return hlsim.RenderTimeline(w, traces, maxTiles)
}

// LatencyObjective optimizes modelled time only.
func LatencyObjective() Objective { return core.LatencyObjective() }

// BalancedObjective mirrors §8: latency first, then power, bandwidth,
// resources and balance.
func BalancedObjective() Objective { return core.BalancedObjective() }

// Classify buckets a matrix into the §3 workload taxonomy.
func Classify(m *Matrix) core.MatrixClass { return core.Classify(m) }

// StaticAdvice returns the paper's §8 rule-of-thumb format for a class.
func StaticAdvice(c core.MatrixClass) (Format, []Format, string) { return core.StaticAdvice(c) }

// EstimateSynthesis returns the resource/power estimate for one
// decompressor variant at one partition size.
func EstimateSynthesis(f Format, p int) SynthReport { return synth.Estimate(f, p) }

// Experiment harness.

// ReportOptions configures the experiment harness.
type ReportOptions = report.Options

// ExperimentTable is one regenerated table or figure.
type ExperimentTable = report.Table

// NewReportOptions returns the full-scale harness configuration.
func NewReportOptions() *ReportOptions { return report.NewOptions() }

// NewSmallReportOptions returns a reduced-scale configuration for quick
// runs.
func NewSmallReportOptions() *ReportOptions { return report.NewSmallOptions() }

// Experiments lists the regenerable paper artifacts in presentation
// order (fig3 … fig14, table2).
func Experiments() []string { return append([]string(nil), report.Order...) }

// ExtExperiments lists the extension artifacts beyond the paper (all-
// format comparisons, coarse-grained aggregation).
func ExtExperiments() []string { return append([]string(nil), report.ExtOrder...) }

// RunExperiment regenerates one paper artifact by id.
func RunExperiment(o *ReportOptions, id string) (ExperimentTable, error) {
	return report.Generate(o, id)
}

// RunAllExperiments regenerates every artifact in order.
func RunAllExperiments(o *ReportOptions) ([]ExperimentTable, error) { return report.All(o) }

// Workload catalog.

// Workload is one evaluation matrix with provenance.
type Workload = workloads.Workload

// WorkloadConfig scales the evaluation suites.
type WorkloadConfig = workloads.Config

// SuiteSparseWorkloads returns the 20 Table-1 surrogates.
func SuiteSparseWorkloads(c WorkloadConfig) []Workload { return workloads.SuiteSparse(c) }

// RandomWorkloads returns the density-sweep suite.
func RandomWorkloads(c WorkloadConfig) []Workload { return workloads.RandomSuite(c) }

// BandWorkloads returns the band-width-sweep suite.
func BandWorkloads(c WorkloadConfig) []Workload { return workloads.BandSuite(c) }

// PartitionSizes is the paper's partition-size sweep {8, 16, 32}.
func PartitionSizes() []int { return append([]int(nil), workloads.PartitionSizes...) }

// Matrix Market I/O (the SuiteSparse collection's exchange format), so
// the characterization can run on the paper's actual matrices when the
// files are available.

// ReadMatrixMarket parses a Matrix Market coordinate stream
// (real/integer/pattern; general/symmetric/skew-symmetric).
func ReadMatrixMarket(r io.Reader) (*Matrix, error) { return mtx.Read(r) }

// MatrixMarketLimits bounds what ReadMatrixMarketLimited will ingest;
// zero fields are unlimited. Oversized streams are rejected from the
// size line alone, before any per-entry parsing.
type MatrixMarketLimits = mtx.Limits

// ReadMatrixMarketLimited is ReadMatrixMarket with ingestion bounds —
// the form a service front-end uses on untrusted uploads.
func ReadMatrixMarketLimited(r io.Reader, lim MatrixMarketLimits) (*Matrix, error) {
	return mtx.ReadLimited(r, lim)
}

// WriteMatrixMarket emits the matrix in coordinate-real-general form.
// A matrix read from symmetric storage has been expanded to both
// triangles, so its general-form file stores roughly twice the original
// entry count (the matrix itself still round trips exactly); use
// WriteMatrixMarketSymmetric to regain triangular storage.
func WriteMatrixMarket(w io.Writer, m *Matrix) error { return mtx.Write(w, m) }

// WriteMatrixMarketSymmetric emits a symmetric matrix in
// coordinate-real-symmetric form, storing only the lower triangle; it
// errors if m is not exactly symmetric.
func WriteMatrixMarketSymmetric(w io.Writer, m *Matrix) error { return mtx.WriteSymmetric(w, m) }

// LoadMatrixMarket reads a .mtx file from disk.
func LoadMatrixMarket(path string) (*Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return mtx.Read(f)
}

// SaveMatrixMarket writes the matrix to a .mtx file.
func SaveMatrixMarket(path string, m *Matrix) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := mtx.Write(f, m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
