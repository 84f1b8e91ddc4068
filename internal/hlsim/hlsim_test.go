package hlsim

import (
	"math"
	"testing"
	"testing/quick"

	"copernicus/internal/formats"
	"copernicus/internal/gen"
	"copernicus/internal/matrix"
	"copernicus/internal/xrand"
)

func randomTile(seed uint64, p int, density float64) *matrix.Tile {
	r := xrand.New(seed)
	b := matrix.NewTileBuilder(p, 0, 0)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if r.Float64() < density {
				b.Set(i, j, r.ValueIn(-2, 2))
			}
		}
	}
	return b.Tile()
}

func TestConfigValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := Default()
	bad.ClockHz = 0
	if bad.Validate() == nil {
		t.Fatal("zero clock accepted")
	}
	bad = Default()
	bad.CSCScanFrac = 1.5
	if bad.Validate() == nil {
		t.Fatal("CSCScanFrac > 1 accepted")
	}
	bad = Default()
	bad.IICSR = 0
	if bad.Validate() == nil {
		t.Fatal("II = 0 accepted")
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 8: 3, 16: 4, 17: 5, 32: 5}
	for n, want := range cases {
		if got := log2ceil(n); got != want {
			t.Errorf("log2ceil(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestDotLatencyGrowsWithWidth(t *testing.T) {
	c := Default()
	if !(c.DotLatency(8) < c.DotLatency(16) && c.DotLatency(16) < c.DotLatency(32)) {
		t.Fatal("dot latency not increasing with engine width")
	}
}

// TestSigmaDenseIsOne: the calibration identity of Eq. (1).
func TestSigmaDenseIsOne(t *testing.T) {
	c := Default()
	check := func(seed uint64) bool {
		r := xrand.New(seed)
		p := []int{8, 16, 32}[r.Intn(3)]
		tile := randomTile(seed, p, 0.3)
		return mustSigma(t, c, formats.Encode(formats.Dense, tile)) == 1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSigmaCSCWorst: the orientation mismatch must make CSC the slowest
// decompressor on a moderately dense tile, by a wide margin (§6.1 reports
// up to 21–30×).
func TestSigmaCSCWorst(t *testing.T) {
	c := Default()
	tile := randomTile(3, 16, 0.5)
	sigCSC := mustSigma(t, c, formats.Encode(formats.CSC, tile))
	for _, k := range formats.Core() {
		if k == formats.CSC {
			continue
		}
		if s := mustSigma(t, c, formats.Encode(k, tile)); s >= sigCSC {
			t.Errorf("σ(%v) = %.2f >= σ(CSC) = %.2f", k, s, sigCSC)
		}
	}
	if sigCSC < 10 || sigCSC > 40 {
		t.Errorf("σ(CSC) = %.2f outside the paper's reported magnitude (≈20–30×)", sigCSC)
	}
}

// TestSigmaELLNearDense: ELL's compute tracks the dense baseline, within
// a small constant overhead, regardless of sparsity pattern.
func TestSigmaELLNearDense(t *testing.T) {
	c := Default()
	for _, d := range []float64{0.01, 0.1, 0.5} {
		tile := randomTile(11, 16, d)
		s := mustSigma(t, c, formats.Encode(formats.ELL, tile))
		if s < 1 || s > 1.5 {
			t.Errorf("σ(ELL) at density %v = %.3f, want within (1, 1.5]", d, s)
		}
	}
}

// TestSigmaELLDecreasesWithPartition: Fig. 7's ELL trend.
func TestSigmaELLDecreasesWithPartition(t *testing.T) {
	c := Default()
	prev := math.Inf(1)
	for _, p := range []int{8, 16, 32} {
		tile := randomTile(13, p, 0.2)
		s := mustSigma(t, c, formats.Encode(formats.ELL, tile))
		if s >= prev {
			t.Fatalf("σ(ELL) did not decrease at p=%d: %.3f >= %.3f", p, s, prev)
		}
		prev = s
	}
}

// TestSigmaGrowsWithDensity: Fig. 5's headline trend — COO, CSR, CSC σ
// rise sharply with density.
func TestSigmaGrowsWithDensity(t *testing.T) {
	c := Default()
	for _, k := range []formats.Kind{formats.COO, formats.CSR, formats.CSC} {
		lo := mustSigma(t, c, formats.Encode(k, randomTile(17, 16, 0.01)))
		hi := mustSigma(t, c, formats.Encode(k, randomTile(17, 16, 0.5)))
		if hi < 2*lo {
			t.Errorf("σ(%v) did not grow with density: %.2f → %.2f", k, lo, hi)
		}
	}
}

// TestMemCyclesSparseBelowDense: every sparse format transfers less than
// dense on a sparse tile (§6.2: "memory latency for all sparse formats is
// much lower than for the dense format").
func TestMemCyclesSparseBelowDense(t *testing.T) {
	c := Default()
	tile := randomTile(19, 16, 0.05)
	dense := c.MemCycles(formats.Encode(formats.Dense, tile))
	for _, k := range formats.Sparse() {
		if m := c.MemCycles(formats.Encode(k, tile)); m >= dense {
			t.Errorf("mem(%v) = %d >= mem(dense) = %d on a 5%% tile", k, m, dense)
		}
	}
}

func TestMemCyclesUsesLongerLane(t *testing.T) {
	c := Default()
	tile := randomTile(23, 16, 0.3)
	enc := formats.Encode(formats.COO, tile)
	f := enc.Footprint()
	// COO's index lane (two indices per value) must dominate.
	if f.IndexLaneBytes <= f.ValueLaneBytes {
		t.Fatal("COO index lane unexpectedly short")
	}
	want := (f.IndexLaneBytes+c.AXIBytesPerCycle-1)/c.AXIBytesPerCycle + c.BurstOverhead
	if got := c.MemCycles(enc); got != want {
		t.Fatalf("MemCycles = %d, want %d (longer lane + burst)", got, want)
	}
}

// TestRunFunctionalCorrectness is the cornerstone integration property:
// SpMV computed through encode → hardware decode → dot products equals the
// software reference for every format, on every workload shape.
func TestRunFunctionalCorrectness(t *testing.T) {
	cfg := Default()
	mats := map[string]*matrix.CSR{
		"random":   gen.Random(100, 0.05, 1),
		"denseish": gen.Random(60, 0.4, 2),
		"band":     gen.Band(90, 8, 3),
		"diagonal": gen.Diagonal(64, 4),
		"circuit":  gen.Circuit(120, 5),
		"ragged":   gen.Random(97, 0.08, 6), // dims not multiples of p
	}
	for name, m := range mats {
		x := make([]float64, m.Cols)
		r := xrand.New(99)
		for i := range x {
			x[i] = r.ValueIn(-1, 1)
		}
		want := m.MulVec(x)
		for _, k := range formats.All() {
			for _, p := range []int{8, 16} {
				res, err := Run(cfg, m, k, p, x)
				if err != nil {
					t.Fatalf("%s/%v/p=%d: %v", name, k, p, err)
				}
				for i := range want {
					if math.Abs(res.Y[i]-want[i]) > 1e-9 {
						t.Fatalf("%s/%v/p=%d: y[%d] = %v, want %v", name, k, p, i, res.Y[i], want[i])
					}
				}
			}
		}
	}
}

func TestRunVectorLengthError(t *testing.T) {
	m := gen.Random(32, 0.1, 1)
	if _, err := Run(Default(), m, formats.CSR, 8, make([]float64, 31)); err == nil {
		t.Fatal("mismatched vector accepted")
	}
}

func TestRunInvalidConfigError(t *testing.T) {
	bad := Default()
	bad.AXIBytesPerCycle = 0
	m := gen.Random(16, 0.1, 1)
	if _, err := Run(bad, m, formats.CSR, 8, make([]float64, 16)); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestResultAggregates(t *testing.T) {
	m := gen.Random(128, 0.05, 7)
	x := make([]float64, 128)
	for i := range x {
		x[i] = 1
	}
	res, err := Run(Default(), m, formats.CSR, 16, x)
	if err != nil {
		t.Fatal(err)
	}
	if res.NonZeroTiles == 0 || res.NonZeroTiles > res.TotalTiles {
		t.Fatalf("tile counts: %d/%d", res.NonZeroTiles, res.TotalTiles)
	}
	if res.PipelinedCycles < res.MemCycles && res.PipelinedCycles < res.ComputeCycles {
		t.Fatal("pipelined total below both stage totals")
	}
	if res.PipelinedCycles > res.MemCycles+res.ComputeCycles {
		t.Fatal("pipelined total exceeds sum of stages")
	}
	if res.Seconds() <= 0 || res.Throughput() <= 0 {
		t.Fatal("non-positive time or throughput")
	}
	if b := res.BalanceRatio(); b <= 0 {
		t.Fatalf("balance ratio %v", b)
	}
	if u := res.BandwidthUtilization(); u <= 0 || u > 1 {
		t.Fatalf("bandwidth utilization %v", u)
	}
}

// TestUtilizationMetrics checks the §5.1 utilization definitions: the
// dense format's dot engine carries only the matrix's non-zeros across
// all p rows, while CSR's inner pipeline holds only non-zero rows.
func TestUtilizationMetrics(t *testing.T) {
	m := gen.Random(128, 0.05, 41)
	x := make([]float64, 128)
	dense, err := Run(Default(), m, formats.Dense, 16, x)
	if err != nil {
		t.Fatal(err)
	}
	if u := dense.InnerPipelineUtilization(); u != 1 {
		t.Fatalf("dense inner-pipeline utilization %v, want 1 (processes every row)", u)
	}
	csr, err := Run(Default(), m, formats.CSR, 16, x)
	if err != nil {
		t.Fatal(err)
	}
	if u := csr.InnerPipelineUtilization(); u <= 0 || u >= 1 {
		t.Fatalf("CSR inner-pipeline utilization %v, want in (0,1)", u)
	}
	// Same nnz over fewer dot rows: CSR's engine utilization must exceed
	// dense's.
	if csr.DotEngineUtilization() <= dense.DotEngineUtilization() {
		t.Fatalf("CSR engine utilization %v not above dense %v",
			csr.DotEngineUtilization(), dense.DotEngineUtilization())
	}
	for _, u := range []float64{csr.DotEngineUtilization(), dense.DotEngineUtilization()} {
		if u <= 0 || u > 1 {
			t.Fatalf("utilization %v out of (0,1]", u)
		}
	}
}

// TestSigmaAggregateDense: the aggregate σ over a whole matrix run is
// exactly 1 for the dense baseline.
func TestSigmaAggregateDense(t *testing.T) {
	m := gen.Random(96, 0.1, 9)
	x := make([]float64, 96)
	res, err := Run(Default(), m, formats.Dense, 16, x)
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Sigma(); s != 1 {
		t.Fatalf("aggregate dense σ = %v, want 1", s)
	}
}

// TestBalanceDenseNearOne: §6.2 — the dense format's balance ratio is
// closer to one than most sparse formats because zeros hit both sides.
func TestBalanceDenseNearOne(t *testing.T) {
	m := gen.Random(128, 0.03, 11)
	x := make([]float64, 128)
	dense, err := Run(Default(), m, formats.Dense, 16, x)
	if err != nil {
		t.Fatal(err)
	}
	bd := math.Abs(math.Log(dense.BalanceRatio()))
	closer := 0
	for _, k := range formats.Sparse() {
		res, err := Run(Default(), m, k, 16, x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(math.Log(res.BalanceRatio())) < bd {
			closer++
		}
	}
	if closer > len(formats.Sparse())/2 {
		t.Fatalf("%d of %d sparse formats are better balanced than dense", closer, len(formats.Sparse()))
	}
}

// TestRunTileDeterministic: the model is a pure function of its inputs.
func TestRunTileDeterministic(t *testing.T) {
	cfg := Default()
	tile := randomTile(31, 16, 0.2)
	for _, k := range formats.All() {
		a, errA := RunTile(cfg, formats.Encode(k, tile))
		b, errB := RunTile(cfg, formats.Encode(k, tile))
		if errA != nil || errB != nil {
			t.Fatalf("%v: RunTile errors %v, %v", k, errA, errB)
		}
		if a != b {
			t.Fatalf("%v: non-deterministic tile result", k)
		}
	}
}

// TestComputeCyclesComposition: compute = decomp + dots, per definition.
func TestComputeCyclesComposition(t *testing.T) {
	cfg := Default()
	check := func(seed uint64) bool {
		tile := randomTile(seed, 16, 0.2)
		for _, k := range formats.All() {
			enc := formats.Encode(k, tile)
			if mustCompute(t, cfg, enc) != mustDecomp(t, cfg, enc)+enc.Stats().DotRows*cfg.DotLatency(16) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
