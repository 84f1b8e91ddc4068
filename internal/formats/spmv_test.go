package formats

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"copernicus/internal/matrix"
	"copernicus/internal/xrand"
)

// refSpMV is the reference accumulation every kernel is checked against:
// per-row ascending-column partial sums over the stored non-zeros, the
// order Plan.spmv and matrix.CSR.MulVec use.
func refSpMV(t *matrix.Tile, x, y []float64) {
	for i := 0; i < t.P; i++ {
		cols, vals := t.RowView(i)
		if len(cols) == 0 {
			continue
		}
		s := 0.0
		for k, j := range cols {
			s += vals[k] * x[j]
		}
		y[i] += s
	}
}

// rowOrdered lists the kernels whose single-tile output is bit-identical
// to refSpMV (products per output row added in ascending-column order);
// the rest agree within FP-reassociation tolerance.
var rowOrdered = map[Kind]bool{
	Dense: true, CSR: true, BCSR: true, ELL: true, SELL: true,
	SELLCS: true, COO: true, JDS: true, ELLCOO: true,
}

// adversarialTiles builds the shapes each kernel's layout handles
// specially: empty tiles, empty rows, fully dense rows, a single hot
// column, a pure diagonal, one long row over short ones (the ELL+COO
// spill), and the random shapes used by the PR 3 encoder ablations.
func adversarialTiles(p int) map[string]*matrix.Tile {
	tiles := map[string]*matrix.Tile{
		"empty":  matrix.NewTileBuilder(p, 0, 0).Tile(),
		"dense":  randomTile(11, p, 1.0),
		"sparse": randomTile(12, p, 0.08),
		"mid":    randomTile(13, p, 0.4),
	}
	oneRow := matrix.NewTileBuilder(p, 0, 0)
	for j := 0; j < p; j++ {
		oneRow.Set(3, j, float64(j+1))
	}
	tiles["single_dense_row"] = oneRow.Tile()

	oneCol := matrix.NewTileBuilder(p, 0, 0)
	for i := 0; i < p; i++ {
		oneCol.Set(i, 5, float64(i)-3.5)
	}
	tiles["single_column"] = oneCol.Tile()

	diag := matrix.NewTileBuilder(p, 0, 0)
	for i := 0; i < p; i++ {
		diag.Set(i, i, 2.0+float64(i))
	}
	tiles["diagonal"] = diag.Tile()

	// One long row forces an ELL+COO spill and a deep JDS diagonal set;
	// the alternating empty rows exercise row skipping.
	jag := matrix.NewTileBuilder(p, 0, 0)
	for j := 0; j < p; j++ {
		jag.Set(0, j, 1.0/float64(j+1))
	}
	for i := 2; i < p; i += 2 {
		jag.Set(i, (i*3)%p, float64(i))
	}
	tiles["jagged"] = jag.Tile()

	corner := matrix.NewTileBuilder(p, 0, 0)
	corner.Set(p-1, p-1, 7.5)
	corner.Set(0, 0, -2.25)
	tiles["corners"] = corner.Tile()
	return tiles
}

func testOperand(n int, seed uint64) []float64 {
	r := xrand.New(seed)
	x := make([]float64, n)
	for i := range x {
		x[i] = r.ValueIn(-2, 2)
	}
	return x
}

// TestKernelsMatchReference checks every format's kernel against the
// reference accumulation on random and adversarial tiles: bit-identical
// for the row-ordered kernels, within reassociation tolerance otherwise.
func TestKernelsMatchReference(t *testing.T) {
	const p = 16
	x := testOperand(p, 99)
	for name, tile := range adversarialTiles(p) {
		for _, k := range All() {
			t.Run(fmt.Sprintf("%s/%v", name, k), func(t *testing.T) {
				want := make([]float64, p)
				refSpMV(tile, x, want)
				got := make([]float64, p)
				Encode(k, tile).SpMV(x, got)
				for i := range want {
					if rowOrdered[k] {
						if got[i] != want[i] {
							t.Fatalf("row %d: %v != reference %v (exact-mode kernel)", i, got[i], want[i])
						}
					} else if math.Abs(got[i]-want[i]) > 1e-12*math.Max(1, math.Abs(want[i])) {
						t.Fatalf("row %d: %v vs reference %v", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestKernelsAccumulate proves the y += contract: running a kernel twice
// doubles the reference contribution on top of existing content.
func TestKernelsAccumulate(t *testing.T) {
	const p = 16
	tile := randomTile(21, p, 0.3)
	x := testOperand(p, 22)
	ref := make([]float64, p)
	refSpMV(tile, x, ref)
	for _, k := range All() {
		y := make([]float64, p)
		for i := range y {
			y[i] = float64(i)
		}
		enc := Encode(k, tile)
		enc.SpMV(x, y)
		enc.SpMV(x, y)
		for i := range y {
			want := float64(i) + 2*ref[i]
			if math.Abs(y[i]-want) > 1e-11*math.Max(1, math.Abs(want)) {
				t.Fatalf("%v row %d: %v, want %v", k, i, y[i], want)
			}
		}
	}
}

// TestKernelsBoundaryClamp feeds every kernel tile-local slices shorter
// than p — the boundary-tile case, where the clipped region is all
// structural zeros — and checks no out-of-range access occurs and the
// in-range output matches the reference.
func TestKernelsBoundaryClamp(t *testing.T) {
	const p, rows, cols = 16, 11, 9
	tb := matrix.NewTileBuilder(p, 0, 0)
	r := xrand.New(31)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if r.Float64() < 0.5 {
				tb.Set(i, j, r.ValueIn(-4, 4))
			}
		}
	}
	tile := tb.Tile()
	x := testOperand(cols, 32)
	xFull := make([]float64, p)
	copy(xFull, x)
	want := make([]float64, p)
	refSpMV(tile, xFull, want)
	for _, k := range All() {
		y := make([]float64, rows)
		Encode(k, tile).SpMV(x, y) // len(x)=9 < p, len(y)=11 < p
		for i := range y {
			if math.Abs(y[i]-want[i]) > 1e-12*math.Max(1, math.Abs(want[i])) {
				t.Fatalf("%v row %d: %v vs reference %v", k, i, y[i], want[i])
			}
		}
	}
}

// TestKernelsAblationShapes runs the custom-parameter encoders (the PR 3
// ablation knobs) through their kernels: BCSR block edges, SELL slice
// heights, and ELL+COO width caps beyond the defaults.
func TestKernelsAblationShapes(t *testing.T) {
	const p = 16
	tile := randomTile(41, p, 0.25)
	x := testOperand(p, 42)
	want := make([]float64, p)
	refSpMV(tile, x, want)
	encs := map[string]Encoded{
		"bcsr_b2":     EncodeBCSRBlock(tile, 2),
		"bcsr_b8":     EncodeBCSRBlock(tile, 8),
		"sell_c2":     EncodeSELLSlice(tile, 2),
		"sell_c8":     EncodeSELLSlice(tile, 8),
		"ellcoo_cap1": EncodeELLCOOCap(tile, 1),
		"ellcoo_cap3": EncodeELLCOOCap(tile, 3),
	}
	for name, enc := range encs {
		y := make([]float64, p)
		enc.SpMV(x, y)
		for i := range y {
			if y[i] != want[i] {
				t.Fatalf("%s row %d: %v != reference %v", name, i, y[i], want[i])
			}
		}
	}
}

// bcsrRowOracle is the row-at-a-time BCSR loop that SpMV used for every
// block edge before the register-blocked b=4 path: each block row is
// walked once per output row, reloading x for every row. The fast path
// is held bit-identical to it.
func bcsrRowOracle(e *BCSREnc, x, y []float64) {
	b := e.b
	start := int32(0)
	for bi := 0; bi < len(e.offsets); bi++ {
		end := e.offsets[bi]
		if end > start {
			r0 := bi * b
			rmax := min(b, len(y)-r0)
			for r := 0; r < rmax; r++ {
				s := 0.0
				for blk := start; blk < end; blk++ {
					c0 := int(e.colIdx[blk])
					base := int(blk)*b*b + r*b
					for j := 0; j < min(b, len(x)-c0); j++ {
						s += e.vals[base+j] * x[c0+j]
					}
				}
				y[r0+r] += s
			}
		}
		start = end
	}
}

// TestBCSRFastPathBitIdentical holds the register-blocked 4×4 kernel to
// the row-at-a-time oracle bit for bit, on a nonzero starting y, for a
// finite operand and for one carrying +Inf and NaN: the explicit zeros
// stored inside a block turn Inf into NaN, and both kernels must do so
// in the same rows.
func TestBCSRFastPathBitIdentical(t *testing.T) {
	for _, p := range []int{16, 64, 128} {
		for _, d := range []float64{0.02, 0.06, 0.3, 1.0} {
			t.Run(fmt.Sprintf("p=%d/d=%g", p, d), func(t *testing.T) {
				enc := Encode(BCSR, randomTile(uint64(p)+uint64(d*1000), p, d)).(*BCSREnc)
				if enc.Blocks() == 0 {
					t.Fatal("empty tile; pick another seed")
				}
				finite := testOperand(p, 51)
				// Aim the non-finite entries at columns stored blocks
				// cover, so the explicit zeros beside them meet Inf.
				nonFinite := append([]float64(nil), finite...)
				nonFinite[enc.colIdx[0]+1] = math.Inf(1)
				nonFinite[enc.colIdx[enc.Blocks()-1]+2] = math.NaN()
				y0 := testOperand(p, 52)
				for _, x := range [][]float64{finite, nonFinite} {
					want := append([]float64(nil), y0...)
					bcsrRowOracle(enc, x, want)
					got := append([]float64(nil), y0...)
					enc.SpMV(x, got)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("row %d: %v (%#x) != oracle %v (%#x)", i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
						}
					}
				}
				nan := make([]float64, p)
				enc.SpMV(nonFinite, nan)
				if !slices.ContainsFunc(nan, math.IsNaN) {
					t.Fatal("no row met a non-finite operand; the case is vacuous")
				}
			})
		}
	}
}

// kernelSink keeps the benchmarked kernel's output live.
var kernelSink float64

// BenchmarkKernelSpMV times one warm Encoded.SpMV per format on a single
// p=64 tile, reported per stored non-zero: the per-kernel before/after
// figure without any runner, span or pool overhead around it.
func BenchmarkKernelSpMV(b *testing.B) {
	const p = 64
	for _, d := range []float64{0.06, 0.3} {
		tile := randomTile(61, p, d)
		x := testOperand(p, 62)
		for _, k := range All() {
			enc := Encode(k, tile)
			b.Run(fmt.Sprintf("d=%g/%v", d, k), func(b *testing.B) {
				y := make([]float64, p)
				enc.SpMV(x, y)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					enc.SpMV(x, y)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tile.NNZ()), "ns/nnz")
				kernelSink = y[0]
			})
		}
	}
}
