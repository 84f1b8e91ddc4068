package hlsim

import (
	"testing"

	"copernicus/internal/formats"
	"copernicus/internal/matrix"
)

// TestDecompCyclesHandComputed pins the closed-form cycle model to
// hand-derived values on the paper's Fig. 1 example tile (8×8 with
// non-zeros at (0,3), (4,7), (7,7)) under the default configuration:
// BRAMReadLatency=2, PipeDepth=3, IICSR=2, IICOO=1, IIDIA=1, CELL=1,
// CLILBase=1, CSCScanFrac=0.5. Any calibration change must consciously
// update this table.
func TestDecompCyclesHandComputed(t *testing.T) {
	cfg := Default()
	tb := matrix.NewTileBuilder(8, 0, 0)
	tb.Set(0, 3, 1)
	tb.Set(4, 7, 2)
	tb.Set(7, 7, 3)
	tile := tb.Tile()

	// nnz=3, non-zero rows=3; BCSR blocks: (0,0) and (1,1) → 2 blocks in
	// 2 block rows; DIA diagonals: 3 and 0 → 2; DOK table = 8 slots.
	want := map[formats.Kind]int{
		formats.Dense: 0,
		formats.CSR:   3*(2+3) + 3*2,    // 21
		formats.BCSR:  2*(2+3) + 2,      // 12
		formats.CSC:   8 * (2 + 16 + 3), // 168: scan=round(3·0.5)=2, 8 offset hops ×2, depth 3, ×8 rows
		formats.COO:   (3+1)*1 + 3 + 3,  // 10
		formats.LIL:   3*(2+1+3) + 2,    // 20: per row R_b + base + log2(8), + terminator access
		formats.ELL:   8 * 1,            // 8
		formats.DIA:   8 * (2*1 + 3),    // 40
		formats.DOK:   8*1 + 3 + 3,      // 14
	}
	for k, w := range want {
		enc := formats.Encode(k, tile)
		if got := mustDecomp(t, cfg, enc); got != w {
			t.Errorf("%v: DecompCycles = %d, hand-computed %d", k, got, w)
		}
	}

	// T_dot(8) = MulLatency + AddLatency·log2(8) = 4; dense compute is
	// exactly 8·4 = 32 and σ is exactly 1.
	dense := formats.Encode(formats.Dense, tile)
	if got := mustCompute(t, cfg, dense); got != 32 {
		t.Errorf("dense compute = %d, want 32", got)
	}
	if got := mustSigma(t, cfg, dense); got != 1 {
		t.Errorf("dense sigma = %v, want 1", got)
	}

	// CSR compute = 21 + 3 rows × 4 = 33 → σ = 33/32.
	csr := formats.Encode(formats.CSR, tile)
	if got := mustCompute(t, cfg, csr); got != 33 {
		t.Errorf("CSR compute = %d, want 33", got)
	}
	if got := mustSigma(t, cfg, csr); got != 33.0/32.0 {
		t.Errorf("CSR sigma = %v, want %v", got, 33.0/32.0)
	}
}

// TestMemCyclesHandComputed pins the memory model on the same tile:
// dual 8-byte streamlines, 4-cycle burst overhead.
func TestMemCyclesHandComputed(t *testing.T) {
	cfg := Default()
	tb := matrix.NewTileBuilder(8, 0, 0)
	tb.Set(0, 3, 1)
	tb.Set(4, 7, 2)
	tb.Set(7, 7, 3)
	tile := tb.Tile()

	// Dense: 64 values × 4 B / 8 B-per-cycle = 32 + 4 burst = 36.
	if got := cfg.MemCycles(formats.Encode(formats.Dense, tile)); got != 36 {
		t.Errorf("dense mem = %d, want 36", got)
	}
	// CSR: value lane 3×4=12 B → 2 cycles; index lane (3+8)×4=44 B → 6
	// cycles; max 6 + 4 = 10.
	if got := cfg.MemCycles(formats.Encode(formats.CSR, tile)); got != 10 {
		t.Errorf("CSR mem = %d, want 10", got)
	}
	// COO: value lane 12 B → 2; index lane 2·3·4=24 B → 3; max 3 + 4 = 7.
	if got := cfg.MemCycles(formats.Encode(formats.COO, tile)); got != 7 {
		t.Errorf("COO mem = %d, want 7", got)
	}
	// DIA: value lane 2 diagonals × 8 slots × 4 B = 64 B → 8; index lane
	// 2 headers × 4 B = 8 B → 1; max 8 + 4 = 12.
	if got := cfg.MemCycles(formats.Encode(formats.DIA, tile)); got != 12 {
		t.Errorf("DIA mem = %d, want 12", got)
	}
}
