package hlsim

import (
	"testing"
	"testing/quick"

	"copernicus/internal/formats"
	"copernicus/internal/matrix"
	"copernicus/internal/xrand"
)

// drain runs a RowSource to exhaustion, reassembling a tile and summing
// cycles.
func drain(t *testing.T, cfg Config, enc formats.Encoded) (*matrix.Tile, int, int) {
	t.Helper()
	src, err := NewRowSource(cfg, enc)
	if err != nil {
		t.Fatal(err)
	}
	tb := matrix.NewTileBuilder(enc.P(), 0, 0)
	cycles, rows := 0, 0
	seen := map[int]bool{}
	for {
		r, ok := src.Next()
		if !ok {
			break
		}
		if r.Index < 0 || r.Index >= enc.P() {
			t.Fatalf("row index %d out of range", r.Index)
		}
		if seen[r.Index] {
			t.Fatalf("row %d emitted twice", r.Index)
		}
		seen[r.Index] = true
		for j, v := range r.Values {
			if v != 0 {
				tb.Set(r.Index, j, v)
			}
		}
		cycles += r.Cycles
		rows++
	}
	return tb.Tile(), cycles, rows
}

// TestRowSourceReconstructsTile: the operational decompressors rebuild
// exactly the tile the codec decoders produce, for every format.
func TestRowSourceReconstructsTile(t *testing.T) {
	cfg := Default()
	for _, k := range formats.All() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			check := func(seed uint64) bool {
				r := xrand.New(seed)
				p := []int{8, 16, 32}[r.Intn(3)]
				density := []float64{0, 0.05, 0.3, 0.9}[r.Intn(4)]
				tile := randomTile(seed, p, density)
				enc := formats.Encode(k, tile)
				got, _, _ := drain(t, cfg, enc)
				return got.EqualValues(tile)
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRowSourceCyclesMatchClosedForm: the per-row cycle sum equals the
// closed-form DecompCycles for every format — the operational and
// analytical models cannot drift apart.
func TestRowSourceCyclesMatchClosedForm(t *testing.T) {
	cfg := Default()
	for _, k := range formats.All() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			check := func(seed uint64) bool {
				r := xrand.New(seed)
				p := []int{8, 16, 32}[r.Intn(3)]
				density := []float64{0.02, 0.15, 0.5}[r.Intn(3)]
				tile := randomTile(seed, p, density)
				enc := formats.Encode(k, tile)
				_, cycles, _ := drain(t, cfg, enc)
				want := mustDecomp(t, cfg, enc)
				if cycles != want {
					t.Logf("%v p=%d d=%g: walked %d cycles, closed form %d", k, p, density, cycles, want)
					return false
				}
				return true
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRowSourceEmissionCounts: padded formats emit every row; row-wise
// formats emit exactly the non-zero rows; BCSR emits block coverage.
func TestRowSourceEmissionCounts(t *testing.T) {
	cfg := Default()
	tile := randomTile(9, 16, 0.1)
	cases := map[formats.Kind]int{
		formats.Dense: 16,
		formats.ELL:   16,
		formats.DIA:   16,
		formats.CSC:   16,
		formats.CSR:   tile.NonZeroRows(),
		formats.COO:   tile.NonZeroRows(),
		formats.LIL:   tile.NonZeroRows(),
		formats.BCSR:  formats.Encode(formats.BCSR, tile).Stats().DotRows,
	}
	for k, want := range cases {
		_, _, rows := drain(t, cfg, formats.Encode(k, tile))
		if rows != want {
			t.Errorf("%v emitted %d rows, want %d", k, rows, want)
		}
	}
}

// TestRowSourceEmptyTile: a zero tile drains immediately for row-wise
// formats and emits zero rows for padded ones without errors.
func TestRowSourceEmptyTile(t *testing.T) {
	cfg := Default()
	tile := matrix.NewTileBuilder(8, 0, 0).Tile()
	for _, k := range formats.All() {
		enc := formats.Encode(k, tile)
		got, cycles, _ := drain(t, cfg, enc)
		if got.NNZ() != 0 {
			t.Fatalf("%v: empty tile produced values", k)
		}
		_ = cycles
	}
}

// TestRowSourceOrder: rows come out in ascending order for the
// sequential formats (the pipeline requirement).
func TestRowSourceOrder(t *testing.T) {
	cfg := Default()
	tile := randomTile(21, 16, 0.2)
	for _, k := range []formats.Kind{formats.Dense, formats.CSR, formats.CSC,
		formats.COO, formats.LIL, formats.ELL, formats.DIA, formats.BCSR} {
		src, err := NewRowSource(cfg, formats.Encode(k, tile))
		if err != nil {
			t.Fatal(err)
		}
		prev := -1
		for {
			r, ok := src.Next()
			if !ok {
				break
			}
			if r.Index <= prev {
				t.Fatalf("%v: rows out of order: %d after %d", k, r.Index, prev)
			}
			prev = r.Index
		}
	}
}
