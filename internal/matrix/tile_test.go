package matrix

import (
	"math"
	"testing"
	"testing/quick"

	"copernicus/internal/xrand"
)

func TestTileSetAtNNZ(t *testing.T) {
	b := NewTileBuilder(4, 0, 0)
	b.Set(1, 2, 5)
	b.Set(3, 3, -1)
	if tl := b.Tile(); tl.NNZ() != 2 || tl.At(1, 2) != 5 || tl.At(3, 3) != -1 {
		t.Fatalf("two writes: nnz=%d", tl.NNZ())
	}

	// Last write wins; a zero write empties the cell, and a later
	// non-zero write fills it again.
	b.Set(1, 2, 5)
	b.Set(3, 3, -1)
	b.Set(1, 2, 0)
	b.Set(3, 3, 2)
	b.Set(0, 1, 7)
	b.Set(0, 1, 0)
	b.Set(0, 1, 8)
	tl := b.Tile()
	if tl.NNZ() != 2 || tl.At(1, 2) != 0 || tl.At(3, 3) != 2 || tl.At(0, 1) != 8 {
		t.Fatalf("overwrites: nnz=%d (1,2)=%v (3,3)=%v (0,1)=%v",
			tl.NNZ(), tl.At(1, 2), tl.At(3, 3), tl.At(0, 1))
	}
	if tl.RowNNZ(1) != 0 || tl.NonZeroRows() != 2 {
		t.Fatalf("cleared row still counted: RowNNZ(1)=%d NonZeroRows=%d", tl.RowNNZ(1), tl.NonZeroRows())
	}

	// NaN is a stored value, not a zero.
	b.Set(2, 0, math.NaN())
	if tl := b.Tile(); tl.NNZ() != 1 || !math.IsNaN(tl.At(2, 0)) {
		t.Fatalf("NaN write: nnz=%d", tl.NNZ())
	}
}

func TestTileBuilderOutOfOrder(t *testing.T) {
	// Rows and columns written in descending order build the same tile
	// as the ascending row-major writes.
	up, down := NewTileBuilder(5, 10, 20), NewTileBuilder(5, 10, 20)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if (i+2*j)%3 != 0 {
				up.Set(i, j, float64(10*i+j))
				down.Set(4-i, 4-j, float64(10*(4-i)+4-j))
			}
		}
	}
	a, b := up.Tile(), down.Tile()
	if !a.EqualValues(b) {
		t.Fatal("out-of-order writes built a different tile")
	}
	for i := 0; i < 5; i++ {
		cols, vals := b.RowView(i)
		for k := range cols {
			if k > 0 && cols[k] <= cols[k-1] {
				t.Fatalf("row %d columns not ascending: %v", i, cols)
			}
			if vals[k] != float64(10*i+int(cols[k])) {
				t.Fatalf("(%d,%d) = %v", i, cols[k], vals[k])
			}
		}
	}
	if a.Row != 10 || a.Col != 20 || a.P != 5 {
		t.Fatalf("origin (%d,%d) p=%d, want (10,20) p=5", a.Row, a.Col, a.P)
	}
}

func TestTileBuilderEmpty(t *testing.T) {
	tl := NewTileBuilder(3, 0, 0).Tile()
	if tl.NNZ() != 0 || tl.NonZeroRows() != 0 || tl.MemoryBytes() != 4*4 {
		t.Fatalf("empty tile: nnz=%d nzRows=%d bytes=%d", tl.NNZ(), tl.NonZeroRows(), tl.MemoryBytes())
	}
	for i := 0; i < 3; i++ {
		if cols, _ := tl.RowView(i); len(cols) != 0 || tl.At(i, i) != 0 {
			t.Fatalf("empty tile row %d holds %v", i, cols)
		}
	}
	if d := tl.Dense(); len(d) != 9 {
		t.Fatalf("Dense len = %d, want 9", len(d))
	}
}

func TestTileBuilderOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set outside the tile did not panic")
		}
	}()
	NewTileBuilder(4, 0, 0).Set(0, 4, 1)
}

func TestTileRowStats(t *testing.T) {
	b := NewTileBuilder(4, 0, 0)
	b.Set(0, 0, 1)
	b.Set(0, 3, 1)
	b.Set(2, 1, 1)
	tl := b.Tile()
	if tl.RowNNZ(0) != 2 || tl.RowNNZ(1) != 0 || tl.RowNNZ(2) != 1 {
		t.Fatal("RowNNZ wrong")
	}
	if tl.NonZeroRows() != 2 {
		t.Fatalf("NonZeroRows = %d, want 2", tl.NonZeroRows())
	}
	if tl.Density() != 3.0/16.0 {
		t.Fatalf("Density = %v", tl.Density())
	}
}

func TestPartitionRoundTrip(t *testing.T) {
	check := func(seed uint64) bool {
		r := xrand.New(seed)
		rows := 1 + r.Intn(40)
		cols := 1 + r.Intn(40)
		p := []int{3, 4, 8, 16}[r.Intn(4)]
		m := randomCSR(seed, rows, cols, 0.15)
		pt := Partition(m, p)
		back := pt.Assemble(rows, cols)
		return Equal(m, back, 0)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionGridGeometry(t *testing.T) {
	m := randomCSR(3, 33, 17, 0.2)
	pt := Partition(m, 8)
	if pt.GridRows != 5 || pt.GridCols != 3 {
		t.Fatalf("grid = %dx%d, want 5x3", pt.GridRows, pt.GridCols)
	}
	if pt.TotalTiles != 15 {
		t.Fatalf("total tiles = %d, want 15", pt.TotalTiles)
	}
	if len(pt.Tiles)+pt.ZeroTiles() != pt.TotalTiles {
		t.Fatal("tile accounting inconsistent")
	}
}

func TestPartitionSkipsZeroTiles(t *testing.T) {
	// One entry in the top-left and one in the bottom-right corner of a
	// 32x32 matrix: with p=8, exactly 2 of 16 tiles are non-zero.
	b := NewBuilder(32, 32)
	b.Add(0, 0, 1)
	b.Add(31, 31, 1)
	pt := Partition(b.Build(), 8)
	if len(pt.Tiles) != 2 {
		t.Fatalf("non-zero tiles = %d, want 2", len(pt.Tiles))
	}
	if pt.ZeroTiles() != 14 {
		t.Fatalf("zero tiles = %d, want 14", pt.ZeroTiles())
	}
}

func TestPartitionTileOrder(t *testing.T) {
	// Tiles must come out in block-row-major order for deterministic
	// streaming.
	b := NewBuilder(16, 16)
	b.Add(0, 12, 1) // tile (0,1) at p=8
	b.Add(0, 0, 1)  // tile (0,0)
	b.Add(12, 4, 1) // tile (1,0)
	pt := Partition(b.Build(), 8)
	if len(pt.Tiles) != 3 {
		t.Fatalf("tiles = %d, want 3", len(pt.Tiles))
	}
	order := [][2]int{{0, 0}, {0, 8}, {8, 0}}
	for i, want := range order {
		if pt.Tiles[i].Row != want[0] || pt.Tiles[i].Col != want[1] {
			t.Fatalf("tile %d at (%d,%d), want (%d,%d)",
				i, pt.Tiles[i].Row, pt.Tiles[i].Col, want[0], want[1])
		}
	}
}

func TestPartitionNNZConserved(t *testing.T) {
	check := func(seed uint64) bool {
		m := randomCSR(seed, 30, 30, 0.1)
		pt := Partition(m, 8)
		total := 0
		for _, tl := range pt.Tiles {
			total += tl.NNZ()
		}
		return total == m.NNZ()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsDenseTile(t *testing.T) {
	// A fully dense matrix: every statistic must be exactly 1.
	d := make([]float64, 16*16)
	for i := range d {
		d[i] = 1
	}
	s := StatsFor(FromDense(16, 16, d), 8)
	if s.PartitionDensity != 1 || s.RowDensity != 1 || s.NonZeroRowFrac != 1 {
		t.Fatalf("dense stats = %+v, want all 1", s)
	}
	if s.NonZeroTiles != 4 || s.TotalTiles != 4 {
		t.Fatalf("dense tile counts = %+v", s)
	}
}

func TestStatsDiagonal(t *testing.T) {
	// Diagonal 16x16 with p=8: the two diagonal tiles are non-zero, each
	// with density 8/64 and every row non-zero with exactly 1 of 8 values.
	b := NewBuilder(16, 16)
	for i := 0; i < 16; i++ {
		b.Add(i, i, 1)
	}
	s := StatsFor(b.Build(), 8)
	if s.NonZeroTiles != 2 {
		t.Fatalf("diagonal non-zero tiles = %d, want 2", s.NonZeroTiles)
	}
	if s.PartitionDensity != 0.125 {
		t.Fatalf("partition density = %v, want 0.125", s.PartitionDensity)
	}
	if s.RowDensity != 0.125 {
		t.Fatalf("row density = %v, want 0.125", s.RowDensity)
	}
	if s.NonZeroRowFrac != 1 {
		t.Fatalf("non-zero row frac = %v, want 1", s.NonZeroRowFrac)
	}
}

func TestStatsBoundsProperty(t *testing.T) {
	check := func(seed uint64) bool {
		r := xrand.New(seed)
		m := randomCSR(seed, 20+r.Intn(30), 20+r.Intn(30), 0.05+0.4*r.Float64())
		s := StatsFor(m, 8)
		inUnit := func(v float64) bool { return v >= 0 && v <= 1 }
		// Row density can never be below partition density: restricting to
		// non-zero rows only concentrates the same non-zeros.
		return inUnit(s.PartitionDensity) && inUnit(s.RowDensity) &&
			inUnit(s.NonZeroRowFrac) && s.RowDensity >= s.PartitionDensity-1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsEmptyMatrix(t *testing.T) {
	s := StatsFor(NewBuilder(10, 10).Build(), 8)
	if s.NonZeroTiles != 0 || s.PartitionDensity != 0 {
		t.Fatalf("empty matrix stats = %+v", s)
	}
}

// TestTileBuilderReuse: Reset and Build reuse one builder across tiles of
// different sizes and origins — each build equals a fresh builder's Tile,
// and a warm rebuild allocates nothing.
func TestTileBuilderReuse(t *testing.T) {
	fill := func(b *TileBuilder, p int, seed uint64) {
		r := xrand.New(seed)
		for k := 0; k < 3*p; k++ {
			b.Set(r.Intn(p), r.Intn(p), float64(r.Intn(5)))
		}
	}
	reused := new(TileBuilder)
	for seed, p := range []int{8, 64, 3, 64} {
		fresh := NewTileBuilder(p, 10*p, 20*p)
		fill(fresh, p, uint64(seed))
		want := fresh.Tile()
		reused.Reset(p, 10*p, 20*p)
		fill(reused, p, uint64(seed))
		if got := reused.Build(); !got.EqualValues(want) || got.NonZeroRows() != want.NonZeroRows() {
			t.Fatalf("p=%d: reused builder built a different tile", p)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		reused.Reset(64, 0, 0)
		fill(reused, 64, 3)
		reused.Build()
	})
	if allocs != 0 {
		t.Fatalf("warm Reset+Build makes %v allocs, want 0", allocs)
	}
}
