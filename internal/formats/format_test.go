package formats

import (
	"errors"
	"flag"
	"slices"
	"testing"
	"testing/quick"

	"copernicus/internal/matrix"
	"copernicus/internal/xrand"
)

// randomTile builds a random p×p tile with the given density.
func randomTile(seed uint64, p int, density float64) *matrix.Tile {
	r := xrand.New(seed)
	b := matrix.NewTileBuilder(p, 0, 0)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if r.Float64() < density {
				b.Set(i, j, r.ValueIn(-4, 4))
			}
		}
	}
	return b.Tile()
}

// fig1Tile reproduces the 8×8 example of Fig. 1: non-zeros at (0,3),
// (4,7), and (7,7).
func fig1Tile() *matrix.Tile {
	b := matrix.NewTileBuilder(8, 0, 0)
	b.Set(0, 3, 1)
	b.Set(4, 7, 2)
	b.Set(7, 7, 3)
	return b.Tile()
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		Dense: "DENSE", CSR: "CSR", CSC: "CSC", BCSR: "BCSR", COO: "COO",
		DOK: "DOK", LIL: "LIL", ELL: "ELL", DIA: "DIA",
		SELL: "SELL", ELLCOO: "ELL+COO", JDS: "JDS", SELLCS: "SELL-C-sig",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind %d String = %q, want %q", int(k), k.String(), s)
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Errorf("unknown kind String = %q", Kind(99).String())
	}
}

func TestFormatLists(t *testing.T) {
	if len(Core()) != 8 {
		t.Fatalf("Core() has %d formats, want 8", len(Core()))
	}
	if len(Sparse()) != 7 {
		t.Fatalf("Sparse() has %d formats, want 7 (the paper's set)", len(Sparse()))
	}
	if len(All()) != int(numKinds) {
		t.Fatalf("All() has %d formats, want %d", len(All()), int(numKinds))
	}
	seen := map[Kind]bool{}
	for _, k := range All() {
		if seen[k] {
			t.Fatalf("duplicate kind %v in All()", k)
		}
		seen[k] = true
	}
}

// TestRoundTripAllFormats is the central property test: for every format,
// encode→decode is the identity on random tiles across sizes and
// densities.
func TestRoundTripAllFormats(t *testing.T) {
	for _, k := range All() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			check := func(seed uint64) bool {
				r := xrand.New(seed)
				p := []int{8, 16, 32}[r.Intn(3)]
				density := []float64{0, 0.01, 0.1, 0.3, 0.7, 1}[r.Intn(6)]
				tile := randomTile(seed, p, density)
				enc := Encode(k, tile)
				dec, err := enc.Decode()
				if err != nil {
					t.Logf("decode error: %v", err)
					return false
				}
				return dec.EqualValues(tile)
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRoundTripStructured covers the structured shapes the random tiles
// miss: diagonal, single row, single column, and checkerboard tiles.
func TestRoundTripStructured(t *testing.T) {
	shapes := map[string]func(p int) *matrix.Tile{
		"diagonal": func(p int) *matrix.Tile {
			tl := matrix.NewTileBuilder(p, 0, 0)
			for i := 0; i < p; i++ {
				tl.Set(i, i, float64(i+1))
			}
			return tl.Tile()
		},
		"single-row": func(p int) *matrix.Tile {
			tl := matrix.NewTileBuilder(p, 0, 0)
			for j := 0; j < p; j++ {
				tl.Set(p/2, j, float64(j+1))
			}
			return tl.Tile()
		},
		"single-col": func(p int) *matrix.Tile {
			tl := matrix.NewTileBuilder(p, 0, 0)
			for i := 0; i < p; i++ {
				tl.Set(i, p/2, float64(i+1))
			}
			return tl.Tile()
		},
		"checkerboard": func(p int) *matrix.Tile {
			tl := matrix.NewTileBuilder(p, 0, 0)
			for i := 0; i < p; i++ {
				for j := (i % 2); j < p; j += 2 {
					tl.Set(i, j, 1)
				}
			}
			return tl.Tile()
		},
		"anti-diagonal": func(p int) *matrix.Tile {
			tl := matrix.NewTileBuilder(p, 0, 0)
			for i := 0; i < p; i++ {
				tl.Set(i, p-1-i, float64(i+1))
			}
			return tl.Tile()
		},
	}
	for name, mk := range shapes {
		for _, k := range All() {
			for _, p := range []int{8, 16, 32} {
				tile := mk(p)
				enc := Encode(k, tile)
				dec, err := enc.Decode()
				if err != nil {
					t.Fatalf("%s/%s p=%d: decode: %v", k, name, p, err)
				}
				if !dec.EqualValues(tile) {
					t.Fatalf("%s/%s p=%d: round trip mismatch", k, name, p)
				}
			}
		}
	}
}

func TestFig1KnownAnswerCSR(t *testing.T) {
	e := encodeCSR(fig1Tile())
	// Paper Fig. 1b: offsets 1,1,1,1,2,2,2,3; indices 3,7,7.
	wantOff := []int32{1, 1, 1, 1, 2, 2, 2, 3}
	for i, w := range wantOff {
		if e.offsets[i] != w {
			t.Fatalf("offsets[%d] = %d, want %d", i, e.offsets[i], w)
		}
	}
	wantIdx := []int32{3, 7, 7}
	for i, w := range wantIdx {
		if e.colIdx[i] != w {
			t.Fatalf("colIdx[%d] = %d, want %d", i, e.colIdx[i], w)
		}
	}
}

func TestFig1KnownAnswerCOO(t *testing.T) {
	e := encodeCOO(fig1Tile())
	// Paper Fig. 1d: tuples (0,3), (4,7), (7,7).
	want := [][2]int32{{0, 3}, {4, 7}, {7, 7}}
	if e.Tuples() != 3 {
		t.Fatalf("tuples = %d, want 3", e.Tuples())
	}
	for i, w := range want {
		if e.rows[i] != w[0] || e.cols[i] != w[1] {
			t.Fatalf("tuple %d = (%d,%d), want (%d,%d)", i, e.rows[i], e.cols[i], w[0], w[1])
		}
	}
}

func TestFig1KnownAnswerDIA(t *testing.T) {
	e := encodeDIA(fig1Tile())
	// Paper Fig. 1h: diagonals 0 (holding the (7,7) entry) and 3 (holding
	// (0,3) and (4,7)).
	if e.Diagonals() != 2 {
		t.Fatalf("diagonals = %d, want 2", e.Diagonals())
	}
	if e.diagNo[0] != 0 || e.diagNo[1] != 3 {
		t.Fatalf("diagonal numbers = %v, want [0 3]", e.diagNo)
	}
}

func TestFig1KnownAnswerBCSR(t *testing.T) {
	e := encodeBCSR(fig1Tile(), 4)
	// Paper Fig. 1c: offsets 1,2 — one block in each block row — and block
	// columns 0 and 4.
	if e.offsets[0] != 1 || e.offsets[1] != 2 {
		t.Fatalf("offsets = %v, want [1 2]", e.offsets)
	}
	if e.colIdx[0] != 0 || e.colIdx[1] != 4 {
		t.Fatalf("block columns = %v, want [0 4]", e.colIdx)
	}
	if len(e.vals) != 32 {
		t.Fatalf("block values = %d, want 32 (two 4x4 blocks)", len(e.vals))
	}
}

func TestFig1KnownAnswerELL(t *testing.T) {
	e := encodeELL(fig1Tile())
	if e.Width() != 1 {
		t.Fatalf("ELL width = %d, want 1 (longest row has one non-zero)", e.Width())
	}
	// Row 0 holds column 3; rows 1-3 padded.
	if e.idx[0] != 3 || e.idx[1] != ellPad {
		t.Fatalf("ELL idx start = %v", e.idx[:2])
	}
}

// TestFootprintInvariants checks the byte accounting identities for every
// format: lanes sum to the total, useful ≤ total, useful = nnz·4.
func TestFootprintInvariants(t *testing.T) {
	for _, k := range All() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			check := func(seed uint64) bool {
				r := xrand.New(seed)
				p := []int{8, 16, 32}[r.Intn(3)]
				tile := randomTile(seed, p, 0.25)
				enc := Encode(k, tile)
				f := enc.Footprint()
				if f.UsefulBytes != tile.NNZ()*matrix.BytesPerValue {
					t.Logf("%v: useful %d vs nnz %d", k, f.UsefulBytes, tile.NNZ())
					return false
				}
				if f.ValueLaneBytes+f.IndexLaneBytes != f.TotalBytes() {
					t.Logf("%v: lanes %d+%d != total %d", k, f.ValueLaneBytes, f.IndexLaneBytes, f.TotalBytes())
					return false
				}
				u := f.Utilization()
				return u >= 0 && u <= 1
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCOOUtilizationConstant reproduces the §6.3 observation: COO's
// bandwidth utilization is pinned near 1/3 at any density (the sentinel
// tuple pulls it fractionally below).
func TestCOOUtilizationConstant(t *testing.T) {
	for _, d := range []float64{0.05, 0.2, 0.5, 0.9} {
		tile := randomTile(5, 16, d)
		u := Encode(COO, tile).Footprint().Utilization()
		if u > 1.0/3.0+1e-9 || u < 0.30 {
			t.Errorf("COO utilization at density %v = %.4f, want ~1/3", d, u)
		}
	}
}

// TestDIAUtilizationDiagonal reproduces §6.3: DIA on a pure diagonal tile
// utilizes nearly the whole bandwidth (only the header word is overhead).
func TestDIAUtilizationDiagonal(t *testing.T) {
	tb := matrix.NewTileBuilder(16, 0, 0)
	for i := 0; i < 16; i++ {
		tb.Set(i, i, 1)
	}
	tile := tb.Tile()
	u := Encode(DIA, tile).Footprint().Utilization()
	want := 16.0 * matrix.BytesPerValue / (17.0 * matrix.BytesPerValue)
	if u != want {
		t.Fatalf("DIA diagonal utilization = %.4f, want %.4f", u, want)
	}
}

// TestDenseUtilizationIsDensity: dense transmits everything, so its
// utilization equals the tile density.
func TestDenseUtilizationIsDensity(t *testing.T) {
	check := func(seed uint64) bool {
		tile := randomTile(seed, 16, 0.3)
		u := Encode(Dense, tile).Footprint().Utilization()
		return u == tile.Density()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestStatsInvariants checks the structural stats every format reports.
func TestStatsInvariants(t *testing.T) {
	for _, k := range All() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			check := func(seed uint64) bool {
				r := xrand.New(seed)
				p := []int{8, 16, 32}[r.Intn(3)]
				tile := randomTile(seed, p, 0.2)
				s := Encode(k, tile).Stats()
				if s.NNZ != tile.NNZ() || s.NonZeroRows != tile.NonZeroRows() {
					return false
				}
				// Every format must perform at least the non-zero rows'
				// dot products and at most p.
				return s.DotRows >= s.NonZeroRows && s.DotRows <= p
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestELLDotRowsIsP(t *testing.T) {
	tile := fig1Tile()
	if s := Encode(ELL, tile).Stats(); s.DotRows != 8 {
		t.Fatalf("ELL DotRows = %d, want 8 (cannot skip all-zero rows)", s.DotRows)
	}
	if s := Encode(CSR, tile).Stats(); s.DotRows != 3 {
		t.Fatalf("CSR DotRows = %d, want 3", s.DotRows)
	}
}

func TestBCSRDotRowsCoversBlocks(t *testing.T) {
	// One non-zero in one block row: BCSR processes all 4 rows of that
	// block row even though only one is non-zero.
	tb := matrix.NewTileBuilder(8, 0, 0)
	tb.Set(1, 1, 5)
	tile := tb.Tile()
	s := Encode(BCSR, tile).Stats()
	if s.DotRows != 4 || s.Blocks != 1 || s.BlockRows != 1 {
		t.Fatalf("BCSR stats = %+v, want DotRows=4 Blocks=1 BlockRows=1", s)
	}
}

func TestEmptyTileAllFormats(t *testing.T) {
	for _, k := range All() {
		tile := matrix.NewTileBuilder(8, 0, 0).Tile()
		enc := Encode(k, tile)
		dec, err := enc.Decode()
		if err != nil {
			t.Fatalf("%v: empty tile decode: %v", k, err)
		}
		if dec.NNZ() != 0 {
			t.Fatalf("%v: empty tile decoded with %d non-zeros", k, dec.NNZ())
		}
		if f := enc.Footprint(); f.UsefulBytes != 0 {
			t.Fatalf("%v: empty tile claims %d useful bytes", k, f.UsefulBytes)
		}
	}
}

// TestCorruptionDetection injects stream corruption per format and checks
// the decoder reports ErrCorrupt rather than silently mis-decoding.
func TestCorruptionDetection(t *testing.T) {
	tile := randomTile(9, 8, 0.3)
	cases := []struct {
		name    string
		corrupt func() Encoded
	}{
		{"csr column out of range", func() Encoded {
			e := encodeCSR(tile)
			e.colIdx[0] = 99
			return e
		}},
		{"csr offsets decrease", func() Encoded {
			e := encodeCSR(tile)
			e.offsets[3] = e.offsets[2] - 1
			e.offsets[e.p-1] = int32(len(e.vals)) // keep the total consistent
			return e
		}},
		{"csr offset overruns stream", func() Encoded {
			// The fuzz-found class: a middle offset larger than the
			// stream, with the final offset still consistent.
			e := encodeCSR(tile)
			e.offsets[0] = int32(len(e.vals)) + 10
			return e
		}},
		{"csc offset overruns stream", func() Encoded {
			e := encodeCSC(tile)
			e.offsets[0] = int32(len(e.vals)) + 10
			return e
		}},
		{"bcsr offset overruns blocks", func() Encoded {
			e := encodeBCSR(tile, 4)
			e.offsets[0] = int32(len(e.colIdx)) + 3
			return e
		}},
		{"csc row out of range", func() Encoded {
			e := encodeCSC(tile)
			e.rowIdx[0] = -2
			return e
		}},
		{"bcsr bad block column", func() Encoded {
			e := encodeBCSR(tile, 4)
			e.colIdx[0] = 3 // not block-aligned
			return e
		}},
		{"coo missing sentinel", func() Encoded {
			e := encodeCOO(tile)
			e.rows[len(e.rows)-1] = 0
			return e
		}},
		{"coo out of range", func() Encoded {
			e := encodeCOO(tile)
			e.cols[0] = 64
			return e
		}},
		{"dok bad key", func() Encoded {
			e := encodeDOK(tile)
			for s, k := range e.keys {
				if k != dokEmpty {
					e.keys[s] = dokKey(20, 20)
					break
				}
			}
			return e
		}},
		{"lil rows not ascending", func() Encoded {
			e := encodeLIL(tile)
			for j := range e.colRows {
				if len(e.colRows[j]) >= 2 {
					e.colRows[j][0], e.colRows[j][1] = e.colRows[j][1], e.colRows[j][0]
					break
				}
			}
			return e
		}},
		{"ell column out of range", func() Encoded {
			e := encodeELL(tile)
			for i, v := range e.idx {
				if v != ellPad {
					e.idx[i] = 88
					break
				}
			}
			return e
		}},
		{"dia out of extent", func() Encoded {
			e := encodeDIA(tile)
			// Force a value into an out-of-extent slot of a non-main
			// diagonal, if one exists.
			for k, d := range e.diagNo {
				if d > 0 {
					e.lanes[k*e.p+e.p-1] = 7 // row p-1, col p-1+d out of range
					return e
				}
				if d < 0 {
					e.lanes[k*e.p] = 7 // row 0, col d < 0 out of range
					return e
				}
			}
			// All-main-diagonal tile: corrupt the lane count instead.
			e.lanes = e.lanes[:len(e.lanes)-1]
			return e
		}},
		{"jds broken permutation", func() Encoded {
			e := encodeJDS(tile)
			e.perm[0] = e.perm[1]
			return e
		}},
		{"sell width out of range", func() Encoded {
			e := encodeSELL(tile, 4)
			e.widths[0] = int32(e.p + 1)
			return e
		}},
		{"dok duplicate key", func() Encoded {
			e := encodeDOK(tile)
			first := -1
			for s, k := range e.keys {
				if k == dokEmpty {
					continue
				}
				if first < 0 {
					first = s
					continue
				}
				e.keys[s] = e.keys[first]
				break
			}
			return e
		}},
		{"csr extra zero write over a stored cell", func() Encoded {
			// Append a (row, col, 0) entry after the last stored entry
			// of a non-empty row and shift the later offsets: decoded
			// with dense-array semantics the zero empties that cell.
			e := encodeCSR(tile)
			i := 0
			for e.offsets[i] == 0 {
				i++
			}
			at := int(e.offsets[i])
			e.colIdx = slices.Insert(e.colIdx, at, e.colIdx[at-1])
			e.vals = slices.Insert(e.vals, at, 0)
			for k := i; k < e.p; k++ {
				e.offsets[k]++
			}
			return e
		}},
	}
	// Corruptions no decode may survive, not even as a different tile.
	mustErr := map[string]bool{"dok duplicate key": true}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			enc := c.corrupt()
			dec, err := enc.Decode()
			if err == nil {
				if mustErr[c.name] {
					t.Fatal("corrupted stream decoded without error")
				}
				// Corruption may accidentally produce a valid different
				// encoding; it must at least not equal the source tile.
				if dec.EqualValues(tile) {
					t.Fatal("corrupted stream decoded to the original tile without error")
				}
				return
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v does not wrap ErrCorrupt", err)
			}
		})
	}
}

// TestDecodeAllocSparse: decoding is O(nnz + p), never O(p²). A p=256
// tile with 4 non-zeros decodes in every format within a few KiB; a
// dense p×p staging buffer alone would be 512 KiB.
func TestDecodeAllocSparse(t *testing.T) {
	const p, limit = 256, 32 << 10
	tb := matrix.NewTileBuilder(p, 0, 0)
	for _, c := range [][2]int{{0, 0}, {7, 200}, {128, 3}, {255, 255}} {
		tb.Set(c[0], c[1], float64(c[0]+c[1]+1))
	}
	tile := tb.Tile()
	// A fixed iteration count: allocation is deterministic, so a short
	// run measures it exactly.
	bt := flag.Lookup("test.benchtime").Value
	old := bt.String()
	if err := bt.Set("50x"); err != nil {
		t.Fatal(err)
	}
	defer bt.Set(old)
	for _, k := range All() {
		enc := Encode(k, tile)
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := enc.Decode(); err != nil {
					b.Fatal(err)
				}
			}
		})
		if got := res.AllocedBytesPerOp(); got >= limit {
			t.Errorf("%v: decode allocates %d B/op, want < %d", k, got, limit)
		}
	}
}

func TestEncodeUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Encode with unknown kind did not panic")
		}
	}()
	Encode(Kind(12345), matrix.NewTileBuilder(8, 0, 0).Tile())
}

// TestSELLTighterThanELL: slicing can only shrink the padded rectangle.
func TestSELLTighterThanELL(t *testing.T) {
	check := func(seed uint64) bool {
		tile := randomTile(seed, 16, 0.15)
		ell := Encode(ELL, tile).Footprint().TotalBytes()
		sell := Encode(SELL, tile).Footprint().TotalBytes()
		// SELL adds one width word per slice but saves per-slice padding.
		return sell <= ell+4*matrix.BytesPerOffset
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestJDSNoPadding: JDS stores exactly nnz values.
func TestJDSNoPadding(t *testing.T) {
	check := func(seed uint64) bool {
		tile := randomTile(seed, 16, 0.2)
		e := encodeJDS(tile)
		return len(e.vals) == tile.NNZ()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSELLCSShrinksRectangles: σ-window sorting concentrates long rows
// into the same slices, so SELL-C-σ's padded rectangles never exceed
// unsorted SELL's (the permutation vector is its fixed price).
func TestSELLCSShrinksRectangles(t *testing.T) {
	check := func(seed uint64) bool {
		tile := randomTile(seed, 16, 0.15)
		sell := Encode(SELL, tile).Footprint()
		scs := Encode(SELLCS, tile).Footprint()
		permBytes := 16 * matrix.BytesPerIndex
		return scs.TotalBytes() <= sell.TotalBytes()+permBytes
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestSELLCSWindowLocality: the permutation never moves a row outside
// its σ window.
func TestSELLCSWindowLocality(t *testing.T) {
	tile := randomTile(3, 16, 0.3)
	e := encodeSELLCS(tile, SELLSlice, SELLCSigmaWindow)
	for pos, orig := range e.perm {
		if pos/SELLCSigmaWindow != int(orig)/SELLCSigmaWindow {
			t.Fatalf("row %d moved to position %d, outside its sigma window", orig, pos)
		}
	}
}

// TestELLCOOCapsWidth: the hybrid never exceeds the configured cap.
func TestELLCOOCapsWidth(t *testing.T) {
	// A tile with one full row would force plain ELL to width p.
	tb := matrix.NewTileBuilder(16, 0, 0)
	for j := 0; j < 16; j++ {
		tb.Set(3, j, 1)
	}
	tile := tb.Tile()
	e := encodeELLCOO(tile, ELLWidth)
	if e.Width() != ELLWidth {
		t.Fatalf("hybrid width = %d, want %d", e.Width(), ELLWidth)
	}
	if e.Spill() != 16-ELLWidth {
		t.Fatalf("spill = %d, want %d", e.Spill(), 16-ELLWidth)
	}
}
