package formats

import (
	"testing"

	"copernicus/internal/matrix"
)

// Fuzz targets: decoders must never panic on arbitrary streams — they
// either return ErrCorrupt-wrapped errors or a structurally valid tile.
// Seed corpora cover valid encodings and near-miss corruptions; `go
// test` replays the corpus, `go test -fuzz` explores.

func fuzzTileOK(t *testing.T, tile *matrix.Tile, p int) {
	t.Helper()
	if tile.P != p {
		t.Fatalf("decoded tile size %d, want %d", tile.P, p)
	}
	for i := 0; i < p; i++ {
		cols, vals := tile.RowView(i)
		for k, j := range cols {
			if j < 0 || int(j) >= p || k > 0 && j <= cols[k-1] {
				t.Fatalf("row %d columns %v not strictly ascending within [0,%d)", i, cols, p)
			}
			if vals[k] == 0 {
				t.Fatalf("row %d stores a zero at column %d", i, j)
			}
		}
	}
}

// FuzzRoundTrip builds a tile from (row, col, value) byte triples —
// zero values clear cells, repeated cells overwrite — and requires every
// format to decode its own encoding back to that tile.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint8(0), []byte{0, 3, 1, 4, 7, 2, 7, 7, 3})
	f.Add(uint8(1), []byte{})
	f.Add(uint8(2), []byte{5, 5, 9, 5, 5, 0, 2, 9, 250, 2, 1, 4, 2, 9, 6})
	f.Add(uint8(3), []byte{31, 0, 1, 0, 31, 2, 16, 16, 128})
	f.Fuzz(func(t *testing.T, sel uint8, cells []byte) {
		p := 8 * (1 + int(sel)%4) // 8..32: every format's divisibility holds
		b := matrix.NewTileBuilder(p, 0, 0)
		for k := 0; k+2 < len(cells) && k < 3*1024; k += 3 {
			b.Set(int(cells[k])%p, int(cells[k+1])%p, float64(int8(cells[k+2])))
		}
		tile := b.Tile()
		fuzzTileOK(t, tile, p)
		for _, k := range All() {
			dec, err := Encode(k, tile).Decode()
			if err != nil {
				t.Fatalf("%v: decode: %v", k, err)
			}
			if !dec.EqualValues(tile) {
				t.Fatalf("%v: round trip changed the tile", k)
			}
		}
	})
}

func FuzzCSRDecode(f *testing.F) {
	f.Add([]byte{1, 1, 1, 2}, []byte{3, 7}, 8)
	f.Add([]byte{0, 0, 0, 0}, []byte{}, 8)
	f.Add([]byte{2, 1}, []byte{0, 1}, 8) // decreasing offsets
	f.Fuzz(func(t *testing.T, offs, cols []byte, p int) {
		p = 8 + (abs(p) % 3 * 8) // 8, 16, 24 — keep allocation bounded
		e := &CSREnc{p: p}
		e.offsets = make([]int32, p)
		for i := 0; i < p && i < len(offs); i++ {
			e.offsets[i] = int32(offs[i])
		}
		for i := 1; i < p; i++ {
			if e.offsets[i] == 0 {
				e.offsets[i] = e.offsets[i-1]
			}
		}
		n := int(e.offsets[p-1])
		if n < 0 || n > 1024 {
			return
		}
		e.colIdx = make([]int32, n)
		e.vals = make([]float64, n)
		for i := 0; i < n; i++ {
			if i < len(cols) {
				e.colIdx[i] = int32(cols[i]) - 4 // allow negatives
			}
			e.vals[i] = float64(i + 1)
		}
		tile, err := e.Decode()
		if err == nil {
			fuzzTileOK(t, tile, p)
		}
	})
}

func FuzzCOODecode(f *testing.F) {
	f.Add([]byte{0, 3, 4, 7, 7, 7}, 8)
	f.Add([]byte{}, 8)
	f.Add([]byte{200, 200}, 8)
	f.Fuzz(func(t *testing.T, pairs []byte, p int) {
		p = 8 + (abs(p) % 3 * 8)
		e := &COOEnc{p: p}
		for i := 0; i+1 < len(pairs) && i < 512; i += 2 {
			e.rows = append(e.rows, int32(pairs[i])-4)
			e.cols = append(e.cols, int32(pairs[i+1])-4)
			e.vals = append(e.vals, float64(i+1))
		}
		e.rows = append(e.rows, cooSentinel)
		e.cols = append(e.cols, cooSentinel)
		e.vals = append(e.vals, 0)
		tile, err := e.Decode()
		if err == nil {
			fuzzTileOK(t, tile, p)
		}
	})
}

func FuzzDIADecode(f *testing.F) {
	f.Add([]byte{0, 3}, []byte{1, 2, 3}, 8)
	f.Add([]byte{255}, []byte{9}, 8)
	f.Fuzz(func(t *testing.T, diags, vals []byte, p int) {
		p = 8 + (abs(p) % 3 * 8)
		e := &DIAEnc{p: p}
		for i := 0; i < len(diags) && i < 64; i++ {
			e.diagNo = append(e.diagNo, int32(diags[i])-32)
		}
		e.lanes = make([]float64, len(e.diagNo)*p)
		for i := range e.lanes {
			if i < len(vals) {
				e.lanes[i] = float64(vals[i])
			}
		}
		tile, err := e.Decode()
		if err == nil {
			fuzzTileOK(t, tile, p)
		}
	})
}

func FuzzJDSDecode(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, []byte{0, 4}, []byte{1, 2, 3, 4})
	f.Add([]byte{0, 0}, []byte{0}, []byte{})
	f.Fuzz(func(t *testing.T, perm, ptr, cols []byte) {
		const p = 8
		e := &JDSEnc{p: p}
		e.perm = make([]int32, p)
		for i := 0; i < p && i < len(perm); i++ {
			e.perm[i] = int32(perm[i]) - 2
		}
		for i := 0; i < len(ptr) && i < 16; i++ {
			e.ptr = append(e.ptr, int32(ptr[i]))
		}
		if len(e.ptr) == 0 {
			e.ptr = []int32{0}
		}
		n := int(e.ptr[len(e.ptr)-1])
		if n < 0 || n > 512 {
			return
		}
		e.idx = make([]int32, n)
		e.vals = make([]float64, n)
		for i := 0; i < n; i++ {
			if i < len(cols) {
				e.idx[i] = int32(cols[i]) - 2
			}
			e.vals[i] = float64(i + 1)
		}
		tile, err := e.Decode()
		if err == nil {
			fuzzTileOK(t, tile, p)
		}
	})
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
