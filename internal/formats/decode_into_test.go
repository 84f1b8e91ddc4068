package formats

import (
	"runtime"
	"testing"

	"copernicus/internal/matrix"
)

// denseTile returns a p×p tile with every cell non-zero.
func denseTile(p int) *matrix.Tile {
	b := matrix.NewTileBuilder(p, 0, 0)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			b.Set(i, j, float64(i*p+j+1))
		}
	}
	return b.Tile()
}

// TestDecodeAllocDense: Decode pre-sizes its builder from the stored
// non-zero count, so a fully dense p=256 tile decodes without append
// growth — its 64 Ki writes and the tile's own storage stay under 2 MiB.
func TestDecodeAllocDense(t *testing.T) {
	const p, iters, limit = 256, 4, 2 << 20
	tile := denseTile(p)
	for _, k := range All() {
		enc := Encode(k, tile)
		if _, err := enc.Decode(); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < iters; i++ {
			if _, err := enc.Decode(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if got := (after.TotalAlloc - before.TotalAlloc) / iters; got >= limit {
			t.Errorf("%v: dense p=%d decode allocates %d B/op, want < %d", k, p, got, limit)
		}
	}
}

// TestDecodeIntoWarmNoAlloc: once a builder has grown to a tile's size,
// decoding that tile into it allocates nothing, in every format.
func TestDecodeIntoWarmNoAlloc(t *testing.T) {
	for _, p := range []int{8, 64} {
		tile := randomTile(uint64(p), p, 0.3)
		for _, k := range All() {
			enc := Encode(k, tile)
			b := new(matrix.TileBuilder)
			if _, err := enc.DecodeInto(b); err != nil {
				t.Fatalf("%v p=%d: %v", k, p, err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := enc.DecodeInto(b); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%v p=%d: warm DecodeInto makes %v allocs, want 0", k, p, allocs)
			}
		}
	}
}

// TestDecodeIntoReusedBuilder: one builder, never reset by the caller,
// decodes tiles of every size, density and format in turn — each result
// equals Decode's, so no state leaks from one decode into the next.
func TestDecodeIntoReusedBuilder(t *testing.T) {
	b := new(matrix.TileBuilder)
	seed := uint64(1)
	for _, p := range []int{8, 16, 32, 256} {
		for _, density := range []float64{0, 0.02, 0.3, 1} {
			seed++
			tile := randomTile(seed, p, density)
			for _, k := range All() {
				enc := Encode(k, tile)
				want, err := enc.Decode()
				if err != nil {
					t.Fatalf("%v p=%d d=%g: Decode: %v", k, p, density, err)
				}
				got, err := enc.DecodeInto(b)
				if err != nil {
					t.Fatalf("%v p=%d d=%g: DecodeInto: %v", k, p, density, err)
				}
				if !got.EqualValues(want) || !got.EqualValues(tile) {
					t.Fatalf("%v p=%d d=%g: reused builder decoded a different tile", k, p, density)
				}
			}
		}
	}
}
