package formats

import "copernicus/internal/matrix"

// ELLEnc stores a tile in Ellpack form (Fig. 1g, Listing 5): each row's
// non-zeros are pushed to the left into a rectangular p×W array of values
// with a matching array of column indices, where W is the longest row's
// non-zero count and short rows are padded with an explicit -1 index. The
// fixed rectangle makes all accesses position-independent, so both arrays
// partition across BRAM banks and the decompressor is a single fully
// unrolled gather per row — but every row of the tile is processed,
// including all-zero rows, and the padding travels over AXI as dead
// metadata.
//
// The paper allocates the on-chip arrays with width formats.ELLWidth (6);
// the transferred rectangle uses the tile's true width W, which is what
// the bandwidth figures respond to.
type ELLEnc struct {
	p, w int
	idx  []int32   // p*w, row-major; ellPad marks padding
	vals []float64 // p*w, row-major
	nnz  int
	nzr  int
}

// ellPad is the explicit padding index of Fig. 1g.
const ellPad = int32(-1)

func encodeELL(t *matrix.Tile) *ELLEnc {
	w := 0
	for i := 0; i < t.P; i++ {
		if n := t.RowNNZ(i); n > w {
			w = n
		}
	}
	e := &ELLEnc{p: t.P, w: w, nnz: t.NNZ(), nzr: t.NonZeroRows()}
	e.idx = make([]int32, t.P*w)
	e.vals = make([]float64, t.P*w)
	for i := range e.idx {
		e.idx[i] = ellPad
	}
	for i := 0; i < t.P; i++ {
		cols, vals := t.RowView(i)
		copy(e.idx[i*w:], cols)
		copy(e.vals[i*w:], vals)
	}
	return e
}

// Kind implements Encoded.
func (e *ELLEnc) Kind() Kind { return ELL }

// P implements Encoded.
func (e *ELLEnc) P() int { return e.p }

// Width returns the rectangle width W (the longest row's nnz).
func (e *ELLEnc) Width() int { return e.w }

// Idx exposes the padded index rectangle for the hardware model.
func (e *ELLEnc) Idx() []int32 { return e.idx }

// Values exposes the padded value rectangle for the hardware model.
func (e *ELLEnc) Values() []float64 { return e.vals }

// Decode implements Encoded.
func (e *ELLEnc) Decode() (*matrix.Tile, error) {
	if len(e.idx) != e.p*e.w || len(e.vals) != e.p*e.w {
		return nil, corruptf("ell: rectangle %d/%d for p=%d w=%d", len(e.idx), len(e.vals), e.p, e.w)
	}
	b := matrix.NewTileBuilder(e.p, 0, 0)
	for i := 0; i < e.p; i++ {
		for k := 0; k < e.w; k++ {
			j := e.idx[i*e.w+k]
			if j == ellPad {
				if e.vals[i*e.w+k] != 0 {
					return nil, corruptf("ell: padded slot (%d,%d) holds a value", i, k)
				}
				continue
			}
			if j < 0 || int(j) >= e.p {
				return nil, corruptf("ell: column %d out of range at row %d", j, i)
			}
			if e.vals[i*e.w+k] == 0 {
				return nil, corruptf("ell: explicit zero at row %d slot %d", i, k)
			}
			b.Set(i, int(j), e.vals[i*e.w+k])
		}
	}
	return b.Tile(), nil
}

// Footprint implements Encoded. Both rectangles travel in full; padding
// slots and all indices are metadata.
func (e *ELLEnc) Footprint() Footprint {
	useful := e.nnz * matrix.BytesPerValue
	valueLane := len(e.vals) * matrix.BytesPerValue
	idxLane := len(e.idx) * matrix.BytesPerIndex
	return Footprint{
		UsefulBytes:    useful,
		MetaBytes:      idxLane + (valueLane - useful),
		ValueLaneBytes: valueLane,
		IndexLaneBytes: idxLane,
	}
}

// Stats implements Encoded. ELL cannot skip all-zero rows (the direction
// of compression hides row occupancy), so every tile row gets a dot
// product — the structural reason σ_ELL tracks the dense baseline.
func (e *ELLEnc) Stats() Stats {
	return Stats{NNZ: e.nnz, NonZeroRows: e.nzr, DotRows: e.p, Width: e.w}
}
