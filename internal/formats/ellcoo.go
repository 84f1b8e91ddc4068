package formats

import "copernicus/internal/matrix"

// ELLCOOEnc stores a tile in the hybrid ELL+COO form (§2): an ELL
// rectangle capped at width cap holds the first entries of every row, and
// rows longer than the cap spill their excess into a COO tuple list. The
// hybrid bounds ELL's padding explosion on matrices with a few long rows
// — the reason cuSPARSE's HYB format exists. Extension format; the paper
// describes it but measures plain ELL.
type ELLCOOEnc struct {
	p, w int // tile edge and capped rectangle width
	idx  []int32
	vals []float64
	// COO spill, sentinel-terminated like COOEnc.
	srow []int32
	scol []int32
	sval []float64
	nnz  int
	nzr  int
}

func encodeELLCOO(t *matrix.Tile, cap int) *ELLCOOEnc {
	w := 0
	for i := 0; i < t.P; i++ {
		if n := t.RowNNZ(i); n > w {
			w = n
		}
	}
	if w > cap {
		w = cap
	}
	e := &ELLCOOEnc{p: t.P, w: w, nnz: t.NNZ(), nzr: t.NonZeroRows()}
	e.idx = make([]int32, t.P*w)
	e.vals = make([]float64, t.P*w)
	for i := range e.idx {
		e.idx[i] = ellPad
	}
	for i := 0; i < t.P; i++ {
		cols, vals := t.RowView(i)
		take := min(len(cols), w)
		copy(e.idx[i*w:], cols[:take])
		copy(e.vals[i*w:], vals[:take])
		for k := take; k < len(cols); k++ {
			e.srow = append(e.srow, int32(i))
			e.scol = append(e.scol, cols[k])
			e.sval = append(e.sval, vals[k])
		}
	}
	e.srow = append(e.srow, cooSentinel)
	e.scol = append(e.scol, cooSentinel)
	e.sval = append(e.sval, 0)
	return e
}

// Kind implements Encoded.
func (e *ELLCOOEnc) Kind() Kind { return ELLCOO }

// P implements Encoded.
func (e *ELLCOOEnc) P() int { return e.p }

// Width returns the capped ELL rectangle width.
func (e *ELLCOOEnc) Width() int { return e.w }

// Spill returns the number of COO spill tuples (sentinel excluded).
func (e *ELLCOOEnc) Spill() int { return len(e.sval) - 1 }

// Decode implements Encoded.
func (e *ELLCOOEnc) Decode() (*matrix.Tile, error) {
	if len(e.idx) != e.p*e.w || len(e.vals) != e.p*e.w {
		return nil, corruptf("ell+coo: rectangle %d/%d for p=%d w=%d", len(e.idx), len(e.vals), e.p, e.w)
	}
	b := matrix.NewTileBuilder(e.p, 0, 0)
	for i := 0; i < e.p; i++ {
		for k := 0; k < e.w; k++ {
			j := e.idx[i*e.w+k]
			if j == ellPad {
				continue
			}
			if j < 0 || int(j) >= e.p {
				return nil, corruptf("ell+coo: column %d out of range at row %d", j, i)
			}
			b.Set(i, int(j), e.vals[i*e.w+k])
		}
	}
	if len(e.srow) == 0 || e.srow[len(e.srow)-1] != cooSentinel {
		return nil, corruptf("ell+coo: missing spill sentinel")
	}
	for k := 0; k < len(e.srow)-1; k++ {
		i, j := e.srow[k], e.scol[k]
		if i < 0 || int(i) >= e.p || j < 0 || int(j) >= e.p {
			return nil, corruptf("ell+coo: spill tuple %d out of range", k)
		}
		b.Set(int(i), int(j), e.sval[k])
	}
	return b.Tile(), nil
}

// Footprint implements Encoded. As with COO, the spill sentinel is
// synthesized locally and does not travel.
func (e *ELLCOOEnc) Footprint() Footprint {
	spill := e.Spill()
	useful := e.nnz * matrix.BytesPerValue
	valueLane := (len(e.vals) + spill) * matrix.BytesPerValue
	idxLane := (len(e.idx) + 2*spill) * matrix.BytesPerIndex
	return Footprint{
		UsefulBytes:    useful,
		MetaBytes:      idxLane + (valueLane - useful),
		ValueLaneBytes: valueLane,
		IndexLaneBytes: idxLane,
	}
}

// Stats implements Encoded. The ELL part processes all rows; the spill is
// scanned like COO.
func (e *ELLCOOEnc) Stats() Stats {
	return Stats{NNZ: e.nnz, NonZeroRows: e.nzr, DotRows: e.p, Width: e.w, Slices: e.Spill()}
}
