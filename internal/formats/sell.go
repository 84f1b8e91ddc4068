package formats

import "copernicus/internal/matrix"

// SELLEnc stores a tile in sliced-Ellpack form (§2): rows are cut into
// slices of SELLSlice rows and ELL is applied per slice, so each slice
// pays padding only up to its own longest row instead of the tile-wide
// maximum. One width word per slice is the extra metadata. SELL is an
// extension format: the paper describes it but measures plain ELL.
type SELLEnc struct {
	p, c   int     // tile edge and slice height
	widths []int32 // per-slice rectangle width
	idx    []int32 // concatenated per-slice rectangles, row-major in slice
	vals   []float64
	nnz    int
	nzr    int
}

func encodeSELL(t *matrix.Tile, c int) *SELLEnc {
	if t.P%c != 0 {
		panic("formats: SELL requires p divisible by slice height")
	}
	e := &SELLEnc{p: t.P, c: c, nnz: t.NNZ(), nzr: t.NonZeroRows()}
	e.widths = make([]int32, 0, t.P/c)
	total := 0
	for s := 0; s < t.P/c; s++ {
		w := 0
		for i := s * c; i < (s+1)*c; i++ {
			if n := t.RowNNZ(i); n > w {
				w = n
			}
		}
		e.widths = append(e.widths, int32(w))
		total += c * w
	}
	e.idx = make([]int32, total)
	e.vals = make([]float64, total)
	for k := range e.idx {
		e.idx[k] = ellPad
	}
	base := 0
	for s, w32 := range e.widths {
		w := int(w32)
		for r := 0; r < c; r++ {
			cols, vals := t.RowView(s*c + r)
			copy(e.idx[base+r*w:], cols)
			copy(e.vals[base+r*w:], vals)
		}
		base += c * w
	}
	return e
}

// Kind implements Encoded.
func (e *SELLEnc) Kind() Kind { return SELL }

// P implements Encoded.
func (e *SELLEnc) P() int { return e.p }

// SliceHeight returns the slice height C.
func (e *SELLEnc) SliceHeight() int { return e.c }

// Widths exposes the per-slice rectangle widths.
func (e *SELLEnc) Widths() []int32 { return e.widths }

// Decode implements Encoded.
func (e *SELLEnc) Decode() (*matrix.Tile, error) {
	if len(e.widths) != e.p/e.c {
		return nil, corruptf("sell: %d slices for p=%d c=%d", len(e.widths), e.p, e.c)
	}
	b := matrix.NewTileBuilder(e.p, 0, 0)
	base := 0
	for s, w32 := range e.widths {
		w := int(w32)
		if w < 0 || w > e.p {
			return nil, corruptf("sell: slice %d width %d out of range", s, w)
		}
		if base+e.c*w > len(e.idx) || len(e.idx) != len(e.vals) {
			return nil, corruptf("sell: rectangle overflow at slice %d", s)
		}
		for r := 0; r < e.c; r++ {
			for k := 0; k < w; k++ {
				j := e.idx[base+r*w+k]
				if j == ellPad {
					continue
				}
				if j < 0 || int(j) >= e.p {
					return nil, corruptf("sell: column %d out of range in slice %d", j, s)
				}
				if e.vals[base+r*w+k] == 0 {
					return nil, corruptf("sell: explicit zero in slice %d", s)
				}
				b.Set(s*e.c+r, int(j), e.vals[base+r*w+k])
			}
		}
		base += e.c * w
	}
	if base != len(e.idx) {
		return nil, corruptf("sell: %d trailing rectangle slots", len(e.idx)-base)
	}
	return b.Tile(), nil
}

// Footprint implements Encoded.
func (e *SELLEnc) Footprint() Footprint {
	useful := e.nnz * matrix.BytesPerValue
	valueLane := len(e.vals) * matrix.BytesPerValue
	idxLane := len(e.idx)*matrix.BytesPerIndex + len(e.widths)*matrix.BytesPerOffset
	return Footprint{
		UsefulBytes:    useful,
		MetaBytes:      idxLane + (valueLane - useful),
		ValueLaneBytes: valueLane,
		IndexLaneBytes: idxLane,
	}
}

// Stats implements Encoded. Like ELL, SELL processes every row; its gain
// is the smaller transferred rectangle, and Width records the largest
// slice width.
func (e *SELLEnc) Stats() Stats {
	maxW := 0
	for _, w := range e.widths {
		if int(w) > maxW {
			maxW = int(w)
		}
	}
	return Stats{NNZ: e.nnz, NonZeroRows: e.nzr, DotRows: e.p, Width: maxW, Slices: len(e.widths)}
}
