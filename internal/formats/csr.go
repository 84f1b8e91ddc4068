package formats

import "copernicus/internal/matrix"

// CSREnc stores a tile in compressed-sparse-row form (Fig. 1b, Listing 1):
// a cumulative offsets array (one entry per row, first element absolute,
// as the paper notes to save the leading zero), column indices, and
// values. Decompression needs one extra offsets read per row before it
// knows how many index/value reads follow, and those reads are sequential
// — the structural facts behind CSR's compute-bound behaviour in §5.2.
type CSREnc struct {
	p       int
	offsets []int32 // len p, cumulative nnz through each row
	colIdx  []int32 // len nnz
	vals    []float64
	nzr     int
	// skip lists the non-empty row indices, built once at encode time so
	// the executable kernel visits only rows with work instead of walking
	// all p offsets per tile — on sparse tiles most rows are empty. It is
	// derived acceleration metadata for the host kernel, not part of the
	// format's wire layout: Footprint and Stats exclude it, and Decode
	// reconstructs the tile from the offsets alone.
	skip []int32
}

func encodeCSR(t *matrix.Tile) *CSREnc {
	nnz := t.NNZ()
	e := &CSREnc{p: t.P, offsets: make([]int32, t.P), nzr: t.NonZeroRows(),
		colIdx: make([]int32, 0, nnz), vals: make([]float64, 0, nnz)}
	e.skip = make([]int32, 0, e.nzr)
	for i := 0; i < t.P; i++ {
		cols, vals := t.RowView(i)
		if len(vals) > 0 {
			e.skip = append(e.skip, int32(i))
		}
		e.colIdx = append(e.colIdx, cols...)
		e.vals = append(e.vals, vals...)
		e.offsets[i] = int32(len(e.vals))
	}
	return e
}

// Kind implements Encoded.
func (e *CSREnc) Kind() Kind { return CSR }

// P implements Encoded.
func (e *CSREnc) P() int { return e.p }

// Offsets exposes the cumulative row offsets for the hardware model.
func (e *CSREnc) Offsets() []int32 { return e.offsets }

// ColIdx exposes the column indices for the hardware model.
func (e *CSREnc) ColIdx() []int32 { return e.colIdx }

// Values exposes the non-zero values for the hardware model.
func (e *CSREnc) Values() []float64 { return e.vals }

// RowRange returns the [start, end) slice of the index/value streams for
// row i, mirroring Listing 1's offsets arithmetic.
func (e *CSREnc) RowRange(i int) (start, end int32) {
	if i > 0 {
		start = e.offsets[i-1]
	}
	return start, e.offsets[i]
}

// Decode implements Encoded.
func (e *CSREnc) Decode() (*matrix.Tile, error) {
	if len(e.offsets) != e.p {
		return nil, corruptf("csr: %d offsets for p=%d", len(e.offsets), e.p)
	}
	if len(e.colIdx) != len(e.vals) {
		return nil, corruptf("csr: %d indices vs %d values", len(e.colIdx), len(e.vals))
	}
	if int(e.offsets[e.p-1]) != len(e.vals) {
		return nil, corruptf("csr: final offset %d vs %d values", e.offsets[e.p-1], len(e.vals))
	}
	b := matrix.NewTileBuilder(e.p, 0, 0)
	prev := int32(0)
	for i := 0; i < e.p; i++ {
		if e.offsets[i] < prev {
			return nil, corruptf("csr: offsets decrease at row %d", i)
		}
		if int(e.offsets[i]) > len(e.vals) {
			return nil, corruptf("csr: offset %d at row %d exceeds %d values", e.offsets[i], i, len(e.vals))
		}
		for k := prev; k < e.offsets[i]; k++ {
			j := e.colIdx[k]
			if j < 0 || int(j) >= e.p {
				return nil, corruptf("csr: column %d out of range at row %d", j, i)
			}
			b.Set(i, int(j), e.vals[k])
		}
		prev = e.offsets[i]
	}
	return b.Tile(), nil
}

// Footprint implements Encoded. Values ride the value lane; column indices
// and offsets ride the index lane — the paper's two parallel streamlines.
func (e *CSREnc) Footprint() Footprint {
	useful := len(e.vals) * matrix.BytesPerValue
	idx := len(e.colIdx)*matrix.BytesPerIndex + len(e.offsets)*matrix.BytesPerOffset
	return Footprint{
		UsefulBytes:    useful,
		MetaBytes:      idx,
		ValueLaneBytes: useful,
		IndexLaneBytes: idx,
	}
}

// Stats implements Encoded.
func (e *CSREnc) Stats() Stats {
	return Stats{NNZ: len(e.vals), NonZeroRows: e.nzr, DotRows: e.nzr}
}
