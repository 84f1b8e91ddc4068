package formats

import "copernicus/internal/matrix"

// DenseEnc is the uncompressed baseline: all p² values are transmitted in
// row-major order with no metadata. Its σ is 1 by definition (Eq. 1) and
// its bandwidth utilization equals the tile density — transmitted zeros
// are transfer overhead even though they are not metadata in the usual
// sense, which is exactly the inefficiency sparse formats exist to remove.
type DenseEnc struct {
	p   int
	val []float64 // p*p row-major, zeros included
	nnz int
	nzr int
}

func encodeDense(t *matrix.Tile) *DenseEnc {
	e := &DenseEnc{p: t.P, nnz: t.NNZ(), nzr: t.NonZeroRows()}
	e.val = t.Dense()
	return e
}

// Kind implements Encoded.
func (e *DenseEnc) Kind() Kind { return Dense }

// P implements Encoded.
func (e *DenseEnc) P() int { return e.p }

// Values exposes the row-major payload for the hardware model.
func (e *DenseEnc) Values() []float64 { return e.val }

// Decode implements Encoded.
func (e *DenseEnc) Decode() (*matrix.Tile, error) {
	if len(e.val) != e.p*e.p {
		return nil, corruptf("dense: %d values for p=%d", len(e.val), e.p)
	}
	b := matrix.NewTileBuilder(e.p, 0, 0)
	for i := 0; i < e.p; i++ {
		for j := 0; j < e.p; j++ {
			if v := e.val[i*e.p+j]; v != 0 {
				b.Set(i, j, v)
			}
		}
	}
	return b.Tile(), nil
}

// Footprint implements Encoded. The p² transmitted words split into the
// nnz useful values and the transmitted zeros, which count against
// utilization as overhead.
func (e *DenseEnc) Footprint() Footprint {
	total := e.p * e.p * matrix.BytesPerValue
	useful := e.nnz * matrix.BytesPerValue
	return Footprint{
		UsefulBytes:    useful,
		MetaBytes:      total - useful,
		ValueLaneBytes: total,
	}
}

// Stats implements Encoded. Dense performs a dot product for every row.
func (e *DenseEnc) Stats() Stats {
	return Stats{NNZ: e.nnz, NonZeroRows: e.nzr, DotRows: e.p}
}
