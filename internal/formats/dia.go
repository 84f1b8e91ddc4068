package formats

import "copernicus/internal/matrix"

// DIAEnc stores a tile in diagonal form (Fig. 1h, Listing 7): one record
// per non-zero diagonal, holding the diagonal number (0 for the main
// diagonal, negative for diagonals starting on a lower row, positive for
// higher columns) followed by a p-slot lane of values. Slots outside the
// diagonal's extent are padding. The format is ideal for band matrices —
// a pure diagonal tile transfers p values plus a single header word,
// giving near-unit bandwidth utilization — but its decompressor must scan
// every stored diagonal per output row, so scattered non-zeros that open
// many part-empty diagonals hurt twice: padded transfer and long scans.
type DIAEnc struct {
	p      int
	diagNo []int32   // stored diagonal numbers, ascending
	lanes  []float64 // len(diagNo) * p, lane d slot i = value at (i, i+d)
	nnz    int
	nzr    int
}

func encodeDIA(t *matrix.Tile) *DIAEnc {
	p := t.P
	e := &DIAEnc{p: p, nnz: t.NNZ(), nzr: t.NonZeroRows()}
	s := getScratch()
	// Diagonal d = j-i is indexed at d+p-1 in [0, 2p-1).
	count := s.ints(2*p - 1)
	for i := 0; i < p; i++ {
		cols, _ := t.RowView(i)
		for _, j := range cols {
			count[int(j)-i+p-1]++
		}
	}
	lane := s.ints2(2*p - 1) // diagonal index → stored lane number
	for d := 0; d < 2*p-1; d++ {
		if count[d] > 0 {
			lane[d] = int32(len(e.diagNo))
			e.diagNo = append(e.diagNo, int32(d-(p-1)))
		}
	}
	e.lanes = make([]float64, len(e.diagNo)*p)
	for i := 0; i < p; i++ {
		cols, vals := t.RowView(i)
		for k, j := range cols {
			e.lanes[int(lane[int(j)-i+p-1])*p+i] = vals[k]
		}
	}
	putScratch(s)
	return e
}

// Kind implements Encoded.
func (e *DIAEnc) Kind() Kind { return DIA }

// P implements Encoded.
func (e *DIAEnc) P() int { return e.p }

// Diagonals returns the number of stored diagonals.
func (e *DIAEnc) Diagonals() int { return len(e.diagNo) }

// DiagNo exposes the stored diagonal numbers for the hardware model.
func (e *DIAEnc) DiagNo() []int32 { return e.diagNo }

// Lane returns the value lane of stored diagonal k (slot i holds the
// value at tile position (i, i+d)).
func (e *DIAEnc) Lane(k int) []float64 { return e.lanes[k*e.p : (k+1)*e.p] }

// Decode implements Encoded.
func (e *DIAEnc) Decode() (*matrix.Tile, error) {
	if len(e.lanes) != len(e.diagNo)*e.p {
		return nil, corruptf("dia: %d lane slots for %d diagonals of p=%d", len(e.lanes), len(e.diagNo), e.p)
	}
	b := matrix.NewTileBuilder(e.p, 0, 0)
	for k, d := range e.diagNo {
		if int(d) <= -e.p || int(d) >= e.p {
			return nil, corruptf("dia: diagonal number %d out of range", d)
		}
		if k > 0 && e.diagNo[k-1] >= d {
			return nil, corruptf("dia: diagonal numbers not ascending at %d", k)
		}
		lane := e.Lane(k)
		for i := 0; i < e.p; i++ {
			j := i + int(d)
			if j < 0 || j >= e.p {
				if lane[i] != 0 {
					return nil, corruptf("dia: out-of-extent slot %d on diagonal %d holds a value", i, d)
				}
				continue
			}
			if lane[i] != 0 {
				b.Set(i, j, lane[i])
			}
		}
	}
	return b.Tile(), nil
}

// Footprint implements Encoded. Every stored diagonal transfers p value
// slots plus its header word; in-band zeros and out-of-extent padding are
// metadata, as is the header (the paper's "slight difference" that keeps
// even a pure diagonal matrix just under full utilization).
func (e *DIAEnc) Footprint() Footprint {
	useful := e.nnz * matrix.BytesPerValue
	valueLane := len(e.lanes) * matrix.BytesPerValue
	idxLane := len(e.diagNo) * matrix.BytesPerIndex
	return Footprint{
		UsefulBytes:    useful,
		MetaBytes:      idxLane + (valueLane - useful),
		ValueLaneBytes: valueLane,
		IndexLaneBytes: idxLane,
	}
}

// Stats implements Encoded.
func (e *DIAEnc) Stats() Stats {
	return Stats{NNZ: e.nnz, NonZeroRows: e.nzr, DotRows: e.nzr, Diagonals: len(e.diagNo)}
}
