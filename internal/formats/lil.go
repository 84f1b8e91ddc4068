package formats

import "copernicus/internal/matrix"

// LILEnc stores a tile as the paper's list-of-lists variant (Fig. 1f,
// Listing 4): one list per column holding the row indices and values of
// that column's non-zeros, pushed to the top. Because every column list
// can sit in its own BRAM bank (the array_partition pragmas of Listing 4),
// the decompressor reconstructs a non-zero row with a single parallel
// access: it scans the per-column cursors for the minimum pending row
// index and gathers every column whose head matches. One terminator entry
// per column marks the end of the lists — the "one additional row" of
// transfer the paper charges LIL for.
type LILEnc struct {
	p       int
	colRows [][]int32 // per column: ascending row indices of non-zeros
	colVals [][]float64
	nnz     int
	nzr     int
}

// lilTerm marks the end of a column list; Listing 4 detects it by
// comparing against HEIGHT.
const lilTerm = int32(-1)

func encodeLIL(t *matrix.Tile) *LILEnc {
	p, nnz := t.P, t.NNZ()
	e := &LILEnc{
		p:       p,
		colRows: make([][]int32, p),
		colVals: make([][]float64, p),
		nnz:     nnz,
		nzr:     t.NonZeroRows(),
	}
	s := getScratch()
	cur := s.ints(p) // per-column counts, then scatter cursors
	for i := 0; i < p; i++ {
		cols, _ := t.RowView(i)
		for _, j := range cols {
			cur[j]++
		}
	}
	// All column lists slice two shared backing arrays.
	rowsBuf := make([]int32, nnz)
	valsBuf := make([]float64, nnz)
	running := int32(0)
	for j := 0; j < p; j++ {
		c := cur[j]
		cur[j] = running
		if c > 0 {
			e.colRows[j] = rowsBuf[running : running+c : running+c]
			e.colVals[j] = valsBuf[running : running+c : running+c]
		}
		running += c
	}
	// Scattering the row-major walk keeps each list's rows ascending.
	for i := 0; i < p; i++ {
		cols, vals := t.RowView(i)
		for k, j := range cols {
			rowsBuf[cur[j]] = int32(i)
			valsBuf[cur[j]] = vals[k]
			cur[j]++
		}
	}
	putScratch(s)
	return e
}

// Kind implements Encoded.
func (e *LILEnc) Kind() Kind { return LIL }

// P implements Encoded.
func (e *LILEnc) P() int { return e.p }

// ColRows exposes column j's row-index list for the hardware model.
func (e *LILEnc) ColRows(j int) []int32 { return e.colRows[j] }

// ColVals exposes column j's value list for the hardware model.
func (e *LILEnc) ColVals(j int) []float64 { return e.colVals[j] }

// Height returns the longest column list (the rectangular BRAM array's
// used height, excluding the terminator row).
func (e *LILEnc) Height() int {
	h := 0
	for _, c := range e.colRows {
		if len(c) > h {
			h = len(c)
		}
	}
	return h
}

// Decode implements Encoded. It replays the Listing 4 merge: repeatedly
// find the minimum pending row index across column cursors and gather all
// matching heads.
func (e *LILEnc) Decode() (*matrix.Tile, error) {
	if len(e.colRows) != e.p || len(e.colVals) != e.p {
		return nil, corruptf("lil: %d/%d columns for p=%d", len(e.colRows), len(e.colVals), e.p)
	}
	b := matrix.NewTileBuilder(e.p, 0, 0)
	cursor := make([]int, e.p)
	for {
		minRow := int32(-1)
		for j := 0; j < e.p; j++ {
			if len(e.colRows[j]) != len(e.colVals[j]) {
				return nil, corruptf("lil: column %d length mismatch", j)
			}
			if cursor[j] < len(e.colRows[j]) {
				r := e.colRows[j][cursor[j]]
				if r < 0 || int(r) >= e.p {
					return nil, corruptf("lil: row %d out of range in column %d", r, j)
				}
				if cursor[j] > 0 && e.colRows[j][cursor[j]-1] >= r {
					return nil, corruptf("lil: rows not ascending in column %d", j)
				}
				if minRow == -1 || r < minRow {
					minRow = r
				}
			}
		}
		if minRow == -1 {
			return b.Tile(), nil
		}
		for j := 0; j < e.p; j++ {
			if cursor[j] < len(e.colRows[j]) && e.colRows[j][cursor[j]] == minRow {
				v := e.colVals[j][cursor[j]]
				if v == 0 {
					return nil, corruptf("lil: explicit zero in column %d", j)
				}
				b.Set(int(minRow), j, v)
				cursor[j]++
			}
		}
	}
}

// Footprint implements Encoded. Each column transfers its entries plus a
// terminator on both lanes.
func (e *LILEnc) Footprint() Footprint {
	entries := e.nnz + e.p // one terminator per column
	useful := e.nnz * matrix.BytesPerValue
	valueLane := entries * matrix.BytesPerValue
	idxLane := entries * matrix.BytesPerIndex
	return Footprint{
		UsefulBytes:    useful,
		MetaBytes:      idxLane + (valueLane - useful),
		ValueLaneBytes: valueLane,
		IndexLaneBytes: idxLane,
	}
}

// Stats implements Encoded. Width records the longest column list, which
// bounds the merge depth.
func (e *LILEnc) Stats() Stats {
	return Stats{NNZ: e.nnz, NonZeroRows: e.nzr, DotRows: e.nzr, Width: e.Height()}
}
