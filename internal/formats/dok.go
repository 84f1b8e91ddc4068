package formats

import "copernicus/internal/matrix"

// DOKEnc stores a tile as a dictionary of keys (Fig. 1e): an open-
// addressing hash table mapping packed (row, column) keys to values. The
// paper treats DOK's decompression as identical to COO's (a full scan per
// output row); the difference shows up in the transfer footprint, where
// the table's empty slots travel as metadata. The table is sized to the
// next power of two with load factor ≤ 0.5, the usual open-addressing
// regime.
type DOKEnc struct {
	p    int
	keys []int32 // packed row<<16|col; dokEmpty marks a free slot
	vals []float64
	nnz  int
	nzr  int
}

const dokEmpty = int32(-1)

func dokKey(i, j int) int32 { return int32(i)<<16 | int32(j) }

func dokUnpack(k int32) (i, j int) { return int(k >> 16), int(k & 0xffff) }

func encodeDOK(t *matrix.Tile) *DOKEnc {
	e := &DOKEnc{p: t.P, nnz: t.NNZ(), nzr: t.NonZeroRows()}
	size := 2
	for size < 2*max(1, e.nnz) {
		size *= 2
	}
	e.keys = make([]int32, size)
	e.vals = make([]float64, size)
	for s := range e.keys {
		e.keys[s] = dokEmpty
	}
	// Row-major insertion order matches the dense reference scan, so the
	// probe sequence — and therefore the table layout — is identical.
	for i := 0; i < t.P; i++ {
		cols, vals := t.RowView(i)
		for k, j := range cols {
			key := dokKey(i, int(j))
			// Multiplicative hash, linear probing.
			slot := int(uint32(key)*2654435761) & (size - 1)
			for e.keys[slot] != dokEmpty {
				slot = (slot + 1) & (size - 1)
			}
			e.keys[slot] = key
			e.vals[slot] = vals[k]
		}
	}
	return e
}

// Kind implements Encoded.
func (e *DOKEnc) Kind() Kind { return DOK }

// P implements Encoded.
func (e *DOKEnc) P() int { return e.p }

// TableSize returns the hash-table slot count.
func (e *DOKEnc) TableSize() int { return len(e.keys) }

// Keys exposes the packed key slots (dokEmpty for free) for the hardware
// model.
func (e *DOKEnc) Keys() []int32 { return e.keys }

// Values exposes the value slots for the hardware model.
func (e *DOKEnc) Values() []float64 { return e.vals }

// Decode implements Encoded.
func (e *DOKEnc) Decode() (*matrix.Tile, error) {
	if len(e.keys) != len(e.vals) {
		return nil, corruptf("dok: %d keys vs %d values", len(e.keys), len(e.vals))
	}
	b := matrix.NewTileBuilder(e.p, 0, 0)
	seen := 0
	for s, k := range e.keys {
		if k == dokEmpty {
			continue
		}
		i, j := dokUnpack(k)
		if i < 0 || i >= e.p || j < 0 || j >= e.p {
			return nil, corruptf("dok: key (%d,%d) out of range", i, j)
		}
		if e.vals[s] == 0 {
			return nil, corruptf("dok: slot %d stores explicit zero", s)
		}
		b.Set(i, j, e.vals[s])
		seen++
	}
	if seen != e.nnz {
		return nil, corruptf("dok: %d occupied slots vs recorded nnz %d", seen, e.nnz)
	}
	// A duplicate key collapses two occupied slots into one cell.
	t := b.Tile()
	if t.NNZ() != seen {
		return nil, corruptf("dok: %d occupied slots hold %d distinct keys", seen, t.NNZ())
	}
	return t, nil
}

// Footprint implements Encoded. The whole table travels: occupied slots
// carry one key word of metadata each; empty slots are all metadata.
func (e *DOKEnc) Footprint() Footprint {
	useful := e.nnz * matrix.BytesPerValue
	valueLane := len(e.vals) * matrix.BytesPerValue
	idxLane := len(e.keys) * matrix.BytesPerIndex
	return Footprint{
		UsefulBytes:    useful,
		MetaBytes:      idxLane + (valueLane - useful),
		ValueLaneBytes: valueLane,
		IndexLaneBytes: idxLane,
	}
}

// Stats implements Encoded.
func (e *DOKEnc) Stats() Stats {
	return Stats{NNZ: e.nnz, NonZeroRows: e.nzr, DotRows: e.nzr, Width: len(e.keys)}
}
