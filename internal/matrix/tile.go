package matrix

import "fmt"

// Tile is one p×p partition of a larger sparse matrix. Copernicus applies
// every compression format to non-zero partitions rather than to the
// whole matrix (§4.1): partitioning bounds metadata growth, enables
// coarse-grained parallelism, and lets all-zero partitions be skipped
// entirely.
//
// A tile is stored sparse-natively as a compact per-tile CSR: row i's
// entries occupy cols/vals[rowPtr[i]:rowPtr[i+1]], with local column
// indices sorted ascending. Partition builds these spans directly into
// per-partitioning backing buffers, so resident memory scales with the
// tile's non-zeros, never with p². Tiles on the matrix boundary are
// implicitly zero-padded to the full p×p shape, matching the hardware's
// fixed-width dot-product engine — padding rows simply have empty spans.
//
// Tiles are immutable once built (by Partition, TileAt or a TileBuilder)
// and safe for concurrent reads.
type Tile struct {
	P        int // partition edge length
	Row, Col int // origin of the tile in the parent matrix

	// CSR view: row i spans cols/vals[rowPtr[i]:rowPtr[i+1]].
	rowPtr []int32 // len P+1
	cols   []int32 // local column indices, ascending within a row
	vals   []float64
	nzRows int
}

// newTileCSR wires a tile over pre-built CSR spans (Partition and TileAt
// own the backing buffers).
func newTileCSR(p, row, col int, rowPtr, cols []int32, vals []float64, nzRows int) Tile {
	return Tile{P: p, Row: row, Col: col, rowPtr: rowPtr, cols: cols, vals: vals, nzRows: nzRows}
}

// TileBuilder collects cell writes for one p×p tile — the decoders'
// output path and the way tests hand-build tiles. It keeps the cell
// semantics of a dense p×p array: the last write to a cell wins, writing
// zero empties the cell, and NaN is stored like any other non-zero.
//
// A builder can be reused for any number of tiles: Reset starts a new
// tile and keeps every buffer, and Build assembles the tile into the
// builder's own storage, so a warm builder builds without allocating.
// Tile instead returns a tile with storage of its own. The zero value
// is ready for use after Reset.
type TileBuilder struct {
	p, row, col int
	ents        []tileEntry

	// Build's output storage and tile header, reused across builds.
	rowPtr []int32
	cols   []int32
	vals   []float64
	tile   Tile

	scratch []int32 // see Scratch
}

type tileEntry struct {
	i, j int32
	v    float64
}

// NewTileBuilder returns an empty builder for the p×p tile at the given
// origin.
func NewTileBuilder(p, row, col int) *TileBuilder {
	b := new(TileBuilder)
	b.Reset(p, row, col)
	return b
}

// Reset discards the writes so far and starts an empty p×p tile at the
// given origin, keeping the builder's storage for reuse.
func (b *TileBuilder) Reset(p, row, col int) {
	if p <= 0 {
		panic(fmt.Sprintf("matrix: TileBuilder with p=%d", p))
	}
	b.p, b.row, b.col = p, row, col
	b.ents = b.ents[:0]
}

// Grow makes room for at least n more writes without reallocation.
func (b *TileBuilder) Grow(n int) {
	if n > cap(b.ents)-len(b.ents) {
		b.ents = append(make([]tileEntry, 0, len(b.ents)+n), b.ents...)
	}
}

// Scratch returns a zeroed int32 slice of length n that lives in the
// builder and is reused by later calls — working state for decoders
// (cursors, seen-marks) that must not allocate on a warm builder. It is
// valid until the next call to Scratch.
func (b *TileBuilder) Scratch(n int) []int32 {
	b.scratch = resize(b.scratch, n)
	clear(b.scratch)
	return b.scratch
}

// Set writes v at local coordinates (i, j). Out-of-range coordinates
// panic, like Builder.Add.
func (b *TileBuilder) Set(i, j int, v float64) {
	if uint(i) >= uint(b.p) || uint(j) >= uint(b.p) {
		panic(fmt.Sprintf("matrix: TileBuilder.Set(%d, %d) out of range for p=%d", i, j, b.p))
	}
	b.ents = append(b.ents, tileEntry{int32(i), int32(j), v})
}

// Tile builds the tile from the writes so far into storage of its own
// and clears the writes, keeping the origin.
func (b *TileBuilder) Tile() *Tile {
	n := len(b.ents)
	t := b.build(make([]int32, b.p+1), make([]int32, n), make([]float64, n))
	return &t
}

// Build is Tile without the allocation: the tile is assembled into the
// builder's reused storage and header, so it is valid only until the
// builder's next Reset or Build. Callers that keep the tile use Tile.
func (b *TileBuilder) Build() *Tile {
	n := len(b.ents)
	b.rowPtr = resize(b.rowPtr, b.p+1)
	b.cols = resize(b.cols, n)
	b.vals = resize(b.vals, n)
	b.tile = b.build(b.rowPtr, b.cols, b.vals)
	return &b.tile
}

// resize returns s with length n, reallocating only when its capacity
// is short; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// build assembles the writes so far into rowPtr (len p+1) and cols/vals
// (len ≥ the write count), then clears the writes. A stable counting
// scatter groups the writes by row, then a per-row insertion sort orders
// them by column — linear when each row's columns were written in
// ascending order, as every row-major or column-major decoder writes
// them.
func (b *TileBuilder) build(rowPtr, cols []int32, vals []float64) Tile {
	p, ents := b.p, b.ents
	b.ents = b.ents[:0]
	clear(rowPtr)
	for _, e := range ents {
		rowPtr[e.i+1]++
	}
	for i := 0; i < p; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	// The scatter advances rowPtr[i] from row i's start to its end.
	for _, e := range ents {
		k := rowPtr[e.i]
		cols[k], vals[k] = e.j, e.v
		rowPtr[e.i]++
	}
	// Sort each row, keep the last write per column, drop zeros, and
	// compact in place, restoring rowPtr[i] to the row's new start.
	w, s, nzRows := int32(0), int32(0), 0
	for i := 0; i < p; i++ {
		e := rowPtr[i]
		sortRow(cols[s:e], vals[s:e])
		rowPtr[i] = w
		for k := s; k < e; k++ {
			if k+1 < e && cols[k+1] == cols[k] || vals[k] == 0 {
				continue
			}
			cols[w], vals[w] = cols[k], vals[k]
			w++
		}
		if w > rowPtr[i] {
			nzRows++
		}
		s = e
	}
	rowPtr[p] = w
	return newTileCSR(p, b.row, b.col, rowPtr, cols[:w:w], vals[:w:w], nzRows)
}

// sortRow orders one row's writes by column with a stable insertion sort,
// so writes to the same cell keep their order.
func sortRow(cols []int32, vals []float64) {
	for k := 1; k < len(cols); k++ {
		c, v := cols[k], vals[k]
		m := k
		for ; m > 0 && cols[m-1] > c; m-- {
			cols[m], vals[m] = cols[m-1], vals[m-1]
		}
		cols[m], vals[m] = c, v
	}
}

// At returns the value at local coordinates (i, j).
func (t *Tile) At(i, j int) float64 {
	lo, hi := int(t.rowPtr[i]), int(t.rowPtr[i+1])
	for lo < hi {
		mid := (lo + hi) / 2
		if int(t.cols[mid]) < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < int(t.rowPtr[i+1]) && int(t.cols[lo]) == j {
		return t.vals[lo]
	}
	return 0
}

// NNZ returns the number of non-zero entries in the tile.
func (t *Tile) NNZ() int { return len(t.vals) }

// Density returns NNZ / P².
func (t *Tile) Density() float64 { return float64(t.NNZ()) / float64(t.P*t.P) }

// RowNNZ returns the number of non-zeros in local row i.
func (t *Tile) RowNNZ(i int) int { return int(t.rowPtr[i+1] - t.rowPtr[i]) }

// NonZeroRows returns the count of rows with at least one non-zero. This
// drives both the dot-product count in Eq. (1) and the inner-pipeline
// utilization discussed in §5.1.
func (t *Tile) NonZeroRows() int { return t.nzRows }

// RowView returns local row i's non-zeros: ascending local column
// indices and the matching values. The slices alias the tile's storage —
// callers must not mutate them. This is the O(nnz) walk every format
// encoder is built on.
func (t *Tile) RowView(i int) (cols []int32, vals []float64) {
	s, e := t.rowPtr[i], t.rowPtr[i+1]
	return t.cols[s:e:e], t.vals[s:e:e]
}

// Dense materializes the tile as a fresh P*P row-major buffer, zeros
// included — for consumers that genuinely need the p² form: the Dense
// format's payload and the golden reference encoders. The partition →
// encode → decode-verify path never calls it.
func (t *Tile) Dense() []float64 {
	d := make([]float64, t.P*t.P)
	for i := 0; i < t.P; i++ {
		cols, vals := t.RowView(i)
		for k, j := range cols {
			d[i*t.P+int(j)] = vals[k]
		}
	}
	return d
}

// EqualValues reports whether two tiles hold identical values (origin and
// size included).
func (t *Tile) EqualValues(o *Tile) bool {
	if t.P != o.P || t.Row != o.Row || t.Col != o.Col {
		return false
	}
	if len(t.vals) != len(o.vals) {
		return false
	}
	for i := range t.rowPtr {
		if t.rowPtr[i] != o.rowPtr[i] {
			return false
		}
	}
	for k := range t.cols {
		if t.cols[k] != o.cols[k] || t.vals[k] != o.vals[k] {
			return false
		}
	}
	return true
}

// MemoryBytes returns the tile's resident CSR storage, excluding the
// struct header.
func (t *Tile) MemoryBytes() int64 {
	return int64(len(t.rowPtr))*4 + int64(len(t.cols))*4 + int64(len(t.vals))*8
}

// TileAt extracts the p×p tile of m anchored at (row, col), zero-padded
// past the matrix boundary. The tile is built directly from the CSR row
// spans — O(nnz(tile) + p·log nnz(row)).
func TileAt(m *CSR, row, col, p int) *Tile {
	rowPtr := make([]int32, p+1)
	nzRows := 0
	// Per-row span bounds within [col, col+p), found by binary search in
	// the sorted column indices. starts holds indices into the parent
	// matrix's CSR arrays, which can exceed int32 on huge matrices.
	starts := make([]int, p)
	for i := 0; i < p; i++ {
		gi := row + i
		rowPtr[i+1] = rowPtr[i]
		if gi < 0 || gi >= m.Rows {
			continue
		}
		lo, hi := m.RowPtr[gi], m.RowPtr[gi+1]
		s := lowerBound(m.Col, lo, hi, col)
		e := lowerBound(m.Col, s, hi, col+p)
		starts[i] = s
		rowPtr[i+1] += int32(e - s)
		if e > s {
			nzRows++
		}
	}
	nnz := int(rowPtr[p])
	cols := make([]int32, nnz)
	vals := make([]float64, nnz)
	for i := 0; i < p; i++ {
		n := int(rowPtr[i+1] - rowPtr[i])
		if n == 0 {
			continue
		}
		dst := int(rowPtr[i])
		src := starts[i]
		for k := 0; k < n; k++ {
			cols[dst+k] = int32(m.Col[src+k] - col)
			vals[dst+k] = m.Val[src+k]
		}
	}
	t := newTileCSR(p, row, col, rowPtr, cols, vals, nzRows)
	return &t
}

// lowerBound returns the first index in Col[lo:hi) whose value is >= x.
func lowerBound(col []int, lo, hi, x int) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if col[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Partitioning groups a matrix's non-zero tiles together with the grid
// geometry needed to reassemble or stream them. All tiles slice three
// shared backing buffers (row pointers, columns, values), so the whole
// partitioning's resident cost is O(nnz + tiles·p).
type Partitioning struct {
	P          int // partition edge length
	GridRows   int // ceil(Rows/P)
	GridCols   int // ceil(Cols/P)
	Tiles      []*Tile
	TotalTiles int // GridRows*GridCols, including all-zero tiles
}

// ZeroTiles returns the number of all-zero partitions, which the streaming
// pipeline never transfers.
func (pt *Partitioning) ZeroTiles() int { return pt.TotalTiles - len(pt.Tiles) }

// MemoryBytes returns the resident size of the partitioning's tile
// storage (backing buffers plus tile headers).
func (pt *Partitioning) MemoryBytes() int64 {
	var b int64
	for _, t := range pt.Tiles {
		b += t.MemoryBytes() + tileHeaderBytes
	}
	return b
}

// tileHeaderBytes approximates one Tile struct plus its *Tile slot in the
// Tiles slice.
const tileHeaderBytes = 14*8 + 8

// Partition extracts all non-zero p×p tiles of m in block-row-major order.
// Boundary tiles are zero-padded. The tiles reassemble exactly to m (see
// Assemble), a property the test suite checks by round-trip.
//
// The extraction is sparse-native: a counting pass sizes every tile's row
// spans, then a scatter pass copies each CSR entry straight into shared
// cols/vals backing buffers — no per-tile dense p² staging, no map, no
// sort. Cost is O(nnz + tiles·p); resident memory is O(nnz + tiles·p).
func Partition(m *CSR, p int) *Partitioning {
	if p <= 0 {
		panic(fmt.Sprintf("matrix: Partition with p=%d", p))
	}
	gr := (m.Rows + p - 1) / p
	gc := (m.Cols + p - 1) / p
	pt := &Partitioning{P: p, GridRows: gr, GridCols: gc, TotalTiles: gr * gc}
	nnz := m.NNZ()
	if nnz == 0 {
		return pt
	}

	// Pass 1: count the non-zero tiles so every backing buffer can be
	// sized exactly. seen is epoch-marked per block row.
	numTiles := 0
	seen := make([]int32, gc)
	for br := 0; br < gr; br++ {
		rowEnd := min((br+1)*p, m.Rows)
		for i := br * p; i < rowEnd; i++ {
			for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
				if bc := m.Col[k] / p; seen[bc] != int32(br+1) {
					seen[bc] = int32(br + 1)
					numTiles++
				}
			}
		}
	}

	// Shared backing buffers: every tile's spans slice into these.
	rowPtrBuf := make([]int32, numTiles*(p+1))
	colsBuf := make([]int32, nnz)
	valsBuf := make([]float64, nnz)
	tiles := make([]Tile, numTiles)
	pt.Tiles = make([]*Tile, 0, numTiles)

	// Per-block-row scratch, reused: per-(block column, local row) entry
	// counts that become scatter cursors after the prefix sum, per-tile
	// totals, and the block column → tile index map.
	rowCount := make([]int32, gc*p)
	tileNNZ := make([]int32, gc)
	tileIdx := make([]int32, gc)

	base := 0 // consumed cols/vals entries
	ti := 0   // next tile index
	for br := 0; br < gr; br++ {
		rowEnd := min((br+1)*p, m.Rows)
		minBC, maxBC := gc, -1
		for i := br * p; i < rowEnd; i++ {
			li := i - br*p
			for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
				bc := m.Col[k] / p
				rowCount[bc*p+li]++
				tileNNZ[bc]++
				if bc < minBC {
					minBC = bc
				}
				if bc > maxBC {
					maxBC = bc
				}
			}
		}
		if maxBC < 0 {
			continue
		}
		// Materialize this block row's tiles in ascending block-column
		// order, prefix-summing the row counts into row pointers and
		// leaving scatter cursors behind in rowCount.
		for bc := minBC; bc <= maxBC; bc++ {
			n := int(tileNNZ[bc])
			if n == 0 {
				continue
			}
			rp := rowPtrBuf[ti*(p+1) : (ti+1)*(p+1)]
			running := int32(0)
			nzRows := 0
			for li := 0; li < p; li++ {
				c := rowCount[bc*p+li]
				if c > 0 {
					nzRows++
				}
				rowCount[bc*p+li] = running
				running += c
				rp[li+1] = running
			}
			tiles[ti] = newTileCSR(p, br*p, bc*p, rp,
				colsBuf[base:base+n:base+n], valsBuf[base:base+n:base+n], nzRows)
			pt.Tiles = append(pt.Tiles, &tiles[ti])
			tileIdx[bc] = int32(ti)
			ti++
			base += n
		}
		// Scatter pass: each entry lands at its row cursor, preserving
		// the ascending column order of the CSR scan.
		for i := br * p; i < rowEnd; i++ {
			li := i - br*p
			for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
				bc := m.Col[k] / p
				t := &tiles[tileIdx[bc]]
				cur := rowCount[bc*p+li]
				t.cols[cur] = int32(m.Col[k] - bc*p)
				t.vals[cur] = m.Val[k]
				rowCount[bc*p+li] = cur + 1
			}
		}
		// Reset the touched scratch for the next block row.
		for bc := minBC; bc <= maxBC; bc++ {
			if tileNNZ[bc] == 0 {
				continue
			}
			tileNNZ[bc] = 0
			clear(rowCount[bc*p : (bc+1)*p])
		}
	}
	return pt
}

// Assemble rebuilds the full matrix from a partitioning. Used to verify
// that Partition is lossless.
func (pt *Partitioning) Assemble(rows, cols int) *CSR {
	b := NewBuilder(rows, cols)
	for _, t := range pt.Tiles {
		for i := 0; i < t.P; i++ {
			gi := t.Row + i
			if gi >= rows {
				break
			}
			tc, tv := t.RowView(i)
			for k := range tc {
				if gj := t.Col + int(tc[k]); gj < cols {
					b.Add(gi, gj, tv[k])
				}
			}
		}
	}
	return b.Build()
}
