package formats

// Executable SpMV kernels: every format walks its own encoded layout to
// compute y += T·x, turning the encoders from cycle-model inputs into a
// runnable sparse library. The traversals mirror what the modelled
// decompressors do — CSR walks row spans, BCSR multiplies dense b×b
// sub-blocks, ELL-family kernels sweep padded rectangles, DIA strides
// stored diagonals, CSC/LIL scatter column-major, COO/DOK scatter tuple
// streams, JDS gathers jagged diagonals through the row permutation —
// so the measured cost of a kernel is the host-CPU analogue of the
// format's modelled decompression behaviour.
//
// Determinism contract (for finite operands):
//
//   - Row-ordered kernels — Dense, CSR, BCSR, ELL, SELL, SELL-C-σ, and
//     the rectangle+spill order of ELL+COO, plus COO's row-major tuples
//     and JDS's per-row ascending diagonals — contribute each output
//     row's products in ascending-column order, so a single tile's
//     result is bit-identical to the reference per-row accumulation
//     (Plan.spmv / CSR.MulVec).
//   - Column- and table-ordered kernels — CSC, LIL, DOK, DIA — add the
//     same products in a different association; results agree with the
//     reference within floating-point reassociation tolerance (the
//     engine's 1e-9 functional check passes for every format).
//
// Padded formats (Dense, BCSR, ELL family, DIA) multiply explicitly
// stored zeros; for finite x those products are ±0 and never change the
// sum, but a non-finite operand entry (Inf/NaN) meeting a structural
// zero can propagate where the reference skips it — the documented
// deviation of padded execution from nonzero-only traversal.

// SpMV implements Encoded: the dense baseline multiplies every stored
// slot row-major. Boundary tiles clamp the walked region to the operand
// and output lengths; the clipped slots are all structural zero padding.
func (e *DenseEnc) SpMV(x, y []float64) {
	p := e.p
	rows := min(p, len(y))
	cols := min(p, len(x))
	for i := 0; i < rows; i++ {
		row := e.val[i*p : i*p+cols]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		y[i] += s
	}
}

// SpMV implements Encoded: the CSR kernel is the reference traversal —
// per-row spans from the cumulative offsets, ascending columns — walked
// through the encode-time skip list, so only non-empty rows are visited
// (on sparse tiles the full p-row offset walk is mostly empty rows). The
// accumulation order per row is unchanged from the full walk, so the
// result is bit-identical to SpMVFullWalk.
func (e *CSREnc) SpMV(x, y []float64) {
	for _, i32 := range e.skip {
		i := int(i32)
		start := int32(0)
		if i > 0 {
			start = e.offsets[i-1]
		}
		end := e.offsets[i]
		s := 0.0
		for k := start; k < end; k++ {
			s += e.vals[k] * x[e.colIdx[k]]
		}
		y[i] += s
	}
}

// SpMVFullWalk is the pre-skip-list CSR traversal: every row's offset is
// read, empty rows included. Kept as the reference the skip-list kernel
// is held bit-identical to, and for the before/after comparison in the
// bench artifact.
func (e *CSREnc) SpMVFullWalk(x, y []float64) {
	start := int32(0)
	for i := 0; i < e.p; i++ {
		end := e.offsets[i]
		if end > start {
			s := 0.0
			for k := start; k < end; k++ {
				s += e.vals[k] * x[e.colIdx[k]]
			}
			y[i] += s
		}
		start = end
	}
}

// SpMV implements Encoded: BCSR multiplies its dense b×b sub-blocks,
// explicit zeros included, as the hardware decompressor streams them.
// For the paper's b=4 blocks on an unclipped tile (x and y both cover
// all p columns and rows) the kernel is register-blocked: see spmv4.
// The generic loop below serves every other block edge (the
// EncodeBCSRBlock ablations) and the clipped boundary tiles, walking
// each block row once per covered output row; rows and block columns
// clipped by the matrix boundary hold only padding and are clamped
// away. Both paths add each row's products in ascending block column,
// then ascending column inside the block, so they are bit-identical.
func (e *BCSREnc) SpMV(x, y []float64) {
	b := e.b
	if b == BCSRBlock && len(x) >= e.p && len(y) >= e.p {
		e.spmv4(x, y)
		return
	}
	start := int32(0)
	for bi := 0; bi < len(e.offsets); bi++ {
		end := e.offsets[bi]
		if end > start {
			r0 := bi * b
			rmax := min(b, len(y)-r0)
			for r := 0; r < rmax; r++ {
				s := 0.0
				for blk := start; blk < end; blk++ {
					c0 := int(e.colIdx[blk])
					base := int(blk)*b*b + r*b
					for j := 0; j < min(b, len(x)-c0); j++ {
						s += e.vals[base+j] * x[c0+j]
					}
				}
				y[r0+r] += s
			}
		}
		start = end
	}
}

// spmv4 is the register-blocked kernel for 4×4 blocks: each block row
// is walked once, keeping its four row sums in registers. Every stored
// block loads its four operand entries once and applies its 16 values;
// the three-index reslices fix both lengths, so the unrolled body runs
// without bounds checks. Each sum is a sequential s_r += v*x_j chain in
// the generic loop's order, which keeps the output bit-identical.
func (e *BCSREnc) spmv4(x, y []float64) {
	vals := e.vals
	start := int32(0)
	for bi, end := range e.offsets {
		if end > start {
			var s0, s1, s2, s3 float64
			for n := start; n < end; n++ {
				c := int(e.colIdx[n])
				xb := x[c : c+4 : c+4]
				o := int(n) * 16
				v := vals[o : o+16 : o+16]
				x0, x1, x2, x3 := xb[0], xb[1], xb[2], xb[3]
				s0 += v[0] * x0
				s0 += v[1] * x1
				s0 += v[2] * x2
				s0 += v[3] * x3
				s1 += v[4] * x0
				s1 += v[5] * x1
				s1 += v[6] * x2
				s1 += v[7] * x3
				s2 += v[8] * x0
				s2 += v[9] * x1
				s2 += v[10] * x2
				s2 += v[11] * x3
				s3 += v[12] * x0
				s3 += v[13] * x1
				s3 += v[14] * x2
				s3 += v[15] * x3
			}
			yb := y[bi*4 : bi*4+4 : bi*4+4]
			yb[0] += s0
			yb[1] += s1
			yb[2] += s2
			yb[3] += s3
		}
		start = end
	}
}

// SpMV implements Encoded: COO scatters its row-major tuple stream
// (sentinel excluded) element by element.
func (e *COOEnc) SpMV(x, y []float64) {
	for k := 0; k < len(e.vals)-1; k++ {
		y[e.rows[k]] += e.vals[k] * x[e.cols[k]]
	}
}

// SpMV implements Encoded: LIL scatters column by column — each column
// list multiplies one operand entry into its ascending row indices, the
// executable analogue of the per-column BRAM banks of Listing 4.
func (e *LILEnc) SpMV(x, y []float64) {
	for j, rows := range e.colRows {
		if len(rows) == 0 {
			continue
		}
		xv := x[j]
		vals := e.colVals[j]
		for k, i := range rows {
			y[i] += vals[k] * xv
		}
	}
}

// SpMV implements Encoded: ELL sweeps the padded rectangle row-major.
// Entries are left-packed, so the first padding slot ends the row; rows
// with no entries (including boundary padding rows) never touch y.
func (e *ELLEnc) SpMV(x, y []float64) {
	w := e.w
	for i := 0; i < e.p; i++ {
		base := i * w
		s := 0.0
		k := 0
		for ; k < w; k++ {
			j := e.idx[base+k]
			if j == ellPad {
				break
			}
			s += e.vals[base+k] * x[j]
		}
		if k > 0 {
			y[i] += s
		}
	}
}

// SpMV implements Encoded: DIA strides every stored diagonal, clamping
// the slot range to the diagonal's extent and to the tile-local operand
// and output lengths (slots beyond either are padding). Each diagonal
// reslices lane, y and x to that [lo, hi) extent once, so the stride
// loop runs without bounds checks; the operation order is unchanged.
// The p-slot lanes make this loop memory-bound, so removing the checks
// measured within noise.
func (e *DIAEnc) SpMV(x, y []float64) {
	p := e.p
	for k, d32 := range e.diagNo {
		d := int(d32)
		lo := max(0, -d)
		hi := min(min(p, p-d), min(len(y), len(x)-d))
		if lo >= hi {
			continue
		}
		lane := e.lanes[k*p+lo : k*p+hi]
		ys := y[lo:hi]
		xs := x[lo+d : hi+d]
		ys = ys[:len(lane)]
		xs = xs[:len(lane)]
		for i, v := range lane {
			ys[i] += v * xs[i]
		}
	}
}

// SpMV implements Encoded: CSC scatters column-major — the orientation
// mismatch §5.2 prices shows up here as strided output writes.
func (e *CSCEnc) SpMV(x, y []float64) {
	start := int32(0)
	for j := 0; j < e.p; j++ {
		end := e.offsets[j]
		if end > start {
			xv := x[j]
			for k := start; k < end; k++ {
				y[e.rowIdx[k]] += e.vals[k] * xv
			}
		}
		start = end
	}
}

// SpMV implements Encoded: DOK scans the whole hash table, scattering
// every occupied slot — the full-table sweep the paper equates with
// COO's scan, in the table's probe order.
func (e *DOKEnc) SpMV(x, y []float64) {
	for s, key := range e.keys {
		if key == dokEmpty {
			continue
		}
		i, j := dokUnpack(key)
		y[i] += e.vals[s] * x[j]
	}
}

// SpMV implements Encoded: SELL sweeps each slice's private rectangle,
// so short slices pay only their own width.
func (e *SELLEnc) SpMV(x, y []float64) {
	base := 0
	for s, w32 := range e.widths {
		w := int(w32)
		for r := 0; r < e.c && w > 0; r++ {
			rb := base + r*w
			sum := 0.0
			k := 0
			for ; k < w; k++ {
				j := e.idx[rb+k]
				if j == ellPad {
					break
				}
				sum += e.vals[rb+k] * x[j]
			}
			if k > 0 {
				y[s*e.c+r] += sum
			}
		}
		base += e.c * w
	}
}

// SpMV implements Encoded: the hybrid runs its capped ELL rectangle
// first (each row's leading entries, ascending), then scatters the COO
// spill of the long rows — per output row the products still arrive in
// ascending-column order.
func (e *ELLCOOEnc) SpMV(x, y []float64) {
	w := e.w
	if w > 0 {
		for i := 0; i < e.p; i++ {
			base := i * w
			s := 0.0
			k := 0
			for ; k < w; k++ {
				j := e.idx[base+k]
				if j == ellPad {
					break
				}
				s += e.vals[base+k] * x[j]
			}
			if k > 0 {
				y[i] += s
			}
		}
	}
	for k := 0; k < len(e.sval)-1; k++ {
		y[e.srow[k]] += e.sval[k] * x[e.scol[k]]
	}
}

// SpMV implements Encoded: JDS walks the jagged diagonals — diagonal k
// supplies the k-th nonzero of the first (end-start) permuted rows —
// scattering through the permutation. Each row's products still arrive
// in ascending-column order (its entries live on ascending diagonals).
func (e *JDSEnc) SpMV(x, y []float64) {
	for k := 0; k < len(e.ptr)-1; k++ {
		start, end := int(e.ptr[k]), int(e.ptr[k+1])
		for r := start; r < end; r++ {
			y[e.perm[r-start]] += e.vals[r] * x[e.idx[r]]
		}
	}
}

// SpMV implements Encoded: SELL-C-σ sweeps each slice's rectangle like
// SELL and gathers the output row through the σ-window permutation.
func (e *SELLCSEnc) SpMV(x, y []float64) {
	base := 0
	for s, w32 := range e.widths {
		w := int(w32)
		for r := 0; r < e.c && w > 0; r++ {
			rb := base + r*w
			sum := 0.0
			k := 0
			for ; k < w; k++ {
				j := e.idx[rb+k]
				if j == ellPad {
					break
				}
				sum += e.vals[rb+k] * x[j]
			}
			if k > 0 {
				y[e.perm[s*e.c+r]] += sum
			}
		}
		base += e.c * w
	}
}
