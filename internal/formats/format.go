// Package formats implements the sparse compression formats characterized
// by Copernicus (§2): CSR, CSC, BCSR (4×4 blocks), COO, DOK, LIL, ELL, and
// DIA, plus the dense baseline and the ELL-family extension formats the
// paper surveys (SELL, ELL+COO, JDS).
//
// Each format encodes one p×p partition tile into the exact streams
// the modelled accelerator would transfer over AXI, with byte-level
// accounting split into useful data (non-zero values) and metadata
// (indices, offsets, headers, padding, and explicitly stored zeros). The
// split defines the paper's memory-bandwidth-utilization metric; the
// structural stream shapes drive the hlsim cycle model.
//
// Every Encoded value can Decode back to the original tile; the test suite
// proves the round-trip for random tiles of every format.
package formats

import (
	"errors"
	"fmt"

	"copernicus/internal/matrix"
)

// Kind identifies a compression format.
type Kind int

// The formats under study. Dense is the σ=1 baseline of Eq. (1). SELL,
// ELLCOO and JDS are the §2 ELL variants, included as extension formats.
const (
	Dense Kind = iota
	CSR
	BCSR
	COO
	LIL
	ELL
	DIA
	CSC
	DOK
	SELL
	ELLCOO
	JDS
	SELLCS
	numKinds
)

// NumKinds is the number of implemented formats; Kind values are the
// contiguous range [0, NumKinds). Consumers (e.g. hlsim's per-format plan
// slots) index dense arrays by Kind.
const NumKinds = int(numKinds)

// String returns the conventional name of the format.
func (k Kind) String() string {
	switch k {
	case Dense:
		return "DENSE"
	case CSR:
		return "CSR"
	case CSC:
		return "CSC"
	case BCSR:
		return "BCSR"
	case COO:
		return "COO"
	case DOK:
		return "DOK"
	case LIL:
		return "LIL"
	case ELL:
		return "ELL"
	case DIA:
		return "DIA"
	case SELL:
		return "SELL"
	case ELLCOO:
		return "ELL+COO"
	case JDS:
		return "JDS"
	case SELLCS:
		return "SELL-C-sig"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Core returns the seven formats of the paper's evaluation plus the dense
// baseline, in the order the figures present them.
func Core() []Kind {
	return []Kind{Dense, CSR, BCSR, COO, LIL, ELL, DIA, CSC}
}

// Sparse returns the seven studied sparse formats (Core without Dense).
func Sparse() []Kind {
	return []Kind{CSR, BCSR, COO, LIL, ELL, DIA, CSC}
}

// Extensions returns the §2 variant formats implemented beyond the paper's
// measured set.
func Extensions() []Kind {
	return []Kind{DOK, SELL, ELLCOO, JDS, SELLCS}
}

// All returns every implemented format.
func All() []Kind {
	return append(Core(), Extensions()...)
}

// BCSRBlock is the block edge used by BCSR throughout the paper ("the
// block size we choose in all our experiments": 4×4).
const BCSRBlock = 4

// ELLWidth is the on-chip ELL array width the paper allocates ("we set
// this width to six"). Encoders grow beyond it when a tile's longest row
// demands more (the rectangular array must hold the longest row), matching
// the format definition; the constant sizes the synthesized arrays.
const ELLWidth = 6

// SELLSlice is the row-chunk height used by the SELL extension format.
const SELLSlice = 4

// ErrCorrupt is wrapped by all decoder errors arising from inconsistent or
// out-of-range stream contents.
var ErrCorrupt = errors.New("formats: corrupt encoding")

// ErrBadPartition is wrapped by ValidateP failures: the requested
// partition size cannot be encoded by the requested format. Services map
// it to a client error.
var ErrBadPartition = errors.New("formats: invalid partition size")

// ValidateP reports whether format k can encode p×p tiles: blocked and
// sliced formats divide the tile edge by a fixed factor, and their
// encoders panic on indivisible sizes. Every untrusted (format, p) pair
// must pass through here before reaching Encode — a malformed sweep
// request becomes a 400, not a panic inside a worker goroutine.
func ValidateP(k Kind, p int) error {
	if p < 1 {
		return fmt.Errorf("%w: p=%d", ErrBadPartition, p)
	}
	switch k {
	case BCSR:
		if p%BCSRBlock != 0 {
			return fmt.Errorf("%w: %v needs p divisible by %d, got %d", ErrBadPartition, k, BCSRBlock, p)
		}
	case SELL, SELLCS:
		if p%SELLSlice != 0 {
			return fmt.Errorf("%w: %v needs p divisible by %d, got %d", ErrBadPartition, k, SELLSlice, p)
		}
	}
	return nil
}

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Footprint is the byte-level accounting of one encoded tile.
//
// UsefulBytes counts only the payload of genuinely non-zero values;
// MetaBytes counts everything else that must be transmitted: indices,
// offsets, diagonal headers, sentinels, padding, and zeros stored
// explicitly by block or padded formats. Memory-bandwidth utilization
// (Figs. 10–12) is Useful/(Useful+Meta).
//
// ValueLaneBytes and IndexLaneBytes split the same total across the two
// parallel AXI streamlines of §5.2 (values ride one lane; indices,
// offsets, and headers ride the other); the longer lane defines the
// memory latency.
type Footprint struct {
	UsefulBytes    int
	MetaBytes      int
	ValueLaneBytes int
	IndexLaneBytes int
}

// TotalBytes returns all transmitted bytes.
func (f Footprint) TotalBytes() int { return f.UsefulBytes + f.MetaBytes }

// Utilization returns the memory-bandwidth utilization in [0, 1].
func (f Footprint) Utilization() float64 {
	if t := f.TotalBytes(); t > 0 {
		return float64(f.UsefulBytes) / float64(t)
	}
	return 0
}

// Stats carries the structural quantities the hlsim cycle model consumes.
// They describe what the hardware decompressor will iterate over, not the
// encoding bytes (Footprint covers those).
type Stats struct {
	NNZ         int // stored true non-zeros
	NonZeroRows int // tile rows containing at least one non-zero
	// DotRows is the number of rows the dot-product engine processes for
	// this format: p for Dense and padded row formats that cannot skip
	// all-zero rows (ELL and variants), block-coverage for BCSR, and
	// NonZeroRows otherwise. It is the nnz_rows term of Eq. (1).
	DotRows int

	Blocks    int // BCSR: non-zero b×b blocks
	BlockRows int // BCSR: non-zero block rows
	Diagonals int // DIA: stored diagonals
	Width     int // ELL family: rectangle width; LIL: longest column list
	Slices    int // SELL: row slices; JDS: jagged diagonals
}

// Encoded is one tile compressed in some format.
type Encoded interface {
	// Kind identifies the format.
	Kind() Kind
	// P returns the tile edge length.
	P() int
	// Decode rebuilds the tile from the streams, validating them. The
	// returned tile carries a zero origin; callers re-anchor it.
	Decode() (*matrix.Tile, error)
	// Footprint returns the transmitted-byte accounting.
	Footprint() Footprint
	// Stats returns the structural quantities for the cycle model.
	Stats() Stats
	// SpMV accumulates y += T·x by walking this encoding's own layout —
	// the executable counterpart of the traversal the cycle model prices.
	// x and y are tile-local views (callers offset the global vectors by
	// the tile origin); either may be shorter than P near the matrix
	// boundary, where the truncated region is all zero padding. Stored
	// entries always index within both slices; kernels that walk padded
	// or rectangular storage clamp or skip the out-of-range padding.
	// See spmv.go for the per-format determinism contract.
	SpMV(x, y []float64)
}

// Encode compresses the tile in the given format.
func Encode(k Kind, t *matrix.Tile) Encoded {
	switch k {
	case Dense:
		return encodeDense(t)
	case CSR:
		return encodeCSR(t)
	case CSC:
		return encodeCSC(t)
	case BCSR:
		return encodeBCSR(t, BCSRBlock)
	case COO:
		return encodeCOO(t)
	case DOK:
		return encodeDOK(t)
	case LIL:
		return encodeLIL(t)
	case ELL:
		return encodeELL(t)
	case DIA:
		return encodeDIA(t)
	case SELL:
		return encodeSELL(t, SELLSlice)
	case ELLCOO:
		return encodeELLCOO(t, ELLWidth)
	case JDS:
		return encodeJDS(t)
	case SELLCS:
		return encodeSELLCS(t, SELLSlice, SELLCSigmaWindow)
	default:
		panic(fmt.Sprintf("formats: Encode with unknown kind %d", int(k)))
	}
}

// EncodeBCSRBlock compresses the tile in BCSR with a custom block edge b
// (the ablation knob behind the paper's fixed 4×4 choice). The tile edge
// must be divisible by b.
func EncodeBCSRBlock(t *matrix.Tile, b int) Encoded { return encodeBCSR(t, b) }

// EncodeSELLSlice compresses the tile in SELL with a custom slice height.
func EncodeSELLSlice(t *matrix.Tile, c int) Encoded { return encodeSELL(t, c) }

// EncodeELLCOOCap compresses the tile in the ELL+COO hybrid with a custom
// rectangle width cap (the ablation knob behind ELLWidth).
func EncodeELLCOOCap(t *matrix.Tile, cap int) Encoded { return encodeELLCOO(t, cap) }
