package formats

import (
	"encoding/binary"
	"fmt"
	"testing"

	"copernicus/internal/matrix"
)

// Fuzz targets: decoders must never panic on arbitrary streams — they
// either return ErrCorrupt-wrapped errors or a structurally valid tile.
// Seed corpora cover valid encodings and near-miss corruptions; `go
// test` replays the corpus, `go test -fuzz` explores.

func fuzzTileOK(t *testing.T, tile *matrix.Tile, p int) {
	t.Helper()
	if tile.P != p {
		t.Fatalf("decoded tile size %d, want %d", tile.P, p)
	}
	for i := 0; i < p; i++ {
		cols, vals := tile.RowView(i)
		for k, j := range cols {
			if j < 0 || int(j) >= p || k > 0 && j <= cols[k-1] {
				t.Fatalf("row %d columns %v not strictly ascending within [0,%d)", i, cols, p)
			}
			if vals[k] == 0 {
				t.Fatalf("row %d stores a zero at column %d", i, j)
			}
		}
	}
}

// fuzzTile builds a p×p tile, p = 8·(1 + sel%4) so every format's
// divisibility holds, from (row, col, value) byte triples: zero values
// clear cells, repeated cells overwrite.
func fuzzTile(sel uint8, cells []byte) *matrix.Tile {
	p := 8 * (1 + int(sel)%4)
	b := matrix.NewTileBuilder(p, 0, 0)
	for k := 0; k+2 < len(cells) && k < 3*1024; k += 3 {
		b.Set(int(cells[k])%p, int(cells[k+1])%p, float64(int8(cells[k+2])))
	}
	return b.Tile()
}

// FuzzRoundTrip requires every format to decode its own encoding of a
// fuzzed tile back to that tile, both through Decode and through one
// builder shared, and left dirty, across every format and iteration.
func FuzzRoundTrip(f *testing.F) {
	shared := new(matrix.TileBuilder)
	f.Add(uint8(0), []byte{0, 3, 1, 4, 7, 2, 7, 7, 3})
	f.Add(uint8(1), []byte{})
	f.Add(uint8(2), []byte{5, 5, 9, 5, 5, 0, 2, 9, 250, 2, 1, 4, 2, 9, 6})
	f.Add(uint8(3), []byte{31, 0, 1, 0, 31, 2, 16, 16, 128})
	f.Fuzz(func(t *testing.T, sel uint8, cells []byte) {
		tile := fuzzTile(sel, cells)
		fuzzTileOK(t, tile, tile.P)
		for _, k := range All() {
			dec, err := Encode(k, tile).Decode()
			if err != nil {
				t.Fatalf("%v: decode: %v", k, err)
			}
			if !dec.EqualValues(tile) {
				t.Fatalf("%v: round trip changed the tile", k)
			}
			into, err := Encode(k, tile).DecodeInto(shared)
			if err != nil {
				t.Fatalf("%v: decode into shared builder: %v", k, err)
			}
			if !into.EqualValues(dec) {
				t.Fatalf("%v: shared builder decoded a different tile than Decode", k)
			}
		}
	})
}

// intStreams returns every integer stream Decode reads from e, in a
// fixed order and sharing e's storage, so writing an entry corrupts the
// encoding in place. CSR's skip list is host-kernel metadata Decode
// ignores, so it is left out.
func intStreams(e Encoded) [][]int32 {
	switch e := e.(type) {
	case *DenseEnc:
		return nil
	case *CSREnc:
		return [][]int32{e.offsets, e.colIdx}
	case *CSCEnc:
		return [][]int32{e.offsets, e.rowIdx}
	case *BCSREnc:
		return [][]int32{e.offsets, e.colIdx}
	case *COOEnc:
		return [][]int32{e.rows, e.cols}
	case *DOKEnc:
		return [][]int32{e.keys}
	case *LILEnc:
		return e.colRows
	case *ELLEnc:
		return [][]int32{e.idx}
	case *DIAEnc:
		return [][]int32{e.diagNo}
	case *SELLEnc:
		return [][]int32{e.widths, e.idx}
	case *ELLCOOEnc:
		return [][]int32{e.idx, e.srow, e.scol}
	case *JDSEnc:
		return [][]int32{e.perm, e.ptr, e.idx}
	case *SELLCSEnc:
		return [][]int32{e.perm, e.widths, e.idx}
	}
	panic(fmt.Sprintf("formats: intStreams has no case for %T", e))
}

// decodeFuzzTile is the tile every decode fuzz seed corrupts: five
// entries of an 8×8 tile (sel 0), in rows 0, 1, 2, 5 and 7.
var decodeFuzzTile = []byte{0, 3, 1, 1, 4, 2, 2, 2, 3, 5, 7, 4, 7, 0, 5}

// checkCorruptDecode encodes a fuzzed tile in format k, then overwrites
// integer-stream entries: each 5-byte edit names a stream (intStreams
// order), a little-endian 16-bit index into it and a little-endian
// signed 16-bit value. Decode must return an error or a structurally
// valid tile, never panic, and decoding through one builder shared, and
// left dirty, across inputs must agree with it.
func checkCorruptDecode(t *testing.T, shared *matrix.TileBuilder, k Kind, sel uint8, cells, edits []byte) {
	t.Helper()
	enc := Encode(k, fuzzTile(sel, cells))
	streams := intStreams(enc)
	for i := 0; i+4 < len(edits) && len(streams) > 0; i += 5 {
		s := streams[int(edits[i])%len(streams)]
		if len(s) > 0 {
			at := int(binary.LittleEndian.Uint16(edits[i+1:])) % len(s)
			s[at] = int32(int16(binary.LittleEndian.Uint16(edits[i+3:])))
		}
	}
	dec, err := enc.Decode()
	if err == nil {
		fuzzTileOK(t, dec, enc.P())
	}
	into, errInto := enc.DecodeInto(shared)
	if (err == nil) != (errInto == nil) {
		t.Fatalf("%v: Decode error %v, shared-builder error %v", k, err, errInto)
	}
	if err == nil && !into.EqualValues(dec) {
		t.Fatalf("%v: shared builder decoded a different tile than Decode", k)
	}
}

// FuzzDecode runs checkCorruptDecode on every format, the fuzz input
// picking the kind; it is seeded with each format's valid encoding.
func FuzzDecode(f *testing.F) {
	shared := new(matrix.TileBuilder)
	for k := range NumKinds {
		f.Add(uint8(k), uint8(0), decodeFuzzTile, []byte{})
	}
	f.Fuzz(func(t *testing.T, kind, sel uint8, cells, edits []byte) {
		checkCorruptDecode(t, shared, Kind(int(kind)%NumKinds), sel, cells, edits)
	})
}

// FuzzCSRDecode, FuzzCOODecode, FuzzDIADecode and FuzzJDSDecode pin
// checkCorruptDecode to one format, so `go test -fuzz` can spend its
// whole budget on that decoder, and carry the corruption shapes that
// format's decoder is known to have to reject.

func FuzzCSRDecode(f *testing.F) {
	shared := new(matrix.TileBuilder)
	f.Add(uint8(0), decodeFuzzTile, []byte{})
	f.Add(uint8(1), []byte{}, []byte{})
	f.Add(uint8(0), decodeFuzzTile, []byte{0, 0, 0, 3, 0, 0, 1, 0, 1, 0}) // decreasing offsets
	f.Add(uint8(0), decodeFuzzTile, []byte{1, 0, 0, 0xfc, 0xff})          // negative column
	f.Fuzz(func(t *testing.T, sel uint8, cells, edits []byte) {
		checkCorruptDecode(t, shared, CSR, sel, cells, edits)
	})
}

func FuzzCOODecode(f *testing.F) {
	shared := new(matrix.TileBuilder)
	f.Add(uint8(0), decodeFuzzTile, []byte{0, 0, 0, 0xff, 0xff})          // sentinel in the middle
	f.Add(uint8(0), decodeFuzzTile, []byte{0, 5, 0, 0, 0, 1, 5, 0, 0, 0}) // sentinel overwritten
	f.Add(uint8(0), decodeFuzzTile, []byte{1, 1, 0, 0xfc, 0xff})          // negative column
	f.Add(uint8(0), decodeFuzzTile, []byte{0, 2, 0, 200, 0})              // row past the tile
	f.Fuzz(func(t *testing.T, sel uint8, cells, edits []byte) {
		checkCorruptDecode(t, shared, COO, sel, cells, edits)
	})
}

func FuzzDIADecode(f *testing.F) {
	shared := new(matrix.TileBuilder)
	f.Add(uint8(0), decodeFuzzTile, []byte{0, 0, 0, 200, 0})     // diagonal past the tile
	f.Add(uint8(0), decodeFuzzTile, []byte{0, 1, 0, 0xd8, 0xff}) // diagonal before the tile
	f.Fuzz(func(t *testing.T, sel uint8, cells, edits []byte) {
		checkCorruptDecode(t, shared, DIA, sel, cells, edits)
	})
}

func FuzzJDSDecode(f *testing.F) {
	shared := new(matrix.TileBuilder)
	f.Add(uint8(0), decodeFuzzTile, []byte{0, 0, 0, 1, 0, 0, 1, 0, 1, 0}) // repeated permutation row
	f.Add(uint8(0), decodeFuzzTile, []byte{0, 2, 0, 0xfe, 0xff})          // negative permutation row
	f.Add(uint8(0), decodeFuzzTile, []byte{1, 0, 0, 0xff, 0xff})          // diagonal starting before the stream
	f.Fuzz(func(t *testing.T, sel uint8, cells, edits []byte) {
		checkCorruptDecode(t, shared, JDS, sel, cells, edits)
	})
}
