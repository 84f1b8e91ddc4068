package hlsim

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"copernicus/internal/formats"
	"copernicus/internal/gen"
	"copernicus/internal/matrix"
)

// corruptEnc wraps a real encoding and corrupts its DecodeInto: with a
// decode error, or by decoding to an empty tile that fails the
// cross-check. A non-nil wait delays the decode until it closes (or a
// timeout passes); a non-nil done is closed when the decode starts.
type corruptEnc struct {
	formats.Encoded
	decodeErr  bool
	wait, done chan struct{}
}

func (c *corruptEnc) DecodeInto(b *matrix.TileBuilder) (*matrix.Tile, error) {
	if c.done != nil {
		close(c.done)
	}
	if c.wait != nil {
		select {
		case <-c.wait:
		case <-time.After(10 * time.Second):
		}
	}
	if c.decodeErr {
		return nil, fmt.Errorf("%w: test corruption", formats.ErrCorrupt)
	}
	b.Reset(c.P(), 0, 0)
	return b.Build(), nil
}

// TestVerifyLowestFailureAtEveryPoolSize: with two corrupt tiles, the
// tile-parallel verify reports the lower-index one — the failure a
// serial walk stops at — with the same text at every pool size. With
// helpers, the lower tile's decode is held back until the higher one
// has failed, so the pass must not keep whichever failure came first.
// The failure is sticky: a retry after the real encodings are restored
// returns the same error.
func TestVerifyLowestFailureAtEveryPoolSize(t *testing.T) {
	const lo, hi = 3, 40
	m := gen.Random(256, 0.05, 359)
	ctx := context.Background()
	var want string
	for _, workers := range []int{1, 2, 8} {
		pl := mustPlan(t, m, 16)
		pl.SetWorkers(workers)
		tiles := pl.pt.Tiles
		if len(tiles) <= max(hi, minParallelTiles) {
			t.Fatalf("%d tiles, want more than %d", len(tiles), max(hi, minParallelTiles))
		}
		pf, err := pl.format(ctx, formats.CSR)
		if err != nil {
			t.Fatal(err)
		}
		encs := pf.encs
		real := []formats.Encoded{encs[lo], encs[hi]}
		low := &corruptEnc{Encoded: encs[lo]}
		high := &corruptEnc{Encoded: encs[hi], decodeErr: true}
		if workers > 1 {
			high.done = make(chan struct{})
			low.wait = high.done
		}
		encs[lo], encs[hi] = low, high

		_, err = pl.verify(ctx, formats.CSR)
		if err == nil {
			t.Fatalf("workers=%d: verify passed two corrupt tiles", workers)
		}
		got := err.Error()
		if want == "" {
			want = got
			if tl := tiles[lo]; !strings.Contains(got, fmt.Sprintf("tile (%d,%d): CSR decode mismatch", tl.Row, tl.Col)) {
				t.Fatalf("serial verify error %q does not name tile %d at (%d,%d)", got, lo, tl.Row, tl.Col)
			}
		} else if got != want {
			t.Fatalf("workers=%d: verify error %q, want the serial walk's %q", workers, got, want)
		}

		encs[lo], encs[hi] = real[0], real[1]
		if _, err := pl.verify(ctx, formats.CSR); err == nil || err.Error() != want {
			t.Fatalf("workers=%d: retry error %v, want sticky %q", workers, err, want)
		}
	}
}

// TestVerifyAllocatesPerWorkerNotPerTile: the cross-check decodes every
// tile through a pooled, reused builder, so a verify pass over hundreds
// of tiles makes a handful of allocations, not a few per tile.
func TestVerifyAllocatesPerWorkerNotPerTile(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomly drops sync.Pool items")
	}
	m := gen.Random(256, 0.05, 367)
	ctx := context.Background()
	for _, workers := range []int{1, 2} {
		pl := mustPlan(t, m, 16)
		pl.SetWorkers(workers)
		pf, err := pl.format(ctx, formats.DOK)
		if err != nil {
			t.Fatal(err)
		}
		encs := pf.encs
		allocs := testing.AllocsPerRun(10, func() {
			pf.encs = encs
			if err := pl.runVerify(ctx, formats.DOK, pf); err != nil || pf.err() != nil {
				t.Fatalf("verify: %v / %v", err, pf.err())
			}
		})
		t.Logf("workers=%d: %v allocs per verify of %d tiles", workers, allocs, len(encs))
		if allocs > 16 {
			t.Errorf("workers=%d: verify of %d tiles makes %v allocs, want a per-worker constant", workers, len(encs), allocs)
		}
	}
}
