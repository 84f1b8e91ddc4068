package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Layer: "driver", Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Layer: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Layer: "a", Start: 20, End: 50},  // overlaps span 1
		{ID: 3, Parent: 0, Layer: "b", Start: 90, End: 120}, // runs past its parent
		{ID: 4, Parent: 1, Layer: "c", Start: 15, End: 25},
	}
	self := selfTimes(spans)
	// Children cover [10, 50] and [90, 100] of the root: 50 of 100.
	for id, want := range map[int]int64{0: 50, 1: 10, 2: 30, 3: 30, 4: 10} {
		if self[id] != want {
			t.Errorf("self[%d] = %d, want %d", id, self[id], want)
		}
	}
	if got := unattributed(spans, self)["op"]; got != 0.5 {
		t.Errorf("unattributed share = %g, want 0.5", got)
	}
	rows := layerTable(spans, self)
	got := map[string]int64{}
	for _, r := range rows {
		got[r.layer] = r.selfNs
	}
	if got["driver"] != 50 || got["a"] != 40 || got["b"] != 30 || got["c"] != 10 {
		t.Errorf("layer self times %v", got)
	}
	if rows[0].layer != "driver" {
		t.Errorf("table starts with %q, want the largest layer first", rows[0].layer)
	}
}

func TestCoveredUnion(t *testing.T) {
	for _, c := range []struct {
		ivs  [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}, {10, 20}}, 20},
		{[][2]int64{{5, 8}, {0, 10}}, 10},
		{[][2]int64{{30, 40}, {0, 5}, {3, 6}}, 16},
		{[][2]int64{{-10, 5}, {95, 200}}, 10},
		{[][2]int64{{200, 300}}, 0},
	} {
		if got := covered(0, 100, c.ivs); got != c.want {
			t.Errorf("covered(0, 100, %v) = %d, want %d", c.ivs, got, c.want)
		}
	}
}

func TestTracerRecordsTree(t *testing.T) {
	tr := newTracer()
	root := tr.op("op")
	tr.do(root, "layer", "call", func() {})
	open := tr.begin(root, "layer", "unfinished")
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Op != spans[0].Op {
		t.Fatalf("spans %+v, want a closed root and one child of the same op", spans)
	}
	tr.end(open)
	if len(tr.snapshot()) != 3 {
		t.Error("a span closed late is missing")
	}
	if tr.op("next") == root || tr.snapshot()[0].Op == 0 {
		t.Error("operations must get distinct non-zero IDs")
	}
}

func TestNilTracerIsOff(t *testing.T) {
	var tr *tracer
	root := tr.op("op")
	ran := false
	tr.do(root, "layer", "call", func() { ran = true })
	tr.end(tr.begin(root, "layer", "x"))
	if root != -1 || !ran || tr.snapshot() != nil {
		t.Error("a nil tracer must run the work and record nothing")
	}
}

func TestWriteSpansAndTable(t *testing.T) {
	spans := []span{{ID: 0, Parent: -1, Op: 1, Layer: "driver", Name: "op", Start: 0, End: 10}, {ID: 1, Parent: 0, Op: 1, Layer: "wire", Name: "wire.Encode", Start: 2, End: 6}}
	path := filepath.Join(t.TempDir(), "d", "spans.jsonl")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var back span
	if len(lines) != 2 || json.Unmarshal([]byte(lines[1]), &back) != nil || back != spans[1] {
		t.Fatalf("spans file %q does not round-trip", data)
	}
	var buf bytes.Buffer
	printTrace(&buf, spans, selfTimes(spans))
	if !strings.Contains(buf.String(), "unattributed share of op: 60.0%") {
		t.Errorf("table lacks the unattributed share:\n%s", buf.String())
	}
}
