package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced call the benchmark makes into a layer. Spans of one
// operation share Op; an operation's root span has Parent -1 and layer
// "driver", the benchmark's own load generator, whose self time is the
// operation's unattributed time. Times are nanoseconds from the tracer's
// start.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory trace; spans past it are not recorded
// (and their time counts as their parent's own).
const maxSpans = 1 << 20

// tracer records spans in memory. A nil *tracer records nothing, so the
// untraced run calls the same code at the cost of a nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// op starts an operation and returns its root span.
func (t *tracer) op(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	t.ops++
	op := t.ops
	t.mu.Unlock()
	return t.open(op, -1, "driver", name)
}

// begin opens a child span of parent in layer.
func (t *tracer) begin(parent int, layer, name string) int {
	if t == nil || parent < 0 {
		return -1
	}
	t.mu.Lock()
	op := t.spans[parent].Op
	t.mu.Unlock()
	return t.open(op, parent, layer, name)
}

func (t *tracer) open(op, parent int, layer, name string) int {
	start := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Layer: layer, Name: name, Start: start, End: -1})
	return id
}

// end closes a span opened by op or begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// do runs fn inside a child span of parent.
func (t *tracer) do(parent int, layer, name string, fn func()) {
	id := t.begin(parent, layer, name)
	fn()
	t.end(id)
}

// snapshot returns the closed spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's own time, keyed by span ID: its duration
// minus the part of it that its children cover. Children may overlap one
// another (parallel calls); their union counts once, clipped to the
// parent's interval.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
	return self
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curA, curB, open = iv[0], iv[1], true
		case iv[0] <= curB:
			curB = max(curB, iv[1])
		default:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfByName sums the self time (ns) and counts the spans with a name.
func selfByName(spans []span, self map[int]int64, name string) (ns int64, n int) {
	for _, s := range spans {
		if s.Name == name {
			ns += self[s.ID]
			n++
		}
	}
	return ns, n
}

// layerRow is one line of the per-layer self-time table.
type layerRow struct {
	layer  string
	spans  int
	selfNs int64
}

// layerTable sums self time per layer, largest first.
func layerTable(spans []span, self map[int]int64) []layerRow {
	idx := map[string]int{}
	var rows []layerRow
	for _, s := range spans {
		i, ok := idx[s.Layer]
		if !ok {
			i = len(rows)
			idx[s.Layer] = i
			rows = append(rows, layerRow{layer: s.Layer})
		}
		rows[i].spans++
		rows[i].selfNs += self[s.ID]
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].selfNs > rows[j].selfNs })
	return rows
}

// unattributed returns, per operation name, the share of the operations'
// time that no layer span covers: the root spans' self time over their
// duration.
func unattributed(spans []span, self map[int]int64) map[string]float64 {
	own, total := map[string]int64{}, map[string]int64{}
	for _, s := range spans {
		if s.Parent < 0 {
			own[s.Name] += self[s.ID]
			total[s.Name] += s.End - s.Start
		}
	}
	out := make(map[string]float64, len(total))
	for name, t := range total {
		if t > 0 {
			out[name] = float64(own[name]) / float64(t)
		}
	}
	return out
}

// writeSpans writes spans as JSON lines to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printTrace writes the per-layer self-time table and the unattributed
// share of each operation.
func printTrace(w io.Writer, spans []span, self map[int]int64) {
	var total int64
	for _, s := range spans {
		if s.Parent < 0 {
			total += s.End - s.Start
		}
	}
	fmt.Fprintf(w, "trace: %d spans\n%-10s %8s %12s %8s\n", len(spans), "layer", "spans", "self_ms", "share")
	for _, r := range layerTable(spans, self) {
		share := 0.0
		if total > 0 {
			share = float64(r.selfNs) / float64(total)
		}
		fmt.Fprintf(w, "%-10s %8d %12.3f %7.1f%%\n", r.layer, r.spans, float64(r.selfNs)/1e6, 100*share)
	}
	un := unattributed(spans, self)
	names := make([]string, 0, len(un))
	for n := range un {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "unattributed share of %s: %.1f%%\n", n, 100*un[n])
	}
}
