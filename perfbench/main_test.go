package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json, which the
// benchmark's callers read, in step with the metrics the program prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloadDefs))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadDefs[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloadDefs[i].name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: %s/%s in BENCHMARK.json, %s/%s in the program", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: %s/%s in BENCHMARK.json, %s/%s in the program", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestRunPrintsResult runs serve_warm briefly, untraced and traced, and
// checks the final line carries exactly the promised metrics.
func TestRunPrintsResult(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	for _, traced := range []string{"0", "1"} {
		var out, errs bytes.Buffer
		code := run([]string{"--workload", "serve_warm", "--seed", "3", "--seconds", "1", "--trace", traced, "--out", t.TempDir()}, &out, &errs)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", traced, code, errs.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line: %v", traced, err)
		}
		if res.Attempted < 1 {
			t.Errorf("trace %s: attempted=%d", traced, res.Attempted)
		}
		// Under the race detector the servers fall behind the offered
		// rates, and requests never sent count as failures.
		if !raceEnabled && (!res.Correct || res.Failed != 0) {
			t.Errorf("trace %s: correct=%v attempted=%d failed=%d\n%s", traced, res.Correct, res.Attempted, res.Failed, out.String())
		}
		want := map[string]string{}
		if traced == "0" {
			for _, m := range endToEnd {
				want[m.name] = m.unit
			}
		} else {
			for _, m := range perLayer {
				want[m.name] = m.unit
			}
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace %s: %d metrics, want %d", traced, len(res.Metrics), len(want))
		}
		for name, unit := range want {
			if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
				t.Errorf("trace %s: metric %s = %+v, want unit %s", traced, name, m, unit)
			}
		}
	}
}

func TestRunRejectsUnknownWorkload(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errs); code == 0 || out.Len() != 0 {
		t.Errorf("exit %d, output %q; want a failure and no result", code, out.String())
	}
}
