package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

var smokeSizes = sizes{
	fileEvents:  1 << 14,
	serveRate:   20_000,
	fileQueries: 50,
	serveQuery:  100,
	zipfPoints:  1 << 16,
	probes:      2,
	tracedServe: time.Second,
	reps:        1,
}

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// TestSmoke runs every workload and the traced run on small inputs and
// checks that each reports every declared metric with no failed check.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds rapd and runs every workload")
	}
	endToEnd, perLayer := declared(t)
	rapd := filepath.Join(t.TempDir(), "rapd")
	if out, err := exec.Command("go", "build", "-o", rapd, "rap/cmd/rapd").CombinedOutput(); err != nil {
		t.Fatalf("building rapd: %v\n%s", err, out)
	}
	runs := []struct {
		workload string
		traced   bool
		want     []string
	}{
		{"daemon-file", false, endToEnd},
		{"daemon-serve", false, endToEnd},
		{"library-zipf", false, endToEnd},
		{"daemon-serve", true, perLayer},
	}
	for _, r := range runs {
		c := config{workload: r.workload, seed: 7, seconds: time.Second, rapd: rapd, work: t.TempDir(), sizes: smokeSizes}
		res, err := execute(c, workloads[r.workload], r.traced)
		if err != nil {
			t.Fatalf("%s traced=%v: %v", r.workload, r.traced, err)
		}
		if res.attempted == 0 || res.failed != 0 {
			t.Errorf("%s traced=%v: %d of %d checks failed: %v", r.workload, r.traced, res.failed, res.attempted, res.notes)
		}
		for _, name := range r.want {
			m, ok := res.metrics[name]
			if !ok || math.IsNaN(m.Value) || m.Value == 0 {
				t.Errorf("%s traced=%v: metric %s = %+v, %v", r.workload, r.traced, name, m, ok)
			}
		}
		if len(res.metrics) != len(r.want) {
			t.Errorf("%s traced=%v: %d metrics reported, %d declared", r.workload, r.traced, len(res.metrics), len(r.want))
		}
	}
}
