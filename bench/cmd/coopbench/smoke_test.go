package main

import (
	"encoding/json"
	"io"
	"testing"
)

// TestSmokeAllWorkloads runs every workload at toy size, untraced and
// traced, and holds the printed result against BENCHMARK.json: every
// metric the file names is there with its unit, nothing else is, and
// every output check passed. It keeps the benchmark building and
// running as the program changes; it asserts nothing about speed.
func TestSmokeAllWorkloads(t *testing.T) {
	spec, err := readBenchmarkSpec("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, coopbench has %v", len(spec.Workloads), workloadNames)
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("BENCHMARK.json workload %d is %q, coopbench has %q", i, w.Name, workloadNames[i])
		}
		for _, mode := range []struct {
			trace bool
			want  []metricSpec
		}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
			info, res, err := run(config{workload: w.Name, seed: 7, trace: mode.trace, toy: true}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, mode.trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v",
					w.Name, mode.trace, res.Correct, res.Attempted, res.Failed, info.Errors)
			}
			if info.GOMAXPROCS != 1 {
				t.Errorf("%s: ran with GOMAXPROCS=%d", w.Name, info.GOMAXPROCS)
			}
			// The result must survive the round trip the driver makes.
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var back result
			if err := json.Unmarshal(line, &back); err != nil {
				t.Fatalf("%s trace=%v: result does not parse: %v", w.Name, mode.trace, err)
			}
			for _, ms := range mode.want {
				got, ok := back.Metrics[ms.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, mode.trace, ms.Name)
				case got.Unit != ms.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", w.Name, mode.trace, ms.Name, got.Unit, ms.Unit)
				}
				delete(back.Metrics, ms.Name)
			}
			for name := range back.Metrics {
				t.Errorf("%s trace=%v: metric %s is not named in BENCHMARK.json", w.Name, mode.trace, name)
			}
		}
	}
}

// TestEndToEndMetricsAreNeverZero guards the contract's rule that an
// end-to-end metric may not be 0 (its bound is a share of the median).
func TestEndToEndMetricsAreNeverZero(t *testing.T) {
	for _, w := range workloadNames {
		_, res, err := run(config{workload: w, seed: 3, toy: true}, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		for name, m := range res.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: %s = %v", w, name, m.Value)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31.0 {
		t.Errorf("quartiles = %v, %v, want 3.5, 31", q1, q3)
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for i := 1; i <= 1001; i++ {
		h.add(float64(i))
	}
	if got := h.quantile(0.5); got < 499 || got > 503 {
		t.Errorf("median of 1..1001 = %v", got)
	}
	if got := h.quantile(0.99); got < 985 || got > 997 {
		t.Errorf("p99 of 1..1001 = %v", got)
	}
}
