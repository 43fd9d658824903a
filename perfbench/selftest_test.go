package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

// tiny are small instances of every workload, for the self-test.
var tiny = map[string]func(seed uint64) system{
	"wave-100k": func(seed uint64) system {
		return newFloodSim(floodParams{n: 2000, shards: 1, origins: 2}, seed)
	},
	"spy-sharded-100k": func(seed uint64) system {
		return newFloodSim(floodParams{n: 2000, shards: 2, origins: 2, spyFrac: 0.05, netem: spyConfig.netem}, seed)
	},
	"composed-soak-1k": func(seed uint64) system {
		return newSoakSim(soakParams{n: 100, rate: 20, inject: 500 * time.Millisecond, drain: 10 * time.Second}, seed)
	},
	"live-flood-mem": func(seed uint64) system {
		return newLiveFlood(liveParams{n: 8, origins: 2}, seed)
	},
}

func tinyRun(t *testing.T, name string, seed uint64, traced bool, expect []string) *report {
	t.Helper()
	rep, err := run(tiny[name](seed), runConfig{seconds: 0.2, trace: traced, setups: 1, expect: expect})
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	return rep
}

// TestMetricsMatchBenchmarkJSON checks that the metrics the program
// emits are exactly those BENCHMARK.json declares, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: program emits %d metrics, BENCHMARK.json lists %d", kind, len(got), len(want))
		}
		for i := range min(len(got), len(want)) {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)",
					kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil || tiny[w.Name] == nil {
			t.Errorf("workload %s has no constructor", w.Name)
		}
		if got, want := len(pinned[w.Name]), workloads[w.Name](defaultSeed).slots(); got != want {
			t.Errorf("workload %s: %d pinned fingerprints, want one per slot (%d)", w.Name, got, want)
		}
	}
}

// TestTinyRuns drives every workload at a tiny size, untraced and
// traced, and checks what each run reports.
func TestTinyRuns(t *testing.T) {
	for name := range tiny {
		t.Run(name, func(t *testing.T) {
			plain := tinyRun(t, name, defaultSeed, false, nil)
			if plain.failed != 0 {
				t.Fatalf("untraced run failed: %v", plain.failures)
			}
			for _, d := range endToEnd {
				v, ok := plain.metrics[d.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
					t.Errorf("end-to-end %s = %v (present %v); want finite and > 0", d.name, v, ok)
				}
			}

			traced := tinyRun(t, name, defaultSeed, true, plain.fingerprints)
			if traced.failed != 0 {
				t.Fatalf("traced run does not reproduce the untraced fingerprints: %v", traced.failures)
			}
			for _, d := range perLayer {
				v, ok := traced.metrics[d.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer %s = %v (present %v); want finite", d.name, v, ok)
				}
			}
			var sum int64
			for layer, ns := range traced.selfNs {
				if ns < 0 {
					t.Errorf("self time of %s = %d ns; want >= 0", layer, ns)
				}
				sum += ns
			}
			if sum > traced.capacityNs {
				t.Errorf("self times sum to %d ns, more than the %d owner-ns of their op spans", sum, traced.capacityNs)
			}

			perturbed := slices.Clone(plain.fingerprints)
			perturbed[0] = "0000000000000000"
			bad, err := run(tiny[name](defaultSeed), runConfig{seconds: 0.2, setups: 1, expect: perturbed})
			if err == nil && bad.failed == 0 {
				t.Errorf("a perturbed expected fingerprint did not fail the run")
			}

			other := tinyRun(t, name, defaultSeed+1, false, nil)
			if other.failed != 0 {
				t.Errorf("seed %d fails its own checks: %v", defaultSeed+1, other.failures)
			}
			if slices.Equal(other.fingerprints, plain.fingerprints) {
				t.Errorf("seed %d reproduces seed %d's fingerprints %v", defaultSeed+1, defaultSeed, plain.fingerprints)
			}
		})
	}
}
