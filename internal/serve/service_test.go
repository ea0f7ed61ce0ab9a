package serve

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"inputtune/internal/benchmarks/binpack"
	"inputtune/internal/core"
)

// TestServedLabelsBitIdenticalCacheOnOff is the acceptance invariant:
// served classifications match offline ClassifyInput exactly, with the
// decision cache on and off, on first sight and on cache hits, for both a
// time-only and a variable-accuracy model.
func TestServedLabelsBitIdenticalCacheOnOff(t *testing.T) {
	trainTestModels(t)
	cases := []struct {
		name   string
		model  *core.Model
		inputs []core.Input
	}{
		{"sort", testModels.sortModel, testModels.sortInputs},
		{"binpacking", testModels.packModel, testModels.packInputs},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := offlineLabels(tc.model, tc.inputs)
			wantUnits := make([]float64, len(tc.inputs))
			for i, in := range tc.inputs {
				wantUnits[i] = tc.model.Infer(in).FeatureUnits
			}
			for _, disable := range []bool{false, true} {
				reg := NewRegistry()
				if _, err := reg.Install(tc.model); err != nil {
					t.Fatal(err)
				}
				svc := NewService(reg, Options{Cache: CacheOptions{Disable: disable}})
				// Two passes: the second hits the cache (when enabled and
				// the production classifier is cacheable).
				for pass := 0; pass < 2; pass++ {
					for i, in := range tc.inputs {
						d, err := svc.Classify(tc.name, in)
						if err != nil {
							t.Fatal(err)
						}
						if d.Landmark != want[i] {
							t.Fatalf("cacheDisabled=%v pass %d input %d: served %d, offline %d",
								disable, pass, i, d.Landmark, want[i])
						}
						if d.FeatureUnits != wantUnits[i] {
							t.Fatalf("cacheDisabled=%v pass %d input %d: served units %v, offline %v",
								disable, pass, i, d.FeatureUnits, wantUnits[i])
						}
						if d.Config != tc.model.Landmarks[want[i]] {
							t.Fatalf("decision config is not the selected landmark")
						}
					}
				}
				stats := svc.CacheStats()
				if disable && stats.Hits+stats.Misses != 0 {
					t.Fatalf("disabled cache recorded traffic: %+v", stats)
				}
				if !disable && tc.model.Production.Kind == core.SubsetTree {
					if stats.Hits == 0 {
						t.Fatalf("second pass produced no cache hits: %+v", stats)
					}
				}
			}
		})
	}
}

func TestServiceUnknownBenchmark(t *testing.T) {
	reg := sortServiceRegistry(t)
	svc := NewService(reg, Options{})
	if _, err := svc.Classify("nosuch", testModels.sortInputs[0]); err == nil {
		t.Fatal("classify on unknown benchmark succeeded")
	}
	// Registered but unloaded benchmark: same clean failure.
	if err := reg.Register(binpack.New()); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Classify("binpacking", testModels.packInputs[0]); err == nil {
		t.Fatal("classify before any model load succeeded")
	}
}

// TestConcurrentClassifyParity drives one service from many goroutines
// and checks every label stays bit-identical to the offline model.
func TestConcurrentClassifyParity(t *testing.T) {
	reg := sortServiceRegistry(t)
	svc := NewService(reg, Options{})
	want := offlineLabels(testModels.sortModel, testModels.sortInputs)

	const goroutines = 12
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, in := range testModels.sortInputs {
				d, err := svc.Classify("sort", in)
				if err != nil {
					errCh <- err
					return
				}
				if d.Landmark != want[i] {
					errCh <- fmt.Errorf("input %d: served %d, offline %d", i, d.Landmark, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

func TestMetricsSnapshotCounts(t *testing.T) {
	reg := sortServiceRegistry(t)
	svc := NewService(reg, Options{})
	n := 10
	for i := 0; i < n; i++ {
		if _, err := svc.Classify("sort", testModels.sortInputs[i]); err != nil {
			t.Fatal(err)
		}
	}
	svc.Classify("nosuch", testModels.sortInputs[0]) // one error
	if _, err := svc.Load(testModels.sortArtifct); err != nil {
		t.Fatal(err)
	}
	snap := svc.MetricsSnapshot()
	if snap.Requests != uint64(n+1) || snap.Errors != 1 || snap.Reloads != 1 {
		t.Fatalf("snapshot counters off: %+v", snap)
	}
	found := false
	for _, b := range snap.Benchmarks {
		if b.Benchmark == "sort" {
			found = true
			if b.Requests != uint64(n) || b.Generation == 0 {
				t.Fatalf("sort bench snapshot off: %+v", b)
			}
		}
	}
	if !found {
		t.Fatal("no per-benchmark snapshot for sort")
	}
	if snap.P50Micros <= 0 || snap.P99Micros < snap.P50Micros {
		t.Fatalf("latency quantiles malformed: p50=%v p99=%v", snap.P50Micros, snap.P99Micros)
	}
	text := snap.RenderPrometheus()
	for _, needle := range []string{
		"inputtuned_requests_total 11",
		"inputtuned_request_errors_total 1",
		"inputtuned_reloads_total 1",
		"inputtuned_model_generation{benchmark=\"sort\"}",
	} {
		if !strings.Contains(text, needle) {
			t.Fatalf("prometheus text missing %q:\n%s", needle, text)
		}
	}
}
