package drift_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"inputtune/internal/benchmarks/sortbench"
	"inputtune/internal/core"
	"inputtune/internal/drift"
	"inputtune/internal/feature"
	"inputtune/internal/serve"
)

// TestConcurrentClassifyThroughRetrain is the zero-downtime contract under
// the race detector: several goroutines hammer Classify with shifted
// traffic while the drift controller detects, retrains in the background,
// and hot-publishes a new generation mid-run. Every request must succeed,
// and every response's label must match ground-truth classification by the
// exact model generation that served it — the response is only correct
// relative to the snapshot it came from, so the test captures each
// published artifact and replays every unique (generation, input) pair
// against an offline reload of that artifact.
func TestConcurrentClassifyThroughRetrain(t *testing.T) {
	_, artifact := fixture(t)
	reg := serve.NewRegistry()
	if err := reg.Register(sortbench.New()); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Load(artifact); err != nil {
		t.Fatal(err)
	}
	svc := serve.NewService(reg, serve.Options{})

	// Every generation's artifact bytes, including the one serving before
	// the run starts. Publish routes through the service hot-reload path.
	var artMu sync.Mutex
	artifacts := map[uint64][]byte{1: artifact}
	ctrl := drift.NewController(drift.Options{
		Registry:  reg,
		Train:     core.Options{K1: 4, Seed: 11, TunerPopulation: 6, TunerGenerations: 4, Parallel: true},
		Detector:  drift.DetectorOptions{Window: 48},
		Capacity:  32,
		MinRetain: 12,
		Seed:      2,
		Publish: func(_ string, art []byte) error {
			snap, err := svc.Load(art)
			if err != nil {
				return err
			}
			artMu.Lock()
			artifacts[snap.Generation] = append([]byte(nil), art...)
			artMu.Unlock()
			return nil
		},
	})
	ctrl.Bind(svc)

	const workers = 4
	const perWorker = 400
	const maxPasses = 400
	type rec struct {
		gen   uint64
		label int
		idx   int
	}
	workerInputs := make([][]core.Input, workers)
	for w := range workerInputs {
		workerInputs[w] = shiftedInputs(perWorker, 9000+uint64(w))
	}
	results := make([][]rec, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ins := workerInputs[w]
			for pass := 0; pass < maxPasses; pass++ {
				// A pass that STARTS after a retrain has published is
				// guaranteed post-reload traffic; run one such full pass,
				// then stop. Until then, keep hammering so the publish
				// lands while requests are in flight.
				before := ctrl.Retrains("sort")
				for i, in := range ins {
					d, err := svc.Classify("sort", in)
					if err != nil {
						errs[w] = fmt.Errorf("pass %d request %d: %w", pass, i, err)
						return
					}
					results[w] = append(results[w], rec{gen: d.Generation, label: d.Landmark, idx: i})
				}
				if before >= 1 {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	ctrl.Wait()

	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: request failed during retrain/reload: %v", w, err)
		}
	}
	if ctrl.Retrains("sort") == 0 {
		t.Fatal("no retrain published during the run; the reload path was never exercised")
	}

	// Dedupe to unique (generation, worker, input) triples; the same input
	// served by the same generation must always get the same label.
	type key struct {
		gen    uint64
		worker int
		idx    int
	}
	seen := make(map[key]int)
	var maxGen uint64
	for w := range results {
		for _, r := range results[w] {
			k := key{gen: r.gen, worker: w, idx: r.idx}
			if prev, ok := seen[k]; ok {
				if prev != r.label {
					t.Fatalf("worker %d input %d: generation %d served labels %d and %d", w, r.idx, r.gen, prev, r.label)
				}
				continue
			}
			seen[k] = r.label
			if r.gen > maxGen {
				maxGen = r.gen
			}
		}
	}
	if maxGen < 2 {
		t.Fatalf("no response served by a retrained generation (max generation seen %d)", maxGen)
	}

	// Reload every captured artifact and check each unique response against
	// ground truth for the generation that served it.
	type oracle struct {
		model *core.Model
		set   *feature.Set
	}
	artMu.Lock()
	oracles := make(map[uint64]oracle, len(artifacts))
	for gen, art := range artifacts {
		m, err := core.LoadModel(sortbench.New(), bytes.NewReader(art))
		if err != nil {
			t.Fatalf("generation %d artifact does not reload: %v", gen, err)
		}
		oracles[gen] = oracle{model: m, set: m.Program.Features()}
	}
	artMu.Unlock()
	checked := 0
	for k, label := range seen {
		o, ok := oracles[k.gen]
		if !ok {
			t.Fatalf("response served by generation %d, but no artifact was ever published for it", k.gen)
		}
		want := o.model.Production.ClassifyInput(o.set, workerInputs[k.worker][k.idx], nil)
		if label != want {
			t.Fatalf("worker %d input %d: generation %d served label %d, ground truth is %d", k.worker, k.idx, k.gen, label, want)
		}
		checked++
	}
	t.Logf("verified %d unique (generation, input) responses across %d generations", checked, len(oracles))
}
