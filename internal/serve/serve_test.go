package serve

import (
	"bytes"
	"sync"
	"testing"

	"inputtune/internal/benchmarks/binpack"
	"inputtune/internal/benchmarks/sortbench"
	"inputtune/internal/core"
)

// Shared tiny models: trained once per test binary, reused by every test.
// Scale is irrelevant — these tests exercise the serving path, not model
// quality.
var testModels struct {
	once        sync.Once
	sortModel   *core.Model
	sortInputs  []core.Input
	packModel   *core.Model
	packInputs  []core.Input
	sortArtifct []byte
}

func trainTestModels(t testing.TB) {
	t.Helper()
	testModels.once.Do(func() {
		opts := core.Options{K1: 4, Seed: 19, TunerPopulation: 6, TunerGenerations: 4, Parallel: true}

		lists := sortbench.GenerateMix(sortbench.MixOptions{Count: 48, Seed: 5, MaxSize: 512})
		sortIn := make([]core.Input, len(lists))
		for i, l := range lists {
			sortIn[i] = l
		}
		testModels.sortInputs = sortIn
		testModels.sortModel = core.TrainModel(sortbench.New(), sortIn, opts)

		items := binpack.GenerateMix(binpack.MixOptions{Count: 48, Seed: 5})
		packIn := make([]core.Input, len(items))
		for i, it := range items {
			packIn[i] = it
		}
		testModels.packInputs = packIn
		testModels.packModel = core.TrainModel(binpack.New(), packIn, opts)

		var buf bytes.Buffer
		if err := core.SaveModel(testModels.sortModel, &buf); err != nil {
			panic(err)
		}
		testModels.sortArtifct = buf.Bytes()
	})
}

// sortServiceRegistry returns a registry with a fresh sort program whose
// model was loaded through the artifact path (the production wire).
func sortServiceRegistry(t testing.TB) *Registry {
	t.Helper()
	trainTestModels(t)
	reg := NewRegistry()
	if err := reg.Register(sortbench.New()); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Load(testModels.sortArtifct); err != nil {
		t.Fatalf("loading sort artifact: %v", err)
	}
	return reg
}

// offlineLabels computes the ground-truth classification of every input
// through the offline entry point.
func offlineLabels(m *core.Model, inputs []core.Input) []int {
	set := m.Program.Features()
	out := make([]int, len(inputs))
	for i, in := range inputs {
		out[i] = m.Production.ClassifyInput(set, in, nil)
	}
	return out
}
