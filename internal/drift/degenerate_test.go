package drift_test

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"inputtune/internal/benchmarks/clustering"
	"inputtune/internal/benchmarks/sortbench"
	"inputtune/internal/core"
	"inputtune/internal/drift"
	"inputtune/internal/serve"
)

// badRow copies row and sets its first observed index to v.
func badRow(row []float64, observed []int, v float64) []float64 {
	out := append([]float64(nil), row...)
	out[observed[0]] = v
	return out
}

// TestDetectorSkipsNonFiniteRows: a row with a non-finite value at an
// observed index is not counted. It gets weight 0, never fires the
// detector on otherwise stationary traffic, and leaves the window's
// statistics exactly as if it had not arrived.
func TestDetectorSkipsNonFiniteRows(t *testing.T) {
	m, _ := fixture(t)
	observed := m.Production.Static
	for _, tc := range []struct {
		name string
		v    float64
	}{
		{"NaN", math.NaN()},
		{"+Inf", math.Inf(1)},
		{"-Inf", math.Inf(-1)},
	} {
		t.Run(tc.name+"/stationary-never-fires", func(t *testing.T) {
			const window = 256 // the default window the thresholds are calibrated to
			for seed := uint64(1); seed <= 4; seed++ {
				det := drift.NewDetector(m.Summary, m.Scaler.Means, m.Scaler.Stds, drift.DetectorOptions{})
				for i, row := range rows(t, m, stationaryInputs(3*window, 1000+seed)) {
					if i%window == window/2 {
						if w := det.Observe(badRow(row, observed, tc.v), observed); w != 0 {
							t.Fatalf("seed %d: non-finite row got weight %v, want 0", seed, w)
						}
					}
					det.Observe(row, observed)
				}
				if det.Fired() {
					effect, tv := det.Stats()
					t.Fatalf("seed %d: one %s row per window fired the detector (effect %v, tv %v)", seed, tc.name, effect, tv)
				}
			}
		})
		t.Run(tc.name+"/window-stats-unchanged", func(t *testing.T) {
			const window = 64
			good := rows(t, m, stationaryInputs(window, 31))
			clean := drift.NewDetector(m.Summary, m.Scaler.Means, m.Scaler.Stds, drift.DetectorOptions{Window: window})
			dirty := drift.NewDetector(m.Summary, m.Scaler.Means, m.Scaler.Stds, drift.DetectorOptions{Window: window})
			for i, row := range good {
				if i == window/2 {
					dirty.Observe(badRow(row, observed, tc.v), observed)
				}
				clean.Observe(row, observed)
				dirty.Observe(row, observed)
			}
			ce, ctv := clean.Stats()
			de, dtv := dirty.Stats()
			if ce != de || ctv != dtv {
				t.Fatalf("window with one %s row reports (effect %v, tv %v), without it (%v, %v)", tc.name, de, dtv, ce, ctv)
			}
			if ce == 0 && ctv == 0 {
				t.Fatal("window never closed: the comparison is vacuous")
			}
		})
	}
}

// sortFrames encodes each input as a binary sort request frame.
func sortFrames(t *testing.T, inputs []core.Input) [][]byte {
	t.Helper()
	frames := make([][]byte, len(inputs))
	for i, in := range inputs {
		var buf bytes.Buffer
		if err := serve.EncodeBinaryRequest(&buf, "sort", in); err != nil {
			t.Fatal(err)
		}
		frames[i] = buf.Bytes()
	}
	return frames
}

// repeat returns each input copies times, in order.
func repeat(inputs []core.Input, copies int) []core.Input {
	out := make([]core.Input, 0, len(inputs)*copies)
	for _, in := range inputs {
		for c := 0; c < copies; c++ {
			out = append(out, in)
		}
	}
	return out
}

// TestRetrainArtifactDegenerateSets drives RetrainArtifact with retained
// sets a live reservoir can hold. Each case must end in an error or an
// artifact core.LoadModel accepts; a panic escaping RetrainArtifact fails
// the test by crashing it.
func TestRetrainArtifactDegenerateSets(t *testing.T) {
	opts := trainOpts() // K1 = 4
	valid := sortFrames(t, stationaryInputs(8, 41))
	truncated := append(append([][]byte(nil), valid[:4]...), valid[4][:len(valid[4])/2])
	var other bytes.Buffer
	if err := serve.EncodeBinaryRequest(&other, "clustering",
		clustering.GenerateMix(clustering.MixOptions{Count: 1, Seed: 3, MaxSize: 120})[0]); err != nil {
		t.Fatal(err)
	}
	foreign := append(append([][]byte(nil), valid[:4]...), other.Bytes())

	for _, tc := range []struct {
		name      string
		frames    [][]byte
		wantError bool // false: an error or a loadable artifact
	}{
		{"no frames", nil, true},
		{"one frame", valid[:1], true},
		{"another benchmark's frame", foreign, true},
		{"truncated frame", truncated, true},
		{"all identical inputs", sortFrames(t, repeat(stationaryInputs(1, 43), 12)), false},
		{"fewer distinct inputs than K1", sortFrames(t, repeat(stationaryInputs(opts.K1-1, 47), 4)), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			artifact, err := drift.RetrainArtifact("sort", tc.frames, opts)
			if err != nil {
				if artifact != nil {
					t.Fatalf("error %v came with a %d-byte artifact", err, len(artifact))
				}
				t.Logf("refused: %v", err)
				return
			}
			if tc.wantError {
				t.Fatalf("retrain succeeded, want an error")
			}
			if _, err := core.LoadModel(sortbench.New(), bytes.NewReader(artifact)); err != nil {
				t.Fatalf("retrained artifact does not load: %v", err)
			}
		})
	}
}

// TestControllerFailedRetrainNeverPublishes: when a drift-triggered
// retrain fails, Publish is never called, the serving generation stays,
// and the OnRetrain event carries the error and no artifact.
func TestControllerFailedRetrainNeverPublishes(t *testing.T) {
	_, artifact := fixture(t)
	reg := serve.NewRegistry()
	if err := reg.Register(sortbench.New()); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Load(artifact); err != nil {
		t.Fatal(err)
	}
	svc := serve.NewService(reg, serve.Options{})

	// TrainModel logs before any work, so a panicking Logf fails every
	// retrain inside RetrainArtifact, which turns the panic into an error.
	failing := trainOpts()
	failing.Logf = func(string, ...any) { panic("injected training failure") }
	var mu sync.Mutex
	var events []drift.RetrainEvent
	ctrl := drift.NewController(drift.Options{
		Registry:  reg,
		Train:     failing,
		Detector:  drift.DetectorOptions{Window: 48},
		Capacity:  32,
		MinRetain: 12,
		Seed:      1,
		Publish:   func(string, []byte) error { t.Error("Publish called after a failed retrain"); return nil },
		OnRetrain: func(ev drift.RetrainEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
	})
	ctrl.Bind(svc)

	for i, in := range shiftedInputs(400, 77) {
		if _, err := svc.Classify("sort", in); err != nil {
			t.Fatalf("request %d failed: %v", i, err)
		}
	}
	ctrl.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(events) == 0 {
		t.Fatal("no retrain attempt recorded: the detector never fired")
	}
	for i, ev := range events {
		if ev.Err == nil {
			t.Fatalf("event %d: retrain reported success", i)
		}
		if ev.Artifact != nil {
			t.Fatalf("event %d: failed retrain carries a %d-byte artifact", i, len(ev.Artifact))
		}
	}
	if got := ctrl.Retrains("sort"); got != 0 {
		t.Fatalf("controller counted %d retrains", got)
	}
	if snap, _ := reg.Get("sort"); snap.Generation != 1 {
		t.Fatalf("registry moved to generation %d", snap.Generation)
	}
}
