package drift_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"inputtune/internal/benchmarks/sortbench"
	"inputtune/internal/core"
	"inputtune/internal/drift"
	"inputtune/internal/serve"
)

// The fixture distribution pair: the model trains on the synthetic
// generator battery at small sizes; shifted traffic is the registry-like
// workload (heavy duplication, block-sorted structure) at much larger
// sizes — a genuine feature-distribution shift on sortedness, duplication
// and size, not just noise.
func trainOpts() core.Options {
	return core.Options{K1: 4, Seed: 19, TunerPopulation: 6, TunerGenerations: 4, Parallel: true}
}

func stationaryInputs(n int, seed uint64) []core.Input {
	lists := sortbench.GenerateMix(sortbench.MixOptions{Count: n, Seed: seed, MaxSize: 512})
	out := make([]core.Input, len(lists))
	for i, l := range lists {
		out[i] = l
	}
	return out
}

func shiftedInputs(n int, seed uint64) []core.Input {
	lists := sortbench.GenerateMix(sortbench.MixOptions{Count: n, Seed: seed, RealLike: true, MinSize: 1024, MaxSize: 2048})
	out := make([]core.Input, len(lists))
	for i, l := range lists {
		out[i] = l
	}
	return out
}

var fix struct {
	once     sync.Once
	model    *core.Model
	artifact []byte
}

// fixture trains the shared sort model once per test binary and requires
// a static-subset production classifier — the path the sampling hook
// taps; every test here is vacuous without it.
func fixture(t *testing.T) (*core.Model, []byte) {
	t.Helper()
	fix.once.Do(func() {
		fix.model = core.TrainModel(sortbench.New(), stationaryInputs(48, 5), trainOpts())
		var buf bytes.Buffer
		if err := core.SaveModel(fix.model, &buf); err != nil {
			panic(err)
		}
		fix.artifact = buf.Bytes()
	})
	if fix.model.Production.Kind != core.SubsetTree || len(fix.model.Production.Static) == 0 {
		t.Fatalf("fixture model production is %q, need a static-subset tree for the sampling hook", fix.model.Production.Name)
	}
	return fix.model, fix.artifact
}

// rows extracts full feature rows for detector-level tests.
func rows(t *testing.T, m *core.Model, inputs []core.Input) [][]float64 {
	t.Helper()
	set := m.Program.Features()
	out := make([][]float64, len(inputs))
	for i, in := range inputs {
		r, _ := set.ExtractAll(in)
		out[i] = r
	}
	return out
}

// TestDetectorQuietOnStationaryTraffic is the false-positive bound: live
// traffic drawn from the SAME distribution the model trained on (fresh
// seeds) must never fire the detector, across many seeds and windows.
func TestDetectorQuietOnStationaryTraffic(t *testing.T) {
	m, _ := fixture(t)
	const window = 256 // the default window the thresholds are calibrated to
	for seed := uint64(1); seed <= 8; seed++ {
		det := drift.NewDetector(m.Summary, m.Scaler.Means, m.Scaler.Stds, drift.DetectorOptions{})
		for _, row := range rows(t, m, stationaryInputs(3*window, 1000+seed)) {
			det.Observe(row, m.Production.Static)
		}
		if det.Fired() {
			effect, tv := det.Stats()
			t.Errorf("seed %d: detector fired on stationary traffic (effect %.3f, tv %.3f)", seed, effect, tv)
		}
	}
}

// TestDetectorFiresOnShiftWithinBound: a genuine distribution shift must
// fire within two windows — the tail of the window the shift lands in
// plus one fully shifted window.
func TestDetectorFiresOnShiftWithinBound(t *testing.T) {
	m, _ := fixture(t)
	const window = 256 // default window: bound is 2×Window at default thresholds
	for seed := uint64(1); seed <= 4; seed++ {
		det := drift.NewDetector(m.Summary, m.Scaler.Means, m.Scaler.Stds, drift.DetectorOptions{})
		fired := -1
		for i, row := range rows(t, m, shiftedInputs(2*window, 2000+seed)) {
			det.Observe(row, m.Production.Static)
			if det.Fired() {
				fired = i + 1
				break
			}
		}
		if fired < 0 {
			effect, tv := det.Stats()
			t.Fatalf("seed %d: detector never fired on shifted traffic within %d samples (effect %.3f, tv %.3f)",
				seed, 2*window, effect, tv)
		}
		if fired > 2*window {
			t.Fatalf("seed %d: detector took %d samples, bound is %d", seed, fired, 2*window)
		}
	}
}

// TestDetectorResetRequiresFreshEvidence: after Reset (a retrain
// published), the old verdict must not linger.
func TestDetectorResetRequiresFreshEvidence(t *testing.T) {
	m, _ := fixture(t)
	det := drift.NewDetector(m.Summary, m.Scaler.Means, m.Scaler.Stds, drift.DetectorOptions{Window: 32})
	for _, row := range rows(t, m, shiftedInputs(64, 7)) {
		det.Observe(row, m.Production.Static)
	}
	if !det.Fired() {
		t.Fatal("detector did not fire on shifted traffic")
	}
	det.Reset()
	if det.Fired() {
		t.Fatal("fired flag survived Reset")
	}
	for _, row := range rows(t, m, stationaryInputs(64, 11)) {
		det.Observe(row, m.Production.Static)
	}
	if det.Fired() {
		t.Fatal("detector re-fired on stationary traffic after reset")
	}
}

func TestReservoirBoundedAndDeterministic(t *testing.T) {
	enc := func(i int) func() []byte {
		return func() []byte { return []byte(fmt.Sprintf("frame-%d", i)) }
	}
	a := drift.NewReservoir(8, 42)
	b := drift.NewReservoir(8, 42)
	for i := 0; i < 500; i++ {
		a.Offer(1, enc(i))
		b.Offer(1, enc(i))
	}
	if a.Len() != 8 {
		t.Fatalf("reservoir holds %d, capacity 8", a.Len())
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	if len(sa) != len(sb) {
		t.Fatalf("same-seed reservoirs retained %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if !bytes.Equal(sa[i], sb[i]) {
			t.Fatalf("same-seed reservoirs diverged at %d: %q vs %q", i, sa[i], sb[i])
		}
	}
	// Snapshot returns retained frames in arrival order.
	prev := -1
	for _, f := range sa {
		var n int
		if _, err := fmt.Sscanf(string(f), "frame-%d", &n); err != nil {
			t.Fatalf("unexpected frame %q", f)
		}
		if n <= prev {
			t.Fatalf("snapshot out of arrival order: frame-%d after frame-%d", n, prev)
		}
		prev = n
	}
}

// TestReservoirPrefersInformativeInputs: with boundary-proximity weights,
// high-weight items must dominate the retained set.
func TestReservoirPrefersInformativeInputs(t *testing.T) {
	r := drift.NewReservoir(10, 7)
	for i := 0; i < 400; i++ {
		w := 0.02
		tag := byte('l')
		if i%2 == 0 {
			w, tag = 2.0, 'h'
		}
		func(tag byte) { r.Offer(w, func() []byte { return []byte{tag} }) }(tag)
	}
	high := 0
	for _, f := range r.Snapshot() {
		if f[0] == 'h' {
			high++
		}
	}
	if high < 8 {
		t.Fatalf("only %d/10 retained items are high-weight; A-Res should strongly prefer them", high)
	}
}

// TestReservoirEncodesLazily: once the reservoir is warm, most offers are
// rejected on the key draw alone and never pay for encoding.
func TestReservoirEncodesLazily(t *testing.T) {
	r := drift.NewReservoir(10, 3)
	encodes := 0
	for i := 0; i < 2000; i++ {
		r.Offer(1, func() []byte { encodes++; return []byte{0} })
	}
	if encodes >= 400 {
		t.Fatalf("%d encodes for 2000 offers at capacity 10; acceptance should be rare once warm", encodes)
	}
	if r.Offered() != 2000 {
		t.Fatalf("offered counter %d, want 2000", r.Offered())
	}
}

// driveUntilRetrain pushes shifted traffic through the service until the
// controller completes `want` retrains (or the input budget runs out).
func driveUntilRetrain(t *testing.T, svc *serve.Service, ctrl *drift.Controller, inputs []core.Input, want uint64) {
	t.Helper()
	for i, in := range inputs {
		if _, err := svc.Classify("sort", in); err != nil {
			t.Fatalf("request %d failed: %v", i, err)
		}
		if ctrl.Retrains("sort") >= want {
			return
		}
	}
	ctrl.Wait()
	if ctrl.Retrains("sort") < want {
		st := ctrl.Status()["sort"]
		t.Fatalf("no retrain after %d shifted requests (status %+v)", len(inputs), st)
	}
}

// TestControllerRetrainByteParity is the deterministic-seed differential:
// the artifact a drift-triggered background retrain publishes must be
// byte-identical to an offline TrainModel+SaveModel over the identical
// retained input set, decoded from the same frames.
func TestControllerRetrainByteParity(t *testing.T) {
	_, artifact := fixture(t)
	reg := serve.NewRegistry()
	if err := reg.Register(sortbench.New()); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Load(artifact); err != nil {
		t.Fatal(err)
	}
	svc := serve.NewService(reg, serve.Options{})

	retrainOpts := core.Options{K1: 4, Seed: 7, TunerPopulation: 6, TunerGenerations: 4, Parallel: true}
	var mu sync.Mutex
	var events []drift.RetrainEvent
	ctrl := drift.NewController(drift.Options{
		Registry:  reg,
		Train:     retrainOpts,
		Detector:  drift.DetectorOptions{Window: 48},
		Capacity:  32,
		MinRetain: 12,
		Seed:      1,
		Publish: func(_ string, artifact []byte) error {
			_, err := svc.Load(artifact)
			return err
		},
		OnRetrain: func(ev drift.RetrainEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
	})
	ctrl.Bind(svc)

	driveUntilRetrain(t, svc, ctrl, shiftedInputs(2000, 77), 1)
	ctrl.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(events) == 0 {
		t.Fatal("no retrain event recorded")
	}
	ev := events[0]
	if ev.Err != nil {
		t.Fatalf("retrain failed: %v", ev.Err)
	}
	if len(ev.Artifact) == 0 {
		t.Fatal("retrain event carries no artifact")
	}

	// Offline differential: decode the retained frames by hand and run
	// the offline pipeline — NOT RetrainArtifact — so the test would
	// catch the online path diverging from offline training semantics.
	inputs := make([]core.Input, len(ev.Frames))
	for i, frame := range ev.Frames {
		c, in, err := serve.DecodeBinaryRequest(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("decoding retained frame %d: %v", i, err)
		}
		if c.Name != "sort" {
			t.Fatalf("frame %d is for %q", i, c.Name)
		}
		inputs[i] = in
	}
	offline := core.TrainModel(sortbench.New(), inputs, retrainOpts)
	var buf bytes.Buffer
	if err := core.SaveModel(offline, &buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), ev.Artifact) {
		t.Fatalf("drift-triggered retrain artifact differs from offline training on the identical retained set (%d vs %d bytes)",
			len(ev.Artifact), buf.Len())
	}

	// The publish went through the hot-reload path: generation bumped,
	// new model carries a summary of the shifted distribution.
	snap, ok := reg.Get("sort")
	if !ok || snap.Generation < 2 {
		t.Fatalf("registry still at generation %d after retrain", snap.Generation)
	}
	if snap.Model.Summary == nil {
		t.Fatal("retrained artifact carries no summary — the next drift cycle would be blind")
	}
}

// TestControllerDisabledOnSummarylessModel: a pre-drift artifact (no
// summary section) must serve normally with the loop inert.
func TestControllerDisabledOnSummarylessModel(t *testing.T) {
	m, _ := fixture(t)
	stripped := *m
	stripped.Summary = nil
	var buf bytes.Buffer
	if err := core.SaveModel(&stripped, &buf); err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry()
	if err := reg.Register(sortbench.New()); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Load(buf.Bytes()); err != nil {
		t.Fatalf("summaryless artifact rejected: %v", err)
	}
	svc := serve.NewService(reg, serve.Options{})
	ctrl := drift.NewController(drift.Options{
		Registry: reg,
		Train:    trainOpts(),
		Detector: drift.DetectorOptions{Window: 16},
		Publish:  func(string, []byte) error { t.Error("publish called for summaryless model"); return nil },
	})
	ctrl.Bind(svc)
	for _, in := range shiftedInputs(100, 3) {
		if _, err := svc.Classify("sort", in); err != nil {
			t.Fatalf("classify failed: %v", err)
		}
	}
	ctrl.Wait()
	st := ctrl.Status()["sort"]
	if st.Drifted || st.Retraining || st.Retrains != 0 {
		t.Fatalf("drift loop active on summaryless model: %+v", st)
	}
}
