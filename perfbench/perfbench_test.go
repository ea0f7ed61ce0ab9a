package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"inputtune/internal/choice"
	"inputtune/internal/serve"
)

// wantMetrics lists the end-to-end metrics (untraced run) and the
// per-layer metrics (traced run) every workload must emit.
var wantMetrics = [2][]string{
	{"setup_s", "train_s", "train_cpu_s", "speedup_x", "satisfaction", "peak_rss_mb",
		"rps", "p50_us", "p99_us", "server_cpu_us", "server_rss_mb"},
	{"phase.features_s", "phase.tune_s", "phase.measure_s", "phase.classifiers_s",
		"eval.calls", "eval.busy_s", "eval.us_per_call", "tuner.evaluations",
		"tuner.dead_gene_collapses", "engine.cache_hit_rate", "zoo.trees",
		"train.alloc_mb", "train.gc_cycles", "train.cpu_util", "trace.overhead_pct",
		"transport_us", "server.p50_us", "loadgen.cpu_us",
		"wire.decode_us", "feature.extract_us", "cache.lookup_us", "tree.predict_us",
		"registry.load_ms", "decision.build_us", "wire.encode_us", "classify.inproc_us",
		"layers.coverage", "serve.allocs_per_req"},
}

// declared reads metric units from BENCHMARK.json at the repository root.
func declared(t *testing.T) (e2e, layers map[string]string, workloads []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	return e2e, layers, workloads
}

var (
	daemonOnce sync.Once
	daemonPath string
	daemonErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if daemonPath != "" {
		os.RemoveAll(filepath.Dir(daemonPath))
	}
	os.Exit(code)
}

// testDaemon builds inputtuned once for the serve tests.
func testDaemon(t *testing.T) string {
	t.Helper()
	daemonOnce.Do(func() {
		dir, err := os.MkdirTemp("", "perfbench-test")
		if err != nil {
			daemonErr = err
			return
		}
		daemonPath = filepath.Join(dir, "inputtuned")
		out, err := exec.Command("go", "build", "-o", daemonPath, "inputtune/cmd/inputtuned").CombinedOutput()
		if err != nil {
			daemonErr = err
			t.Logf("%s", out)
		}
	})
	if daemonErr != nil {
		t.Fatalf("building inputtuned: %v", daemonErr)
	}
	return daemonPath
}

// shortConfig is a quick pass of a workload: one set-up, one input set,
// small pools, a one-second window.
func shortConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload, seed: 7, seconds: 1, trace: trace,
		setups: 1, discreteSets: 1, pdeSets: 1, conns: 2,
		hotPool: 16, hotSkew: 1.1, hotOffset: 8, churnPool: 24,
		daemon: testDaemon(t), workDir: t.TempDir(),
	}
}

func TestShortPassEmitsEveryMetric(t *testing.T) {
	e2e, layers, workloads := declared(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want, units := wantMetrics[0], e2e
			if trace {
				want, units = wantMetrics[1], layers
			}
			o, err := run(shortConfig(t, w, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			res := o.result()
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v",
					w, trace, res.Correct, res.Attempted, res.Failed, o.failures)
			}
			var got []string
			for name, m := range res.Metrics {
				got = append(got, name)
				if unit, ok := units[name]; !ok || unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json declares %q", w, trace, name, m.Unit, unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %v", w, trace, name, m.Value)
				}
			}
			sort.Strings(got)
			sorted := append([]string(nil), want...)
			sort.Strings(sorted)
			if strings.Join(got, " ") != strings.Join(sorted, " ") {
				t.Errorf("%s trace=%v: emitted %v, want %v", w, trace, got, sorted)
			}
		}
	}
}

func TestWrongExpectedLabelIsAFailure(t *testing.T) {
	cfg := shortConfig(t, "discrete-hot", false)
	cfg.corruptLabel = true
	o, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := o.result()
	if res.Correct || res.Failed == 0 {
		t.Fatalf("a served label that disagrees with the expected one passed: correct=%v failed=%d", res.Correct, res.Failed)
	}
	if !strings.Contains(strings.Join(o.failures, "\n"), "Production.ClassifyInput of artifact") {
		t.Fatalf("failure not reported as a label mismatch: %v", o.failures)
	}
}

func TestDaemonThatExitsEarlyFailsSetUp(t *testing.T) {
	bin, err := exec.LookPath("false")
	if err != nil {
		t.Skip("no false binary")
	}
	if _, err := startDaemon(bin, nil, t.TempDir()); err == nil || !strings.Contains(err.Error(), "exited") {
		t.Fatalf("startDaemon on an exiting binary: %v", err)
	}
}

func TestParseDecisionReadsEncoderFrames(t *testing.T) {
	d := &serve.Decision{Benchmark: "poisson2d", Generation: 41, Landmark: 5,
		Config: &choice.Config{}, ConfigDescription: "x", Classifier: "tree", FeatureUnits: 2.5}
	bench, gen, landmark, err := parseDecision(serve.AppendBinaryDecision(nil, d))
	if err != nil || string(bench) != "poisson2d" || gen != 41 || landmark != 5 {
		t.Fatalf("parseDecision = %q %d %d %v", bench, gen, landmark, err)
	}
	if _, _, _, err := parseDecision([]byte("ITD1\x09poisson")); err == nil {
		t.Fatal("truncated frame parsed")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if m := median(xs); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
	if q := quantile(xs, 1); q != 4 {
		t.Fatalf("max = %v", q)
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("median of nothing is a number")
	}
}
