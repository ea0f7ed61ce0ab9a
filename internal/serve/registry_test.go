package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"inputtune/internal/benchmarks/sortbench"
	"inputtune/internal/core"
)

func TestRegistryUnknownAndUnloaded(t *testing.T) {
	reg := NewRegistry()
	if _, ok := reg.Get("sort"); ok {
		t.Fatal("Get on empty registry succeeded")
	}
	if err := reg.Register(sortbench.New()); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(sortbench.New()); err == nil {
		t.Fatal("duplicate Register accepted")
	}
	// Registered but nothing loaded yet: requests must fail cleanly.
	if _, ok := reg.Get("sort"); ok {
		t.Fatal("Get before any Load succeeded")
	}
	if len(reg.Snapshots()) != 0 {
		t.Fatal("Snapshots lists an unloaded benchmark")
	}
	if got := reg.Names(); len(got) != 1 || got[0] != "sort" {
		t.Fatalf("Names = %v", got)
	}
}

func TestRegistryLoadRoutesByArtifact(t *testing.T) {
	reg := sortServiceRegistry(t)
	snap, ok := reg.Get("sort")
	if !ok {
		t.Fatal("no snapshot after Load")
	}
	if snap.Benchmark != "sort" || snap.Generation == 0 || snap.ArtifactBytes == 0 {
		t.Fatalf("snapshot %+v malformed", snap)
	}
	// Reload bumps the generation and swaps the pointer.
	snap2, err := reg.Load(testModels.sortArtifct)
	if err != nil {
		t.Fatal(err)
	}
	if snap2.Generation <= snap.Generation {
		t.Fatalf("generation did not advance: %d -> %d", snap.Generation, snap2.Generation)
	}
	cur, _ := reg.Get("sort")
	if cur != snap2 {
		t.Fatal("Get does not observe the reloaded snapshot")
	}
}

func TestRegistryBadArtifactKeepsOldModelLive(t *testing.T) {
	reg := sortServiceRegistry(t)
	before, _ := reg.Get("sort")

	bad := [][]byte{
		[]byte("not json at all"),
		[]byte(`{"no_benchmark": true}`),
		[]byte(`{"benchmark": "nosuch", "version": 1}`),
		// Right benchmark, unsupported version: LoadModel must reject.
		bytes.Replace(testModels.sortArtifct, []byte(`"version": 1`), []byte(`"version": 99`), 1),
		// Truncated artifact.
		testModels.sortArtifct[:len(testModels.sortArtifct)/2],
	}
	for i, artifact := range bad {
		if _, err := reg.Load(artifact); err == nil {
			t.Fatalf("bad artifact %d accepted", i)
		}
	}
	after, _ := reg.Get("sort")
	if after != before {
		t.Fatal("a rejected artifact displaced the live model")
	}
	if after.Generation != before.Generation {
		t.Fatal("a rejected artifact advanced the generation")
	}
}

// withProduction returns the artifact with its production classifier
// replaced by the given JSON payload and, when scaler is non-nil, its
// scaler means replaced too.
func withProduction(t *testing.T, artifact []byte, production string, scaler []float64) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(artifact, &m); err != nil {
		t.Fatal(err)
	}
	m["production"] = json.RawMessage(production)
	if scaler != nil {
		raw, err := json.Marshal(scaler)
		if err != nil {
			t.Fatal(err)
		}
		m["scaler_means"] = raw
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRegistryRejectsArtifactsThatCannotClassify edits the sort artifact
// into well-formed models whose classifier would index out of range at
// classify time: a tree leaf naming landmark 99 of 4, a split on feature
// 10000, a static feature 10000, incremental payloads over the wrong class
// count or an out-of-range feature, and a short scaler. Load must reject
// each while the previous snapshot keeps serving in-range labels. A
// well-formed edit of the same shape must still load, so the rejections
// come from the payload checks, not the editing.
func TestRegistryRejectsArtifactsThatCannotClassify(t *testing.T) {
	reg := sortServiceRegistry(t)
	svc := NewService(reg, Options{})
	before, _ := reg.Get("sort")
	nf := before.Model.Program.Features().NumFeatures()
	landmarks := len(before.Model.Landmarks)
	leaf := func(class int) string { return fmt.Sprintf(`{"leaf":true,"class":%d}`, class) }
	tree := func(feature int, static string) string {
		return fmt.Sprintf(`{"name":"probe","kind":"subset-tree","static":%s,"tree":{"num_classes":%d,"root":`+
			`{"leaf":false,"feature":%d,"threshold":0.5,"left":%s,"right":%s}}}`,
			static, landmarks, feature, leaf(0), leaf(1))
	}
	incremental := func(classes, feature int) string {
		row := "[" + strings.TrimSuffix(strings.Repeat("-1,", classes), ",") + "]"
		return fmt.Sprintf(`{"name":"probe","kind":"incremental","static":[0],"incremental":{"num_classes":%d,`+
			`"threshold":0.9,"order":[%d],"cuts":[[0.5]],"log_cond":[[%s,%s]],"log_prior":%s}}`,
			classes, feature, row, row, row)
	}
	check := func(label string) {
		t.Helper()
		cur, _ := reg.Get("sort")
		if cur != before {
			t.Fatalf("%s: a rejected artifact displaced the live model", label)
		}
		for i, in := range testModels.sortInputs {
			d, err := svc.Classify("sort", in)
			if err != nil {
				t.Fatalf("%s: classify %d: %v", label, i, err)
			}
			if d.Landmark < 0 || d.Landmark >= landmarks || d.Generation != before.Generation {
				t.Fatalf("%s: classify %d served landmark %d from generation %d", label, i, d.Landmark, d.Generation)
			}
		}
	}
	bad := []struct {
		name     string
		artifact []byte
	}{
		{"leaf class 99", withProduction(t, testModels.sortArtifct,
			`{"name":"probe","kind":"subset-tree","static":[0],"tree":{"num_classes":4,"root":`+leaf(99)+`}}`, nil)},
		{"split on feature 10000", withProduction(t, testModels.sortArtifct, tree(10000, "[0]"), nil)},
		{"static index 10000", withProduction(t, testModels.sortArtifct, tree(0, "[0,10000]"), nil)},
		{"incremental class count", withProduction(t, testModels.sortArtifct, incremental(landmarks+1, 0), nil)},
		{"incremental feature 10000", withProduction(t, testModels.sortArtifct, incremental(landmarks, 10000), nil)},
		{"short scaler", withProduction(t, testModels.sortArtifct, tree(0, "[0]"), make([]float64, nf-1))},
	}
	for _, c := range bad {
		if _, err := reg.Load(c.artifact); err == nil {
			t.Fatalf("%s: artifact accepted", c.name)
		}
		check(c.name)
	}
	for _, good := range []string{tree(0, "[0]"), incremental(landmarks, 0)} {
		if _, err := reg.Load(withProduction(t, testModels.sortArtifct, good, nil)); err != nil {
			t.Fatalf("well-formed edit %s rejected: %v", good, err)
		}
	}
}

func TestRegistryVersionRejectMessage(t *testing.T) {
	reg := sortServiceRegistry(t)
	mangled := bytes.Replace(testModels.sortArtifct, []byte(`"version": 1`), []byte(`"version": 99`), 1)
	_, err := reg.Load(mangled)
	if err == nil || !strings.Contains(err.Error(), "rejecting artifact") {
		t.Fatalf("expected a rejection error, got %v", err)
	}
}

// TestHotReloadUnderConcurrentRequests swaps the model repeatedly while
// readers hammer classification: zero failed requests and every label
// bit-identical to the offline answer, across all generations. This is the
// atomic.Pointer contract the registry exists for.
func TestHotReloadUnderConcurrentRequests(t *testing.T) {
	reg := sortServiceRegistry(t)
	svc := NewService(reg, Options{})
	want := offlineLabels(testModels.sortModel, testModels.sortInputs)

	const readers = 8
	const rounds = 40
	var failures atomic.Uint64
	var wrong atomic.Uint64
	var readersWg, reloaderWg sync.WaitGroup
	stop := make(chan struct{})

	for g := 0; g < readers; g++ {
		readersWg.Add(1)
		go func() {
			defer readersWg.Done()
			for r := 0; r < rounds; r++ {
				for i, in := range testModels.sortInputs {
					d, err := svc.Classify("sort", in)
					if err != nil {
						failures.Add(1)
						return
					}
					if d.Landmark != want[i] {
						wrong.Add(1)
						return
					}
				}
			}
		}()
	}
	// Reloader: keep swapping (valid and invalid artifacts interleaved)
	// until the readers finish — but never fewer than two live swaps, so
	// the generation assertion below cannot flake when a loaded 1-CPU
	// runner lets the readers drain before this goroutine is scheduled.
	reloaderWg.Add(1)
	go func() {
		defer reloaderWg.Done()
		bad := []byte("junk")
		for i := 0; ; i++ {
			if i >= 3 {
				select {
				case <-stop:
					return
				default:
				}
			}
			if i%3 == 2 {
				if _, err := reg.Load(bad); err == nil {
					failures.Add(1)
					return
				}
			} else if _, err := reg.Load(testModels.sortArtifct); err != nil {
				failures.Add(1)
				return
			}
		}
	}()

	readersWg.Wait()
	close(stop)
	reloaderWg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d requests/reloads failed during hot reload", n)
	}
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d requests got a wrong label during hot reload", n)
	}
	snap, _ := reg.Get("sort")
	if snap.Generation < 2 {
		t.Fatalf("expected multiple reload generations, at %d", snap.Generation)
	}
}

// TestServedDescriptionsMatchDescribeConfig pins the precomputed
// Snapshot.Descriptions to Space.DescribeConfig: every served decision,
// from an artifact load and from an in-process install, carries exactly
// the bytes DescribeConfig renders for its landmark.
func TestServedDescriptionsMatchDescribeConfig(t *testing.T) {
	loaded := sortServiceRegistry(t)
	installed := NewRegistry()
	if _, err := installed.Install(testModels.packModel); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		reg    *Registry
		bench  string
		inputs []core.Input
	}{
		{loaded, "sort", testModels.sortInputs},
		{installed, "binpacking", testModels.packInputs},
	}
	for _, c := range cases {
		snap, _ := c.reg.Get(c.bench)
		space := snap.Model.Program.Space()
		if len(snap.Descriptions) != len(snap.Model.Landmarks) {
			t.Fatalf("%s: %d descriptions for %d landmarks", c.bench, len(snap.Descriptions), len(snap.Model.Landmarks))
		}
		svc := NewService(c.reg, Options{})
		for _, in := range c.inputs {
			d, err := svc.Classify(c.bench, in)
			if err != nil {
				t.Fatal(err)
			}
			if want := space.DescribeConfig(d.Config); d.ConfigDescription != want {
				t.Fatalf("%s landmark %d: served %q, DescribeConfig %q", c.bench, d.Landmark, d.ConfigDescription, want)
			}
		}
	}
}

// TestArtifactBenchmarkScan pins the token scan that routes reloads and
// JSON classify envelopes: it finds the top-level benchmark wherever it
// sits and in any letter case, ignores nested keys of the same name, and
// rejects what is not a JSON object.
func TestArtifactBenchmarkScan(t *testing.T) {
	for _, c := range []struct {
		artifact, want string
		ok             bool
	}{
		{`{"version": 1, "benchmark": "sort", "landmarks": [`, "sort", true},
		{`{"report": {"benchmark": "x"}, "benchmark": "svd"}`, "svd", true},
		{`{"Benchmark": "sort", "input": {}}`, "sort", true},
		{`{"version": 1}`, "", true},
		{`{"benchmark": 5}`, "", false},
		{`[{"benchmark": "sort"}]`, "", false},
		{`not json at all`, "", false},
		{``, "", false},
	} {
		got, err := benchmarkField([]byte(c.artifact))
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("%q: got (%q, %v), want %q ok=%v", c.artifact, got, err, c.want, c.ok)
		}
	}
}
