package serve

import (
	"bytes"
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
