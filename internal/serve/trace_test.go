package serve

import (
	"bytes"
	"math"
	"net/http/httptest"
	"runtime"
	"testing"

	"inputtune/internal/obs"
)

// meanAllocs is testing.AllocsPerRun without its truncation to a whole
// number: the mean heap allocations per call of f over runs calls, after
// one warm-up call. The tracing pins compare two such means over 5000
// runs and fail when they differ by half an allocation or more, so one
// allocation the hooks added per request fails them. Under the race
// detector sync.Pool drops a quarter of its Puts at random and each drop
// costs an allocation later; that noise moves both means by a fraction
// (in 30 race runs of each pin the two means never differed by more than
// 0.2), while comparing truncated means flips whenever the noise pushes
// one of them across a whole number.
func meanAllocs(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestTracingDisabledAddsNoAllocations pins the acceptance bar for the
// tracing hooks: a service built with a tracer whose sampling is disabled
// must classify a binary frame with exactly the same number of
// allocations as a service with no tracer at all. The hooks are on the
// hot path unconditionally; only the nil-trace fast path keeps them free.
func TestTracingDisabledAddsNoAllocations(t *testing.T) {
	reg := sortServiceRegistry(t)
	var frame bytes.Buffer
	if err := EncodeBinaryRequest(&frame, "sort", testModels.sortInputs[0]); err != nil {
		t.Fatal(err)
	}

	measure := func(svc *Service) float64 {
		r := bytes.NewReader(nil)
		// Warm up once so lazily-built state (metrics counters, cache
		// shards) doesn't bill its construction to the measured runs.
		r.Reset(frame.Bytes())
		if _, err := svc.ClassifyBinary(r); err != nil {
			t.Fatal(err)
		}
		return meanAllocs(5000, func() {
			r.Reset(frame.Bytes())
			if _, err := svc.ClassifyBinary(r); err != nil {
				t.Fatal(err)
			}
		})
	}

	bare := measure(NewService(reg, Options{}))
	disabled := measure(NewService(reg, Options{Tracer: obs.New(obs.Options{SampleEvery: 0})}))
	if math.Abs(disabled-bare) >= 0.5 {
		t.Fatalf("disabled-sampling tracer changed allocations per request: %v with hooks vs %v without", disabled, bare)
	}
}

// TestClassifyBinaryTracedSpans checks the serve-side stage spans land on
// a sampled trace, and that a frame carrying an ITX1 extension joins the
// announced trace ID instead of minting a new one.
func TestClassifyBinaryTracedSpans(t *testing.T) {
	reg := sortServiceRegistry(t)
	tr := obs.New(obs.Options{SampleEvery: 1})
	svc := NewService(reg, Options{Tracer: tr})

	var frame bytes.Buffer
	if err := EncodeBinaryRequest(&frame, "sort", testModels.sortInputs[0]); err != nil {
		t.Fatal(err)
	}

	// Handler-owned trace: spans attach to the trace the caller passes in.
	tc := tr.Start("serve")
	if _, err := svc.ClassifyBinaryTraced(bytes.NewReader(frame.Bytes()), tc); err != nil {
		t.Fatal(err)
	}
	tr.Finish(tc)
	view := findTrace(t, tr, obs.FormatID(tc.ID()))
	if view.Benchmark != "sort" {
		t.Fatalf("trace benchmark: %q", view.Benchmark)
	}
	spans := map[string]bool{}
	for _, sp := range view.Spans {
		spans[sp.Name] = true
	}
	for _, want := range []string{"decode", "classify"} {
		if !spans[want] {
			t.Fatalf("trace missing %q span; recorded %v", want, spans)
		}
	}

	// Frame-extension join: a wrapped frame with no caller trace must
	// produce a record under the ID the extension announces.
	const wireID = 0x7e57ab1e
	wrapped := AppendTraceContext(nil, wireID)
	wrapped = append(wrapped, frame.Bytes()...)
	if _, err := svc.ClassifyBinaryTraced(bytes.NewReader(wrapped), nil); err != nil {
		t.Fatal(err)
	}
	joined := findTrace(t, tr, obs.FormatID(wireID))
	if joined.Benchmark != "sort" {
		t.Fatalf("joined trace benchmark: %q", joined.Benchmark)
	}
}

func findTrace(t *testing.T, tr *obs.Tracer, id string) obs.TraceView {
	t.Helper()
	for _, v := range tr.Snapshot(100) {
		if v.ID == id {
			return v
		}
	}
	t.Fatalf("trace %s not in snapshot", id)
	return obs.TraceView{}
}

// TestTracingDisabledHandlerAllocsIdentical extends the pin through the
// HTTP surface: the full handler path (header sniff, startTrace, binary
// classify, ITD1 encode) allocates identically with a disabled-sampling
// tracer and with none, so the servebench allocs_per_request trajectory
// cannot move when tracing ships dark.
func TestTracingDisabledHandlerAllocsIdentical(t *testing.T) {
	reg := sortServiceRegistry(t)
	var frame bytes.Buffer
	if err := EncodeBinaryRequest(&frame, "sort", testModels.sortInputs[0]); err != nil {
		t.Fatal(err)
	}

	measure := func(svc *Service) float64 {
		h := NewHandler(svc)
		body := bytes.NewReader(nil)
		do := func() {
			body.Reset(frame.Bytes())
			req := httptest.NewRequest("POST", "/v1/classify", body)
			req.Header.Set("Content-Type", ContentTypeBinary)
			req.Header.Set("Accept", ContentTypeBinary)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != 200 {
				t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
		}
		do() // warm-up
		return meanAllocs(5000, do)
	}

	bare := measure(NewService(reg, Options{}))
	disabled := measure(NewService(reg, Options{Tracer: obs.New(obs.Options{SampleEvery: 0})}))
	if math.Abs(disabled-bare) >= 0.5 {
		t.Fatalf("disabled-sampling tracer changed handler allocations per request: %v with hooks vs %v without", disabled, bare)
	}
}
