package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"inputtune/internal/choice"
	"inputtune/internal/core"
	"inputtune/internal/cost"
	"inputtune/internal/feature"
)

// stubInput drives the drain stub program: v is the single feature
// value; when block is non-nil the extractor parks on it after
// signalling started, pinning the request in-flight for as long as the
// test wants.
type stubInput struct {
	v       float64
	block   chan struct{}
	started chan struct{}
}

func (s *stubInput) Size() int { return 1 }

// stubProgram is a minimal core.Program whose single feature extractor
// can be made to block mid-request — the scalpel the drain tests need:
// a request that is provably past admission but not yet complete.
type stubProgram struct {
	name  string
	space *choice.Space
	set   *feature.Set
}

func newStubProgram(name string) *stubProgram {
	sp := choice.NewSpace()
	sp.AddSite("algo", "a", "b")
	return &stubProgram{
		name:  name,
		space: sp,
		set: feature.MustNewSet(feature.Extractor{
			Name: "v",
			Levels: []feature.LevelFunc{func(in feature.Input, m *cost.Meter) float64 {
				si := in.(*stubInput)
				if si.block != nil {
					si.started <- struct{}{}
					<-si.block
				}
				return si.v
			}},
		}),
	}
}

func (p *stubProgram) Name() string           { return p.name }
func (p *stubProgram) Space() *choice.Space   { return p.space }
func (p *stubProgram) Features() *feature.Set { return p.set }
func (p *stubProgram) Run(cfg *choice.Config, in core.Input, meter *cost.Meter) float64 {
	return 1
}
func (p *stubProgram) HasAccuracy() bool          { return false }
func (p *stubProgram) AccuracyThreshold() float64 { return 0 }

// stubModel hand-builds a deployable model over prog: a depth-1 subset
// tree splitting on the single feature at 0 (v<0 → landmark 0, v>0 →
// landmark 1). invert flips the labels — two genuinely different
// generations for the skew tests. The row count clears the subset-tree
// leaf floor so the tree really splits and Static is non-empty (the
// cacheable path under test).
func stubModel(prog *stubProgram, invert bool) *core.Model {
	const rows = 16
	X := make([][]float64, rows)
	y := make([]int, rows)
	for i := range X {
		v := float64(i%8 + 1)
		label := 1
		if i < rows/2 {
			v, label = -v, 0
		}
		if invert {
			label = 1 - label
		}
		X[i] = []float64{v}
		y[i] = label
	}
	prod := core.NewSubsetTree("stub-tree", X, y, []int{0}, 2, nil, 4)
	if len(prod.Static) == 0 {
		panic("stub tree did not split; drain tests need the cacheable static-subset path")
	}
	return &core.Model{
		Program:    prog,
		Landmarks:  []*choice.Config{prog.Space().DefaultConfig(), prog.Space().DefaultConfig()},
		Production: prod,
	}
}

// stubService builds a service over a freshly installed stub model.
func stubService(t *testing.T, opts Options) (*Service, *stubProgram) {
	t.Helper()
	prog := newStubProgram("drainstub")
	reg := NewRegistry()
	if err := reg.Register(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Install(stubModel(prog, false)); err != nil {
		t.Fatal(err)
	}
	return NewService(reg, opts), prog
}

// TestDrainWaitsForInflight pins the graceful-drain contract: a request
// past admission completes with a full answer, new requests are refused
// with ErrDraining, and Drain returns only once the in-flight count hits
// zero.
func TestDrainWaitsForInflight(t *testing.T) {
	svc, _ := stubService(t, Options{})

	block := make(chan struct{})
	started := make(chan struct{})
	type result struct {
		d   *Decision
		err error
	}
	done := make(chan result, 1)
	go func() {
		d, err := svc.Classify("drainstub", &stubInput{v: 3, block: block, started: started})
		done <- result{d, err}
	}()
	<-started // the request is provably in-flight

	svc.BeginDrain()
	if !svc.Draining() {
		t.Fatal("Draining() false after BeginDrain")
	}
	if _, err := svc.Classify("drainstub", &stubInput{v: 1}); !errors.Is(err, ErrDraining) {
		t.Fatalf("new request during drain: got err %v, want ErrDraining", err)
	}
	if got := svc.Inflight(); got != 1 {
		t.Fatalf("Inflight() = %d, want 1", got)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- svc.Drain(ctx)
	}()
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) while a request was still in flight", err)
	case <-time.After(20 * time.Millisecond):
	}

	close(block) // let the in-flight request finish
	res := <-done
	if res.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", res.err)
	}
	if res.d == nil || res.d.Landmark != 1 {
		t.Fatalf("in-flight request got decision %+v, want landmark 1", res.d)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := svc.Inflight(); got != 0 {
		t.Fatalf("Inflight() = %d after drain, want 0", got)
	}
}

// TestDrainExpiresOnStuckRequest pins the timeout path: a request that
// never completes makes Drain report context expiry rather than hang.
func TestDrainExpiresOnStuckRequest(t *testing.T) {
	svc, _ := stubService(t, Options{})
	block := make(chan struct{})
	started := make(chan struct{})
	go func() {
		_, _ = svc.Classify("drainstub", &stubInput{v: 3, block: block, started: started})
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := svc.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain on a stuck request: got %v, want DeadlineExceeded", err)
	}
	close(block)
}

// TestDrainEndDrainReadmits pins drain reversibility (the router's
// replica-rejoin path depends on it).
func TestDrainEndDrainReadmits(t *testing.T) {
	svc, _ := stubService(t, Options{})
	svc.BeginDrain()
	if _, err := svc.Classify("drainstub", &stubInput{v: 1}); !errors.Is(err, ErrDraining) {
		t.Fatalf("got %v, want ErrDraining", err)
	}
	svc.EndDrain()
	d, err := svc.Classify("drainstub", &stubInput{v: 1})
	if err != nil || d.Landmark != 1 {
		t.Fatalf("after EndDrain: d=%+v err=%v, want landmark 1", d, err)
	}
}

// TestHealthzDrainingHTTP pins the HTTP drain surface: /healthz answers
// 503 + "draining" in both representations, classify answers 503.
func TestHealthzDrainingHTTP(t *testing.T) {
	svc, _ := stubService(t, Options{})
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	get := func(accept string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("GET", "/healthz", nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		rec := httptest.NewRecorder()
		NewHandler(svc).ServeHTTP(rec, req)
		return rec
	}

	if rec := get(""); rec.Code != 200 || !bytes.Contains(rec.Body.Bytes(), []byte(`"status":"ok"`)) {
		t.Fatalf("healthy healthz: code=%d body=%s", rec.Code, rec.Body.String())
	}
	rec := get(ContentTypeBinary)
	h, err := DecodeHealthFrame(rec.Body)
	if err != nil || h.Draining {
		t.Fatalf("binary healthz: h=%+v err=%v", h, err)
	}
	if len(h.Models) != 1 || h.Models[0].Benchmark != "drainstub" || h.Models[0].Generation != 1 {
		t.Fatalf("binary healthz models = %+v", h.Models)
	}

	svc.BeginDrain()
	if rec := get(""); rec.Code != 503 || !bytes.Contains(rec.Body.Bytes(), []byte(`"draining":true`)) {
		t.Fatalf("draining healthz: code=%d body=%s", rec.Code, rec.Body.String())
	}
	rec = get(ContentTypeBinary)
	if rec.Code != 503 {
		t.Fatalf("draining binary healthz code = %d, want 503", rec.Code)
	}
	if h, err := DecodeHealthFrame(rec.Body); err != nil || !h.Draining {
		t.Fatalf("draining binary healthz: h=%+v err=%v", h, err)
	}
}

// TestGenerationSkewCacheRegression is the mixed-generation regression
// test: the decision cache keys on the registry generation, so a hot
// reload that flips every label must never serve a stale cached label —
// the first request after the reload misses the cache and classifies
// under the new tree.
func TestGenerationSkewCacheRegression(t *testing.T) {
	prog := newStubProgram("drainstub")
	reg := NewRegistry()
	if err := reg.Register(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Install(stubModel(prog, false)); err != nil {
		t.Fatal(err)
	}
	svc := NewService(reg, Options{Cache: CacheOptions{Capacity: 64}})

	in := func() *stubInput { return &stubInput{v: 5} }
	d1, err := svc.Classify("drainstub", in())
	if err != nil || d1.CacheHit || d1.Landmark != 1 {
		t.Fatalf("first request: d=%+v err=%v, want miss with landmark 1", d1, err)
	}
	d2, err := svc.Classify("drainstub", in())
	if err != nil || !d2.CacheHit || d2.Landmark != 1 {
		t.Fatalf("repeat request: d=%+v err=%v, want cache hit with landmark 1", d2, err)
	}

	// Hot reload to an inverted model: same input, opposite label.
	if _, err := reg.Install(stubModel(prog, true)); err != nil {
		t.Fatal(err)
	}
	d3, err := svc.Classify("drainstub", in())
	if err != nil {
		t.Fatal(err)
	}
	if d3.CacheHit {
		t.Fatalf("first request after reload hit the cache (generation leaked into a stale entry)")
	}
	if d3.Landmark != 0 {
		t.Fatalf("request after reload got landmark %d, want 0 (the new model's label)", d3.Landmark)
	}
	if d3.Generation != d1.Generation+1 {
		t.Fatalf("generation %d after reload, want %d", d3.Generation, d1.Generation+1)
	}
	d4, err := svc.Classify("drainstub", in())
	if err != nil || !d4.CacheHit || d4.Landmark != 0 {
		t.Fatalf("repeat after reload: d=%+v err=%v, want hit with landmark 0", d4, err)
	}
}

// TestHealthFrameRoundTrip pins the ITH1 codec: encode→decode identity,
// and the decoder's strictness on magic, truncation and trailing bytes.
func TestHealthFrameRoundTrip(t *testing.T) {
	cases := []Health{
		{},
		{Draining: true},
		{Wires: []Wire{WireJSON}},
		{Wires: []Wire{WireJSON, WireBinary}, Models: []ModelHealth{{Benchmark: "sort", Generation: 7}}},
		{Draining: true, Wires: []Wire{WireBinary}, Models: []ModelHealth{
			{Benchmark: "sort", Generation: 1, ArtifactHash: 0xdeadbeefcafef00d},
			{Benchmark: "helmholtz3d", Generation: 12345678901},
		}},
	}
	for i, h := range cases {
		frame := AppendHealthFrame(nil, h)
		got, err := DecodeHealthFrame(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", h) {
			t.Fatalf("case %d: round trip %+v != %+v", i, got, h)
		}
	}
	frame := AppendHealthFrame(nil, cases[3])
	if _, err := DecodeHealthFrame(bytes.NewReader(append(frame, 0))); err == nil {
		t.Fatal("trailing byte accepted")
	}
	for n := 1; n < len(frame); n++ {
		if _, err := DecodeHealthFrame(bytes.NewReader(frame[:n])); err == nil {
			t.Fatalf("truncation at %d accepted", n)
		}
	}
	bad := append([]byte{}, frame...)
	bad[0] = 'X'
	if _, err := DecodeHealthFrame(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
}
