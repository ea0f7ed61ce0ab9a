package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"inputtune/internal/choice"
	"inputtune/internal/core"
	"inputtune/internal/cost"
	"inputtune/internal/engine"
	"inputtune/internal/feature"
	"inputtune/internal/obs"
)

// ErrDraining rejects new requests once a graceful drain has begun.
// Routers treat it as a routing signal (try another replica), not a
// replica fault: a draining replica is healthy, just leaving.
var ErrDraining = errors.New("serve: service is draining")

// RequestError marks an error as the client's fault (a malformed or
// unsupported request), so transports can map it to a 4xx status instead
// of the 5xx reserved for serving failures. It matters on the binary
// path, where decode happens inside the service rather than in the HTTP
// handler.
type RequestError struct{ Err error }

func (e *RequestError) Error() string { return e.Err.Error() }
func (e *RequestError) Unwrap() error { return e.Err }

// Decision is the service's answer to one classification request.
type Decision struct {
	Benchmark string `json:"benchmark"`
	// Generation identifies the model snapshot that served the request.
	Generation uint64 `json:"generation"`
	// Landmark is the selected configuration's index.
	Landmark int `json:"landmark"`
	// Config is the selected landmark configuration itself — the payload a
	// deployment applies to its algorithmic choices.
	Config *choice.Config `json:"config"`
	// ConfigDescription renders Config against the program's space.
	ConfigDescription string `json:"config_description"`
	// Classifier names the production classifier that decided.
	Classifier string `json:"classifier"`
	// FeatureUnits is the virtual-time cost of the features extracted for
	// this decision.
	FeatureUnits float64 `json:"feature_units"`
	// CacheHit reports whether the decision cache answered the predict
	// step (feature extraction still ran; with exact keys, hits cannot
	// change answers).
	CacheHit bool `json:"cache_hit"`
}

// Options configures a Service.
type Options struct {
	// Cache configures the decision cache (capacity, the disable escape
	// hatch, and the opt-in quantized key).
	Cache CacheOptions
	// Wires restricts which request wire formats the HTTP layer accepts
	// (nil or empty = all). A deployment pinned to -wire json keeps the
	// PR-4 surface exactly.
	Wires []Wire
	// Observer, when non-nil, receives a Sample per served request on the
	// static-subset classification path (the feature row is already
	// extracted there, so sampling is free). See SetObserver for the
	// lifetime contract.
	Observer SampleObserver
	// Tracer, when non-nil, records per-stage spans for sampled requests
	// (see internal/obs). A nil tracer — or a tracer with head sampling
	// disabled — adds zero allocations to the request path.
	Tracer *obs.Tracer
	// TraceSite names this service in trace records (default "serve");
	// fleet replicas get their replica name so cross-hop merges read.
	TraceSite string
}

// Service is the classification runtime: registry resolution, per-request
// feature extraction on a private meter, decision caching, and metrics.
// One Service is safe for any number of concurrent callers.
type Service struct {
	reg          *Registry
	cache        *DecisionCache
	quantizeBits int
	metrics      *Metrics
	wires        [2]bool
	tracer       *obs.Tracer
	traceSite    string

	draining atomic.Bool
	inflight atomic.Int64

	// observer holds an observerBox (sample tap on the classify path);
	// driftProv holds a driftProviderBox (status pulled into /metrics and
	// health frames). Both swap atomically under live traffic.
	observer  atomic.Value
	driftProv atomic.Value
}

// NewService assembles a service over a registry.
func NewService(reg *Registry, opts Options) *Service {
	s := &Service{reg: reg, metrics: NewMetrics(), tracer: opts.Tracer, traceSite: opts.TraceSite}
	if s.traceSite == "" {
		s.traceSite = "serve"
	}
	if !opts.Cache.Disable {
		s.cache = NewDecisionCache(opts.Cache.Capacity)
		s.quantizeBits = clampQuantizeBits(opts.Cache.QuantizeBits)
	}
	if len(opts.Wires) == 0 {
		s.wires = [2]bool{true, true}
	} else {
		for _, w := range opts.Wires {
			if w == WireJSON || w == WireBinary {
				s.wires[w] = true
			}
		}
	}
	if opts.Observer != nil {
		s.SetObserver(opts.Observer)
	}
	return s
}

// AcceptsWire reports whether the deployment negotiates the given request
// format.
func (s *Service) AcceptsWire(w Wire) bool {
	return w == WireJSON && s.wires[WireJSON] || w == WireBinary && s.wires[WireBinary]
}

// Registry returns the service's registry (for reload endpoints).
func (s *Service) Registry() *Registry { return s.reg }

// Tracer returns the service's tracer (nil when tracing is off).
func (s *Service) Tracer() *obs.Tracer { return s.tracer }

// TraceSite returns the service's site label in trace records.
func (s *Service) TraceSite() string { return s.traceSite }

// Metrics returns the service's metrics surface.
func (s *Service) Metrics() *Metrics { return s.metrics }

// MetricsSnapshot assembles the current observability snapshot, folding
// in the drift-loop status when a provider is registered.
func (s *Service) MetricsSnapshot() MetricsSnapshot {
	snap := s.metrics.Snapshot(s.cache, s.reg)
	snap.Drift = driftRows(s.DriftStatuses())
	if s.tracer != nil {
		st := s.tracer.Stats()
		snap.Trace = &TraceSnapshot{
			SampleEvery: st.SampleEvery,
			Sampled:     st.Sampled,
			Finished:    st.Finished,
			Slowest:     s.tracer.Exemplars(),
		}
	}
	return snap
}

// BeginDrain flips the service into draining mode: requests already past
// admission run to completion, new ones are rejected with ErrDraining.
// Idempotent and reversible via EndDrain (used by fault-injection tests
// to model a replica leaving and rejoining).
func (s *Service) BeginDrain() { s.draining.Store(true) }

// EndDrain returns a draining service to normal admission.
func (s *Service) EndDrain() { s.draining.Store(false) }

// Draining reports whether a graceful drain is in progress.
func (s *Service) Draining() bool { return s.draining.Load() }

// Inflight reports the number of requests currently past admission.
func (s *Service) Inflight() int64 { return s.inflight.Load() }

// Drain begins a graceful drain and blocks until every in-flight request
// has completed or ctx expires. On success the service is idle and can be
// shut down without cutting off a response mid-write.
func (s *Service) Drain(ctx context.Context) error {
	s.BeginDrain()
	for s.inflight.Load() != 0 {
		select {
		case <-ctx.Done():
			return fmt.Errorf("serve: drain: %d requests still in flight: %w", s.inflight.Load(), ctx.Err())
		case <-time.After(200 * time.Microsecond):
		}
	}
	return nil
}

// enter admits one request into the in-flight set, refusing when a drain
// is in progress. The counter is raised BEFORE the draining check so that
// a concurrent Drain observing inflight==0 cannot race with a request
// that passed the check but had not yet registered; a request that loses
// that race sees draining=true, deregisters, and is rejected.
func (s *Service) enter() error {
	s.inflight.Add(1)
	if s.draining.Load() {
		s.inflight.Add(-1)
		return ErrDraining
	}
	return nil
}

// exit deregisters a request admitted by enter.
func (s *Service) exit() { s.inflight.Add(-1) }

// Classify answers one request on the caller's goroutine. It records
// request metrics including latency.
func (s *Service) Classify(benchmark string, in core.Input) (*Decision, error) {
	return s.ClassifyTraced(benchmark, in, nil)
}

// ClassifyTraced is Classify recording stage spans on t (nil = untraced;
// the caller owns t and finishes it after the response is written).
func (s *Service) ClassifyTraced(benchmark string, in core.Input, t *obs.Trace) (*Decision, error) {
	if err := s.enter(); err != nil {
		return nil, err
	}
	defer s.exit()
	start := time.Now()
	t.SetBenchmark(benchmark)
	d, err := s.classifyNow(benchmark, in, t)
	hit := d != nil && d.CacheHit
	s.metrics.ObserveRequest(benchmark, time.Since(start), hit, err)
	return d, err
}

// ClassifyBinary answers one binary-framed request, streaming the frame
// off r directly: decode and classification run in one pass, so vectors
// land in pooled buffers exactly once. Decode failures come back wrapped
// in *RequestError; metrics are attributed to the decoded benchmark name
// and skipped when the frame never identified one.
func (s *Service) ClassifyBinary(r io.Reader) (*Decision, error) {
	return s.ClassifyBinaryTraced(r, nil)
}

// ClassifyBinaryTraced is ClassifyBinary recording stage spans on t. When
// t is nil but the decoded frame carries an ITX1 trace context, a record
// joining that trace is created (and finished) here — that is how a
// router-wrapped frame's spans land under the router's trace ID even
// through a plain ClassifyBinary entry point. A caller-provided t stays
// caller-owned: the caller finishes it after writing the response.
func (s *Service) ClassifyBinaryTraced(r io.Reader, t *obs.Trace) (*Decision, error) {
	if err := s.enter(); err != nil {
		return nil, err
	}
	defer s.exit()
	start := time.Now()
	d, benchmark, joined, err := s.classifyFrame(r, t)
	if joined != nil && joined != t {
		joined.SetError(err)
		s.tracer.Finish(joined)
	}
	if benchmark != "" {
		hit := d != nil && d.CacheHit
		s.metrics.ObserveRequest(benchmark, time.Since(start), hit, err)
	}
	return d, err
}

// classifyFrame decodes one binary frame and classifies it in the same
// pass. The benchmark name is returned even when classification fails —
// it is known once the header decodes — so callers can attribute metrics.
// The returned trace is t, or a fresh record joining the frame's ITX1
// trace context when t was nil and the service has a tracer; such a
// record belongs to the caller chain that detects joined != t.
func (s *Service) classifyFrame(r io.Reader, t *obs.Trace) (*Decision, string, *obs.Trace, error) {
	var t0 time.Time
	if t != nil || s.tracer != nil {
		t0 = time.Now()
	}
	c, in, traceID, err := DecodeBinaryRequestContext(r)
	if err != nil {
		return nil, "", t, &RequestError{Err: fmt.Errorf("decoding binary request: %w", err)}
	}
	if t == nil && traceID != 0 {
		t = s.tracer.Join(s.traceSite, traceID)
	}
	if t != nil {
		t.SetBenchmark(c.Name)
		t.Span("decode", t0)
	}
	d, cerr := s.classifyNow(c.Name, in, t)
	c.Release(in)
	return d, c.Name, t, cerr
}

// classifyNow is the classification path. All per-request mutable
// state — the meter, the feature row (drawn from the shared buffer pool
// and returned before the call ends) — is private to the call; the model
// snapshot is resolved once and used throughout, so a concurrent
// hot-reload never splits a request across two models.
func (s *Service) classifyNow(benchmark string, in core.Input, t *obs.Trace) (*Decision, error) {
	var ct time.Time
	if t != nil {
		ct = time.Now()
	}
	snap, ok := s.reg.Get(benchmark)
	if !ok {
		return nil, fmt.Errorf("serve: no model loaded for benchmark %q", benchmark)
	}
	model := snap.Model
	prod := model.Production
	set := model.Program.Features()
	meter := cost.NewMeter()

	var label int
	var cacheHit bool
	observer := s.sampleObserver()
	if (s.cache != nil || observer != nil) && prod.Kind == core.SubsetTree && len(prod.Static) > 0 {
		// Static-subset classifiers extract a fixed feature set, so the
		// decision is a pure function of (model snapshot, feature bits):
		// fingerprint those and let the cache skip the tree walk. The
		// extraction itself (the dominant cost, charged to the meter)
		// runs either way, so cached and uncached requests report the
		// same feature units and, by determinism, the same label. With
		// QuantizeBits > 0 the key is bucketed first — see CacheOptions.
		M := set.NumFeatures()
		scratch := feature.GetBuffer(M + len(prod.Static))
		scratch = scratch[:M+len(prod.Static)]
		row := set.ExtractSubsetInto(scratch[:M], in, prod.Static, meter)
		if s.cache != nil {
			vals := scratch[M:]
			for i, f := range prod.Static {
				vals[i] = row[f]
			}
			quantizeRow(s.quantizeBits, vals)
			key := engine.Fingerprint([]uint64{snap.Generation}, vals)
			if cached, hit := s.cache.Get(key); hit {
				label, cacheHit = cached, true
				t.Event("cache_hit")
			} else {
				label, _ = prod.PredictRow(row)
				s.cache.Put(key, label)
				t.Event("cache_miss")
			}
		} else {
			label, _ = prod.PredictRow(row)
		}
		if observer != nil {
			// The row (raw, unquantized — quantizeRow touched only the
			// vals half of scratch) and the input are lent to the observer
			// for the duration of the call; PutBuffer below reclaims them.
			observer.ObserveSample(Sample{
				Benchmark:  benchmark,
				Generation: snap.Generation,
				Input:      in,
				Row:        row,
				Indices:    prod.Static,
				Label:      label,
			})
		}
		feature.PutBuffer(scratch)
	} else {
		// Max-a-priori extracts nothing; the incremental classifier
		// chooses its features adaptively per input — both classify
		// directly. (Caching the incremental path would require paying
		// for a fixed key feature set first, which is exactly the cost
		// it exists to avoid.)
		label = prod.ClassifyInput(set, in, meter)
	}
	t.Span("classify", ct)
	return &Decision{
		Benchmark:         benchmark,
		Generation:        snap.Generation,
		Landmark:          label,
		Config:            model.Landmarks[label],
		ConfigDescription: snap.Descriptions[label],
		Classifier:        prod.Name,
		FeatureUnits:      meter.Elapsed(),
		CacheHit:          cacheHit,
	}, nil
}

// Load parses and publishes a model artifact (see Registry.Load),
// recording the reload in metrics on success.
func (s *Service) Load(artifact []byte) (*Snapshot, error) {
	snap, err := s.reg.Load(artifact)
	if err == nil {
		s.metrics.ObserveReload()
	}
	return snap, err
}

// CacheStats exposes decision-cache effectiveness (zeros when disabled).
func (s *Service) CacheStats() DecisionCacheStats { return s.cache.Stats() }
