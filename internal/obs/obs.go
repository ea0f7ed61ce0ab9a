// Package obs is the zero-dependency tracing core for the serving stack:
// per-request traces made of ordered stage spans with monotonic
// timestamps, head-sampled at the edge, recorded into a bounded
// lock-free ring buffer and served as JSON from /debug/traces.
//
// The design splits a distributed trace into per-participant *records*:
// each process-side participant (HTTP handler, fleet router, replica
// service, drift controller) finishes its own Trace record tagged with a
// site name, and records sharing a trace ID are merged at read time
// (Snapshot). Trace context crosses hops as a 16-hex-digit ID in the
// X-Inputtune-Trace header and, on the binary wire, as an ITX1 frame
// extension (internal/serve), so router-side and replica-side spans land
// under one ID whether the hop is in-process or HTTP.
//
// The disabled path is free: a nil *Tracer and a nil *Trace are both
// valid receivers for every method, and an unsampled request never
// allocates — Start returns nil without reading the clock.
package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"inputtune/internal/feature"
)

// TraceHeader carries the trace ID (FormatID) across HTTP hops.
const TraceHeader = "X-Inputtune-Trace"

// Span is one timed stage of a request inside a single participant.
// End == Start marks an instantaneous event (cache_hit, eject, ...).
type Span struct {
	Name  string
	Start time.Time
	End   time.Time
}

// Trace is one participant's record of a request. All methods are
// nil-safe: the disabled-sampling fast path passes nil traces through
// the same call sites with no branches at the caller.
type Trace struct {
	tracer    *Tracer
	id        uint64
	site      string
	benchmark string
	errMsg    string
	start     time.Time
	end       time.Time
	spans     []Span // pooled while live; compacted by Finish
}

// spanPool recycles live span buffers between requests; Finish compacts
// into an exact-size immutable slice before publishing to the ring.
var spanPool = feature.NewSlicePool[Span](3, 6)

// ID returns the trace ID, or 0 on a nil trace.
func (t *Trace) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.id
}

// Site returns the participant site name, or "" on a nil trace.
func (t *Trace) Site() string {
	if t == nil {
		return ""
	}
	return t.site
}

// SetBenchmark labels the record with the benchmark once decoded.
func (t *Trace) SetBenchmark(b string) {
	if t == nil {
		return
	}
	t.benchmark = b
}

// SetError records a request error on the trace; a nil error is a no-op.
func (t *Trace) SetError(err error) {
	if t == nil || err == nil {
		return
	}
	t.errMsg = err.Error()
}

// Now reads the clock for a span start, or returns the zero time on a
// nil trace so disabled paths skip the read entirely.
func (t *Trace) Now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// Span records a stage that started at start and ends now.
func (t *Trace) Span(name string, start time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, Span{Name: name, Start: start, End: time.Now()})
}

// Event records an instantaneous marker.
func (t *Trace) Event(name string) {
	if t == nil {
		return
	}
	now := time.Now()
	t.spans = append(t.spans, Span{Name: name, Start: now, End: now})
}

// Options configures a Tracer.
type Options struct {
	// SampleEvery head-samples one request in every SampleEvery at
	// Start (1 = every request). <= 0 disables head sampling entirely:
	// Start returns nil without touching the clock or any counter, but
	// Join still records traces begun by an upstream participant.
	SampleEvery int
	// RingSize bounds the trace ring; rounded up to a power of two.
	// Default 256.
	RingSize int
	// SlowestN pins the N slowest finished traces so they survive ring
	// overwrites — the exemplars /metrics links to. Default 8.
	SlowestN int
}

// Tracer owns the sampling decision, ID generation, and the published
// ring. One Tracer is shared by every participant in a process (router
// and all in-process replicas), so cross-hop records merge in one ring.
type Tracer struct {
	sampleEvery uint64
	slowestN    int
	mask        uint64
	ring        []atomic.Pointer[Trace]
	pos         atomic.Uint64
	reqs        atomic.Uint64
	sampled     atomic.Uint64
	finished    atomic.Uint64
	idBase      uint64
	idSeq       atomic.Uint64

	slowMu sync.Mutex
	slow   []*Trace // ascending by duration, len <= slowestN
}

// tracerSeq differentiates idBase across Tracers in one process.
var tracerSeq atomic.Uint64

// splitmix64 is the finalizer from Vigna's SplitMix64 — one round is
// enough to spread sequential counters across the ID space.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// New builds a Tracer. A nil Tracer is also valid everywhere and means
// tracing is compiled out of the request path.
func New(o Options) *Tracer {
	if o.RingSize <= 0 {
		o.RingSize = 256
	}
	size := 1
	for size < o.RingSize {
		size <<= 1
	}
	if o.SlowestN <= 0 {
		o.SlowestN = 8
	}
	every := uint64(0)
	if o.SampleEvery > 0 {
		every = uint64(o.SampleEvery)
	}
	return &Tracer{
		sampleEvery: every,
		slowestN:    o.SlowestN,
		mask:        uint64(size - 1),
		ring:        make([]atomic.Pointer[Trace], size),
		idBase:      splitmix64(uint64(time.Now().UnixNano()) ^ tracerSeq.Add(1)<<56),
	}
}

// Enabled reports whether the tracer exists at all.
func (tr *Tracer) Enabled() bool { return tr != nil }

// newID returns a fresh nonzero trace ID.
func (tr *Tracer) newID() uint64 {
	id := splitmix64(tr.idBase + tr.idSeq.Add(1))
	if id == 0 {
		id = 1
	}
	return id
}

// Start makes the head-sampling decision for a request entering at this
// participant and returns a live trace record, or nil when the request
// is not sampled. The nil path costs one atomic add and no allocations.
func (tr *Tracer) Start(site string) *Trace {
	if tr == nil || tr.sampleEvery == 0 {
		return nil
	}
	if n := tr.reqs.Add(1); n%tr.sampleEvery != 0 {
		return nil
	}
	return tr.begin(site, tr.newID())
}

// StartForced begins a trace regardless of the sampling rate — for rare
// control-plane lifecycles (drift retrains) that should always be
// visible. Returns nil only on a nil tracer.
func (tr *Tracer) StartForced(site string) *Trace {
	if tr == nil {
		return nil
	}
	tr.reqs.Add(1)
	return tr.begin(site, tr.newID())
}

// Join continues a trace begun elsewhere (header or frame extension):
// the sampling decision was made at the edge, so a joined record is
// always taken. Returns nil on a nil tracer or a zero ID.
func (tr *Tracer) Join(site string, id uint64) *Trace {
	if tr == nil || id == 0 {
		return nil
	}
	return tr.begin(site, id)
}

func (tr *Tracer) begin(site string, id uint64) *Trace {
	tr.sampled.Add(1)
	return &Trace{
		tracer: tr,
		id:     id,
		site:   site,
		start:  time.Now(),
		spans:  spanPool.Get(8),
	}
}

// Finish seals a record and publishes it to the ring. The live pooled
// span buffer is compacted into an exact-size immutable slice first, so
// concurrent Snapshot readers never see a slice that Put may recycle.
// Nil traces are ignored; finishing the same trace twice is a bug.
func (tr *Tracer) Finish(t *Trace) {
	if tr == nil || t == nil {
		return
	}
	t.end = time.Now()
	final := make([]Span, len(t.spans))
	copy(final, t.spans)
	spanPool.Put(t.spans)
	t.spans = final
	tr.finished.Add(1)
	tr.ring[tr.pos.Add(1)&tr.mask].Store(t)
	tr.noteSlow(t)
}

// noteSlow keeps the slowest-N finished records pinned outside the ring.
func (tr *Tracer) noteSlow(t *Trace) {
	d := t.end.Sub(t.start)
	tr.slowMu.Lock()
	defer tr.slowMu.Unlock()
	if len(tr.slow) >= tr.slowestN {
		if d <= tr.slow[0].end.Sub(tr.slow[0].start) {
			return
		}
		tr.slow = tr.slow[1:]
	}
	i := 0
	for i < len(tr.slow) && tr.slow[i].end.Sub(tr.slow[i].start) < d {
		i++
	}
	tr.slow = append(tr.slow, nil)
	copy(tr.slow[i+1:], tr.slow[i:])
	tr.slow[i] = t
}

// Stats are the tracer's lifetime counters.
type Stats struct {
	SampleEvery int    `json:"sample_every"`
	RingSize    int    `json:"ring_size"`
	Requests    uint64 `json:"requests"`
	Sampled     uint64 `json:"sampled"`
	Finished    uint64 `json:"finished"`
}

// Stats returns the tracer counters (zero value on a nil tracer).
func (tr *Tracer) Stats() Stats {
	if tr == nil {
		return Stats{}
	}
	return Stats{
		SampleEvery: int(tr.sampleEvery),
		RingSize:    len(tr.ring),
		Requests:    tr.reqs.Load(),
		Sampled:     tr.sampled.Load(),
		Finished:    tr.finished.Load(),
	}
}
