package serve

import (
	"sort"

	"inputtune/internal/core"
)

// This file is the serving side of the online drift loop: a sampling hook
// on the classification hot path and a status surface the drift
// controller publishes back through. The serve package deliberately does
// not import internal/drift — the coupling is two small interfaces, so
// the serving runtime stays deployable without the retraining machinery.

// Sample is one served request's feature observation, handed to the
// registered SampleObserver on the classification path. Row and Input are
// pooled/caller-owned storage: they are valid ONLY for the duration of
// the ObserveSample call, and an observer that wants to retain anything
// must copy it before returning. Row is the raw (unscaled) feature row
// with only the positions listed in Indices populated — exactly what the
// production classifier's ExtractSubsetInto pass already paid for, so
// observation adds no extraction work to the request.
type Sample struct {
	Benchmark string
	// Generation is the model snapshot that served the request.
	Generation uint64
	// Input is the decoded request input (valid only during the call).
	Input core.Input
	// Row is the feature row (valid only during the call).
	Row []float64
	// Indices lists which positions of Row were extracted.
	Indices []int
	// Label is the landmark the production classifier selected.
	Label int
}

// SampleObserver receives served-request samples. Implementations must be
// safe for concurrent calls and must not block: they run on the
// classification path.
type SampleObserver interface {
	ObserveSample(Sample)
}

// DriftStatus is one benchmark's row in the drift observability surface,
// as reported by the registered provider (the drift controller).
type DriftStatus struct {
	Benchmark string `json:"benchmark"`
	// Samples counts observed requests since the current baseline.
	Samples uint64 `json:"samples"`
	// Retained is the current reservoir occupancy.
	Retained int `json:"retained"`
	// Drifted reports that the detector has fired and a retrain is due or
	// under way.
	Drifted bool `json:"drifted"`
	// Retraining reports that a background retrain is running right now.
	Retraining bool `json:"retraining"`
	// Retrains counts retrain+publish cycles completed since startup.
	Retrains uint64 `json:"retrains"`
	// EffectSize is the largest per-feature standardized mean shift seen
	// in the last completed detector window.
	EffectSize float64 `json:"effect_size"`
	// AssignTV is the total-variation distance between the live cluster-
	// assignment histogram and the training weights in the last window.
	AssignTV float64 `json:"assignment_tv"`
}

// DriftProvider reports per-benchmark drift status, keyed by benchmark.
type DriftProvider func() map[string]DriftStatus

// driftProviderBox wraps the provider so atomic.Value sees one concrete
// type even as closures change.
type driftProviderBox struct{ fn DriftProvider }

// SetDriftProvider registers the status provider the metrics and health
// surfaces pull from. Safe to call at any time; nil clears it.
func (s *Service) SetDriftProvider(fn DriftProvider) {
	s.driftProv.Store(driftProviderBox{fn: fn})
}

// DriftStatuses returns the current per-benchmark drift status, or nil
// when no provider is registered (drift loop not running).
func (s *Service) DriftStatuses() map[string]DriftStatus {
	box, _ := s.driftProv.Load().(driftProviderBox)
	if box.fn == nil {
		return nil
	}
	return box.fn()
}

// driftRows flattens the provider map into benchmark-sorted rows.
func driftRows(m map[string]DriftStatus) []DriftStatus {
	if len(m) == 0 {
		return nil
	}
	rows := make([]DriftStatus, 0, len(m))
	for _, st := range m {
		rows = append(rows, st)
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].Benchmark < rows[b].Benchmark })
	return rows
}

// observerBox keeps the atomic.Value monomorphic across observer types.
type observerBox struct{ obs SampleObserver }

// SetObserver registers (or, with nil, removes) the sample observer. The
// swap is atomic: in-flight requests may still deliver one sample to the
// previous observer.
func (s *Service) SetObserver(obs SampleObserver) {
	s.observer.Store(observerBox{obs: obs})
}

func (s *Service) sampleObserver() SampleObserver {
	box, _ := s.observer.Load().(observerBox)
	return box.obs
}
