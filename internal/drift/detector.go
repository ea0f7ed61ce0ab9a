package drift

import (
	"math"

	"inputtune/internal/core"
)

// DetectorOptions tunes the drift test. Zero values select defaults
// calibrated so that stationary traffic stays quiet across seeds (the
// false-positive bound the table tests enforce) while a genuine
// distribution shift fires within a couple of windows.
type DetectorOptions struct {
	// Window is the number of observed requests per test window
	// (default 256). The detector decides only at window boundaries, so
	// a shift fires after at most 2×Window samples: the tail of the
	// window it arrived in plus one full shifted window.
	Window int
	// EffectThreshold is the standardized mean-shift trigger (default
	// 0.25): the detector fires when any observed feature's live mean,
	// in the training z-score space, moves this many training standard
	// deviations from the training mean. Calibrated against the sort
	// battery at the default window: stationary 256-sample windows stay
	// under ~0.15 across seeds (sample-mean noise ~1/sqrt(256) per
	// feature, maximized over the observed subset), while the registry-
	// workload shift lands at 0.33+ — so 0.25 splits the gap with ~2x
	// margin against false fires.
	EffectThreshold float64
	// AssignThreshold is the total-variation trigger (default 0.15): the
	// detector fires when the live nearest-centroid assignment histogram
	// is this far (in TV distance, 0..1) from the training weights —
	// which were computed with the identical restricted-dims assignment
	// rule (core.SummarizeTraining), so in-distribution traffic sits at
	// zero expected TV plus multinomial window noise (≤ ~0.07 at window
	// 256). Catches shifts that move mass between clusters without
	// moving any single feature's mean far.
	AssignThreshold float64
}

func (o *DetectorOptions) setDefaults() {
	if o.Window <= 0 {
		o.Window = 256
	}
	if o.EffectThreshold <= 0 {
		o.EffectThreshold = 0.25
	}
	if o.AssignThreshold <= 0 {
		o.AssignThreshold = 0.15
	}
}

// Detector is one benchmark's windowed drift test against its model's
// training-distribution summary. Not safe for concurrent use — the
// Controller serializes access; tests drive it directly.
type Detector struct {
	opts    DetectorOptions
	summary *core.Summary
	means   []float64
	stds    []float64

	// indices is the observed feature subset, pinned on first Observe
	// (the production classifier's static subset is constant per model).
	indices []int
	zrow    []float64 // full-width z-score scratch, populated at indices

	n       int       // samples in the current window
	featSum []float64 // per-observed-index z-value sums
	counts  []float64 // per-centroid assignment counts

	fired      bool
	lastEffect float64
	lastTV     float64
}

// NewDetector builds a detector over the model's artifact summary and
// scaler moments. A zero std is treated as 1 (a constant training feature
// carries no drift signal of its own but must not divide by zero).
func NewDetector(summary *core.Summary, means, stds []float64, opts DetectorOptions) *Detector {
	opts.setDefaults()
	return &Detector{opts: opts, summary: summary, means: means, stds: stds}
}

// Observe feeds one served request's feature row (raw, unscaled, with
// only the positions in indices populated — exactly serve.Sample's
// contract) into the current window and returns the input's
// informativeness weight for the retention reservoir: how close it sits
// to the Level-1 decision boundary, as the nearest-over-second-nearest
// centroid distance ratio in (0, 1]. Boundary-hugging inputs (ratio near
// 1) are the ones whose landmark assignment is least certain, so they
// carry the most information about where a retrain should redraw the
// regions.
//
// A row with a non-finite z-value (NaN or ±Inf) at any observed index is
// not counted in the window and gets weight 0, which the reservoir
// rejects: one such row would otherwise fire the detector (±Inf) or blind
// the mean-shift test for the rest of the window (NaN).
func (d *Detector) Observe(row []float64, indices []int) (weight float64) {
	if d.indices == nil {
		d.indices = append([]int(nil), indices...)
		d.featSum = make([]float64, len(d.indices))
		d.counts = make([]float64, len(d.summary.Centroids))
		d.zrow = make([]float64, len(d.means))
	}
	for _, f := range indices {
		std := d.stds[f]
		if std <= 0 {
			std = 1
		}
		d.zrow[f] = (row[f] - d.means[f]) / std
	}
	for _, f := range d.indices {
		if z := d.zrow[f]; math.IsNaN(z) || math.IsInf(z, 0) {
			return 0
		}
	}
	for i, f := range d.indices {
		d.featSum[i] += d.zrow[f]
	}
	best, _, d1, d2 := d.summary.Nearest2(d.zrow, d.indices)
	d.counts[best]++
	d.n++
	if d.n >= d.opts.Window {
		d.closeWindow()
	}
	const eps = 1e-9
	return eps + math.Sqrt((d1+eps)/(d2+eps))
}

// closeWindow evaluates the two drift statistics over the completed
// window and resets the accumulators. Firing is sticky until Reset: once
// the live distribution has been declared drifted, the verdict stands
// until a retrain installs a new baseline.
func (d *Detector) closeWindow() {
	n := float64(d.n)
	effect := 0.0
	for i := range d.featSum {
		// The training distribution is zero-mean unit-variance in z-space,
		// so the live window's mean z-value IS the standardized mean shift.
		if e := math.Abs(d.featSum[i] / n); e > effect {
			effect = e
		}
		d.featSum[i] = 0
	}
	tv := 0.0
	for c := range d.counts {
		tv += math.Abs(d.counts[c]/n - d.summary.Weights[c])
		d.counts[c] = 0
	}
	tv /= 2
	d.lastEffect, d.lastTV = effect, tv
	if effect > d.opts.EffectThreshold || tv > d.opts.AssignThreshold {
		d.fired = true
	}
	d.n = 0
}

// Fired reports whether any completed window has crossed a threshold
// since the last Reset.
func (d *Detector) Fired() bool { return d.fired }

// Stats returns the statistics of the last completed window.
func (d *Detector) Stats() (effect, tv float64) { return d.lastEffect, d.lastTV }

// Reset clears the fired flag and the in-progress window — called when a
// retrain publishes and the baseline changes.
func (d *Detector) Reset() {
	d.fired = false
	d.n = 0
	d.lastEffect, d.lastTV = 0, 0
	for i := range d.featSum {
		d.featSum[i] = 0
	}
	for c := range d.counts {
		d.counts[c] = 0
	}
}
