// Package cost implements the deterministic virtual-time model that stands
// in for the paper's wall-clock measurements (DESIGN.md substitution 1).
//
// Every algorithm in the benchmark suite charges abstract operations —
// comparisons, element moves, floating-point operations, bytes scanned — to
// a Meter. The weighted sum of those charges is the algorithm's "execution
// time" in abstract time units. Because relative operation counts are what
// drive relative runtimes on real machines, virtual time preserves the
// paper's qualitative results (which algorithmic configuration wins on
// which input, and by roughly what factor) while making the entire training
// and evaluation pipeline deterministic and CI-fast.
package cost

import (
	"fmt"
	"time"
)

// Op identifies a class of abstract machine operation.
type Op int

const (
	// Compare is one key comparison.
	Compare Op = iota
	// Move is one element copy or swap half.
	Move
	// Flop is one floating-point add/mul pair.
	Flop
	// Scan is one element read during analysis (feature extraction,
	// histogramming, etc.).
	Scan
	// Branch is one data-dependent branch in control-heavy code.
	Branch
	// Alloc is one element of allocated working storage.
	Alloc
	// NumOps is the number of op classes; every valid Op is below it.
	NumOps
)

// String returns the mnemonic name of the op class.
func (o Op) String() string {
	switch o {
	case Compare:
		return "compare"
	case Move:
		return "move"
	case Flop:
		return "flop"
	case Scan:
		return "scan"
	case Branch:
		return "branch"
	case Alloc:
		return "alloc"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Weights maps each op class to its cost in abstract time units. The
// defaults approximate relative costs on a cache-resident workload; the
// exact values only scale results and do not change orderings within an
// op-homogeneous algorithm family.
type Weights [NumOps]float64

// DefaultWeights returns the standard weight vector. All default weights
// are dyadic rationals (k/2^m), so weighted totals are exact in binary
// floating point at any realistic op count: Elapsed is the same value
// whether charges arrive one at a time or in bulk, which is what lets hot
// loops batch-charge without perturbing results.
func DefaultWeights() Weights {
	return Weights{
		Compare: 1.0,
		Move:    1.0,
		Flop:    1.5,
		Scan:    0.5,
		Branch:  0.75,
		Alloc:   0.25,
	}
}

// Meter accumulates abstract operation charges. The zero value uses all-zero
// weights; construct with NewMeter. Meter is not safe for concurrent use;
// each worker goroutine gets its own.
//
// Charges are recorded as integer operation counts only; the weighted unit
// total is computed on demand by Elapsed. This keeps the charge path — the
// single hottest instruction stream of the whole pipeline — to one integer
// increment, and makes the reported time an exact function of the final
// counts, independent of the order in which charges arrived.
type Meter struct {
	weights Weights
	counts  [NumOps]uint64
	// units holds only raw ChargeUnits additions (pre-weighted charges
	// from child meters); weighted op charges live in counts.
	units float64
}

// NewMeter returns a Meter with the default weights.
func NewMeter() *Meter { return NewMeterWeights(DefaultWeights()) }

// NewMeterWeights returns a Meter with explicit weights.
func NewMeterWeights(w Weights) *Meter { return &Meter{weights: w} }

// Charge adds n operations of class op. Negative n panics.
func (m *Meter) Charge(op Op, n int) {
	if n < 0 {
		panic("cost: negative charge")
	}
	m.counts[op] += uint64(n)
}

// Charge1 adds a single operation of class op.
func (m *Meter) Charge1(op Op) {
	m.counts[op]++
}

// ChargeUnits adds raw pre-weighted time units (used by composite
// sub-operations whose cost was measured on a child meter).
func (m *Meter) ChargeUnits(u float64) {
	if u < 0 {
		panic("cost: negative units")
	}
	m.units += u
}

// Elapsed returns accumulated virtual time in abstract units.
func (m *Meter) Elapsed() float64 {
	u := m.units
	for op, n := range m.counts {
		if n != 0 {
			u += m.weights[op] * float64(n)
		}
	}
	return u
}

// Count returns the number of charged operations of class op.
func (m *Meter) Count(op Op) uint64 { return m.counts[op] }

// Reset zeroes all counters, keeping the weights.
func (m *Meter) Reset() {
	m.counts = [NumOps]uint64{}
	m.units = 0
}

// Snapshot returns the current elapsed units; Since subtracts a snapshot,
// giving the units consumed by an enclosed region.
func (m *Meter) Snapshot() float64 { return m.Elapsed() }

// Since returns the units elapsed since the snapshot was taken.
func (m *Meter) Since(snapshot float64) float64 { return m.Elapsed() - snapshot }

// String summarises the meter for debugging.
func (m *Meter) String() string {
	return fmt.Sprintf("cost.Meter{units=%.1f cmp=%d mov=%d flop=%d scan=%d br=%d alloc=%d}",
		m.Elapsed(), m.counts[Compare], m.counts[Move], m.counts[Flop],
		m.counts[Scan], m.counts[Branch], m.counts[Alloc])
}

// WallClock measures the real elapsed time of fn. It exists for
// calibrating the virtual-time weights against hardware (run an algorithm
// under both a Meter and WallClock and compare ratios); the learning
// pipeline itself never uses it, keeping experiments deterministic.
func WallClock(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}
