// Package svd reproduces the paper's Singular Value Decomposition
// benchmark: approximate a matrix with a rank-k SVD, where the autotuner
// chooses both the technique used to find the eigenpairs (one-sided Jacobi,
// Gram-matrix Jacobi, or power iteration with deflation) and how many
// singular values to keep. The accuracy metric is the log10 ratio of the
// initial (zero-matrix) RMS error to the final RMS error, threshold 0.7.
package svd

import (
	"math"
	"sync"

	"inputtune/internal/choice"
	"inputtune/internal/cost"
	"inputtune/internal/feature"
	"inputtune/internal/linalg"
)

// Technique alternatives for the "eigen" choice site.
const (
	TechJacobi = iota // one-sided Jacobi on A (robust, most work)
	TechGram          // symmetric Jacobi on AᵀA (fast for tall matrices)
	TechPower         // power iteration + deflation (cheap for few values)
	numTechs
)

// TechNames lists the eigen techniques in site order.
var TechNames = []string{"jacobi", "gram", "power"}

// MatrixInput wraps a matrix to approximate.
type MatrixInput struct {
	A   *linalg.Matrix
	Gen string

	exactOnce sync.Once
	rmsA      float64

	// gramOnce/gramA cache AᵀA, which the Gram and power techniques both
	// decompose; it is shared read-only. Each such Run still charges the
	// flops of forming it, the technique's true cost.
	gramOnce sync.Once
	gramA    *linalg.Matrix
}

// Size implements feature.Input: total elements.
func (mi *MatrixInput) Size() int { return mi.A.Rows * mi.A.Cols }

// rms caches the input RMS (the accuracy metric's numerator: the RMS error
// of the zero-matrix initial guess).
func (mi *MatrixInput) rms() float64 {
	mi.exactOnce.Do(func() {
		mi.rmsA = mi.A.RMS()
		if mi.rmsA == 0 {
			mi.rmsA = 1e-300
		}
	})
	return mi.rmsA
}

// gram returns the cached Gram matrix AᵀA.
func (mi *MatrixInput) gram() *linalg.Matrix {
	mi.gramOnce.Do(func() { mi.gramA = mi.A.T().Mul(mi.A) })
	return mi.gramA
}

// Program is the SVD benchmark.
type Program struct {
	space    *choice.Space
	set      *feature.Set
	rankIdx  int
	itersIdx int
}

// New constructs the SVD program.
func New() *Program {
	p := &Program{}
	p.space = choice.NewSpace()
	p.space.AddSite("eigen", TechNames...)
	p.rankIdx = p.space.AddFloat("rankFrac", 0.05, 1.0, 0.5)
	p.itersIdx = p.space.AddInt("iterations", 2, 60, 20)
	p.set = feature.MustNewSet(
		feature.Extractor{Name: "range", Levels: []feature.LevelFunc{
			rangeLevel(64), rangeLevel(512), rangeLevel(0),
		}},
		feature.Extractor{Name: "deviation", Levels: []feature.LevelFunc{
			deviationLevel(64), deviationLevel(512), deviationLevel(0),
		}},
		feature.Extractor{Name: "zeros", Levels: []feature.LevelFunc{
			zerosLevel(64), zerosLevel(512), zerosLevel(0),
		}},
	)
	return p
}

// Name implements core.Program.
func (p *Program) Name() string { return "svd" }

// Space implements core.Program.
func (p *Program) Space() *choice.Space { return p.space }

// Features implements core.Program.
func (p *Program) Features() *feature.Set { return p.set }

// HasAccuracy implements core.Program.
func (p *Program) HasAccuracy() bool { return true }

// AccuracyThreshold implements core.Program: the paper sets 0.7.
func (p *Program) AccuracyThreshold() float64 { return 0.7 }

// Run computes a rank-k approximation with the configured technique and
// returns log10(RMS(A)/RMS(A - Ak)).
func (p *Program) Run(cfg *choice.Config, in feature.Input, meter *cost.Meter) float64 {
	mi := in.(*MatrixInput)
	a := mi.A
	m, n := a.Rows, a.Cols
	small := n
	if m < n {
		small = m
	}
	k := int(cfg.Float(p.rankIdx)*float64(small) + 0.5)
	if k < 1 {
		k = 1
	}
	if k > small {
		k = small
	}
	iters := cfg.Int(p.itersIdx)
	tech := cfg.Decide(0, mi.Size())

	var res *linalg.SVDResult
	switch tech {
	case TechJacobi:
		sweeps := iters / 4
		if sweeps < 2 {
			sweeps = 2
		}
		res = linalg.JacobiSVD(a, sweeps, 1e-12)
		// One-sided Jacobi: each rotation touches 2 columns of length m (plus
		// the 2x2 Gram evaluation), ~10m flops; each sweep re-examines every
		// column pair, ~3·m·n²/2 flops of Gram checks.
		meter.Charge(cost.Flop, res.Stats.Rotations*10*m)
		meter.Charge(cost.Flop, res.Stats.Sweeps*3*m*n*n/2)
		res = res.Truncate(k)
	case TechGram:
		res = linalg.EigenSVD(a, mi.gram(), k, func(g *linalg.Matrix) ([]float64, *linalg.Matrix, linalg.EigenStats) {
			sweeps := iters / 4
			if sweeps < 2 {
				sweeps = 2
			}
			vals, vecs, st := linalg.SymmetricEigen(g, sweeps, 1e-12)
			return vals, vecs, st
		})
		meter.Charge(cost.Flop, m*n*n)                    // forming AᵀA
		meter.Charge(cost.Flop, res.Stats.Rotations*12*n) // Jacobi on n×n Gram
		meter.Charge(cost.Flop, k*m*n)                    // back-mapping U = A V Σ⁻¹
	default: // TechPower
		res = linalg.EigenSVD(a, mi.gram(), k, func(g *linalg.Matrix) ([]float64, *linalg.Matrix, linalg.EigenStats) {
			return linalg.PowerIteration(g, k, iters, 1e-10, nil)
		})
		meter.Charge(cost.Flop, m*n*n)                   // forming AᵀA
		meter.Charge(cost.Flop, res.Stats.MatVecs*2*n*n) // matvec + Rayleigh
		meter.Charge(cost.Flop, k*n*n)                   // deflation updates
		meter.Charge(cost.Flop, k*m*n)                   // back-mapping
	}

	errRMS := res.ResidualRMS(a)
	if errRMS <= 1e-14 {
		return 14 // machine-precision reconstruction
	}
	acc := math.Log10(mi.rms() / errRMS)
	if acc < 0 {
		acc = 0
	}
	return acc
}

// --- feature extractors -------------------------------------------------

// sampleStride picks a stride so about budget entries are scanned
// (budget 0 = all entries).
func sampleStride(budget, total int) int {
	if budget <= 0 || budget >= total {
		return 1
	}
	return total / budget
}

func rangeLevel(budget int) feature.LevelFunc {
	return func(in feature.Input, m *cost.Meter) float64 {
		a := in.(*MatrixInput).A
		total := len(a.Data)
		stride := sampleStride(budget, total)
		lo, hi := a.Data[0], a.Data[0]
		for i := 0; i < total; i += stride {
			m.Charge1(cost.Scan)
			if a.Data[i] < lo {
				lo = a.Data[i]
			}
			if a.Data[i] > hi {
				hi = a.Data[i]
			}
		}
		return hi - lo
	}
}

func deviationLevel(budget int) feature.LevelFunc {
	return func(in feature.Input, m *cost.Meter) float64 {
		a := in.(*MatrixInput).A
		total := len(a.Data)
		stride := sampleStride(budget, total)
		var sum, sumsq, cnt float64
		for i := 0; i < total; i += stride {
			m.Charge1(cost.Scan)
			sum += a.Data[i]
			sumsq += a.Data[i] * a.Data[i]
			cnt++
		}
		mean := sum / cnt
		v := sumsq/cnt - mean*mean
		if v < 0 {
			v = 0
		}
		return math.Sqrt(v)
	}
}

// zerosLevel is the fraction of (near-)zero entries — the paper's cheap
// stand-in for the eigenvalue count ("a matrix with many 0s has fewer
// eigenvalues than a matrix with only a few 0s").
func zerosLevel(budget int) feature.LevelFunc {
	return func(in feature.Input, m *cost.Meter) float64 {
		a := in.(*MatrixInput).A
		total := len(a.Data)
		stride := sampleStride(budget, total)
		zeros, cnt := 0.0, 0.0
		for i := 0; i < total; i += stride {
			m.Charge1(cost.Scan)
			if math.Abs(a.Data[i]) < 1e-12 {
				zeros++
			}
			cnt++
		}
		return zeros / cnt
	}
}
