package svd

import (
	"math"
	"testing"

	"inputtune/internal/choice"
	"inputtune/internal/cost"
	"inputtune/internal/feature"
	"inputtune/internal/linalg"
	"inputtune/internal/rng"
)

// referenceRun is Program.Run as it was before the per-input Gram matrix
// and the fused residual: it forms AᵀA on every Gram or power Run and
// measures the error through the reconstructed and subtracted matrices.
// TestRunMatchesReference proves Run returns the same bits and charges.
func referenceRun(p *Program, cfg *choice.Config, in feature.Input, meter *cost.Meter) float64 {
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
		res = linalg.EigenSVD(a, a.T().Mul(a), k, func(g *linalg.Matrix) ([]float64, *linalg.Matrix, linalg.EigenStats) {
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
		res = linalg.EigenSVD(a, a.T().Mul(a), k, func(g *linalg.Matrix) ([]float64, *linalg.Matrix, linalg.EigenStats) {
			return linalg.PowerIteration(g, k, iters, 1e-10, nil)
		})
		meter.Charge(cost.Flop, m*n*n)                   // forming AᵀA
		meter.Charge(cost.Flop, res.Stats.MatVecs*2*n*n) // matvec + Rayleigh
		meter.Charge(cost.Flop, k*n*n)                   // deflation updates
		meter.Charge(cost.Flop, k*m*n)                   // back-mapping
	}

	errRMS := res.Reconstruct().Sub(a).RMS()
	if errRMS <= 1e-14 {
		return 14 // machine-precision reconstruction
	}
	acc := math.Log10(mi.rms() / errRMS)
	if acc < 0 {
		acc = 0
	}
	return acc
}

func TestRunMatchesReference(t *testing.T) {
	r := rng.New(109)
	p := New()
	for trial := 0; trial < 24; trial++ {
		g := Generators()[trial%len(Generators())]
		in := g.Gen(r.IntRange(64, 1200), r)
		// Several configurations per input, so later Runs read the cached
		// Gram matrix.
		for c := 0; c < 4; c++ {
			cfg := cfgWith(p, r.Intn(numTechs), 0.05+0.95*r.Float64(), r.IntRange(2, 60))
			mGot, mWant := cost.NewMeter(), cost.NewMeter()
			got := p.Run(cfg, in, mGot)
			want := referenceRun(p, cfg, in, mWant)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s %s: Run accuracy %v, reference %v", g.Name, TechNames[cfg.Selectors[0].Else], got, want)
			}
			for op := cost.Op(0); op < cost.NumOps; op++ {
				if gc, wc := mGot.Count(op), mWant.Count(op); gc != wc {
					t.Fatalf("%s %s: Run %s count %d, reference %d", g.Name, TechNames[cfg.Selectors[0].Else], op, gc, wc)
				}
			}
		}
	}
}
