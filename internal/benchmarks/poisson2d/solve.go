package poisson2d

import (
	"math"
	"strconv"

	"inputtune/internal/engine"
	"inputtune/internal/pde"
)

// This file is the solver plumbing behind Program.Run: per-problem
// multigrid hierarchies (pooled, so concurrent evaluations of one problem
// never share scratch) and the sub-run solver-state memo layered on
// engine.Memo. The memo resumes a solve from the longest stored
// (problem fingerprint, solver-parameter prefix) state — the GA breeds
// populations full of genomes that differ only in iteration/cycle count or
// in tunables the selected solver ignores, and all of those share work
// here. Resumed solves are bit-identical to from-scratch solves (the
// stored state and flop total are exact), so results never depend on memo
// contents; memoOff is the A/B test hook that proves it.

// Smoother kinds for the iterative solver family. Gauss-Seidel is SOR at
// omega = 1, so the two share memo stems by construction.
const (
	smootherJacobi = byte('j')
	smootherSOR    = byte('s')
)

// solveSnap is one memoized solver state: the solution grid after a known
// number of sweeps/cycles, plus the exact flops spent producing it from
// the zero guess. Immutable once stored.
type solveSnap struct {
	data  []float64
	flops int
}

// fingerprint lazily content-hashes the problem (the solve depends only on
// N and the right-hand side).
func (p *Problem) fingerprint() string {
	p.fpOnce.Do(func() {
		p.fp = engine.Fingerprint([]uint64{uint64(p.N)}, p.F.Data)
	})
	return p.fp
}

// hier checks a multigrid workspace out of the problem's pool.
func (p *Problem) hier() *pde.Hierarchy2D {
	if h, ok := p.hpool.Get().(*pde.Hierarchy2D); ok {
		return h
	}
	return pde.NewHierarchy2D(p.N)
}

func (p *Problem) putHier(h *pde.Hierarchy2D) { p.hpool.Put(h) }

// SolverMemoStats exposes the sub-run solver-state memo counters; the
// bench runner surfaces them as solver_memo_hits / solver_memo_misses.
func (p *Program) SolverMemoStats() engine.MemoStats { return p.memo.Stats() }

// smoothSolve runs sweeps of one pointwise smoother from the zero guess,
// resuming from the longest memoized prefix with the same smoother and
// omega.
func (p *Program) smoothSolve(prob *Problem, kind byte, omega float64, sweeps int, w *pde.Work) *pde.Grid2D {
	u := pde.NewGrid2D(prob.N)
	var stem string
	start, base := 0, 0
	if !p.memoOff {
		stem = prob.fingerprint() + "|s" + string(kind) + "|" +
			strconv.FormatUint(math.Float64bits(omega), 16) + "|"
		if v, k, ok := p.memo.LongestPrefix(stem, sweeps); ok {
			s := v.(solveSnap)
			copy(u.Data, s.data)
			start, base = k, s.flops
		}
	}
	var cw pde.Work
	if start < sweeps {
		if kind == smootherJacobi {
			h := prob.hier()
			for it := start; it < sweeps; it++ {
				h.Jacobi(u, prob.F, omega, &cw)
			}
			prob.putHier(h)
		} else {
			pde.SOR2D(u, prob.F, omega, sweeps-start, &cw)
		}
	}
	total := base + cw.Flops
	if !p.memoOff && start < sweeps {
		p.memo.PutStep(stem, sweeps, solveSnap{data: append([]float64(nil), u.Data...), flops: total})
	}
	w.Flops += total
	return u
}

// mgSolve runs multigrid cycles from the zero guess on a pooled hierarchy,
// resuming from the longest memoized prefix with the same cycle shape.
func (p *Program) mgSolve(prob *Problem, opt pde.MGOptions2D, cycles int, w *pde.Work) *pde.Grid2D {
	u := pde.NewGrid2D(prob.N)
	var stem string
	start, base := 0, 0
	if !p.memoOff {
		stem = prob.fingerprint() + "|mg|" +
			strconv.Itoa(opt.Pre) + "," + strconv.Itoa(opt.Post) + "," + strconv.Itoa(opt.Gamma) + "," +
			strconv.FormatUint(math.Float64bits(opt.Omega), 16) + "|"
		if v, k, ok := p.memo.LongestPrefix(stem, cycles); ok {
			s := v.(solveSnap)
			copy(u.Data, s.data)
			start, base = k, s.flops
		}
	}
	var cw pde.Work
	if start < cycles {
		h := prob.hier()
		for c := start; c < cycles; c++ {
			h.Cycle(u, prob.F, opt, &cw)
		}
		prob.putHier(h)
	}
	total := base + cw.Flops
	if !p.memoOff && start < cycles {
		p.memo.PutStep(stem, cycles, solveSnap{data: append([]float64(nil), u.Data...), flops: total})
	}
	w.Flops += total
	return u
}
