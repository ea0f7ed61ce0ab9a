package helmholtz3d

import (
	"math"
	"strconv"

	"inputtune/internal/engine"
	"inputtune/internal/pde"
)

// Solver plumbing behind Program.Run, mirroring poisson2d/solve.go: the
// problem's coarsened operator chain is built once (sync.Once) and shared
// read-only, multigrid workspaces over it are pooled, and every iterative
// solve resumes from the longest (problem fingerprint, solver-parameter
// prefix) state memoized in engine.Memo. Resumed solves are bit-identical
// to from-scratch solves; memoOff is the A/B test hook.

// Smoother kinds. Gauss-Seidel is SOR at omega = 1 and shares its stems.
const (
	smootherJacobi = byte('j')
	smootherSOR    = byte('s')
)

// solveSnap is one memoized solver state: the solution grid after a known
// number of sweeps/cycles plus the exact flops spent producing it from the
// zero guess. Immutable once stored.
type solveSnap struct {
	data  []float64
	flops int
}

// fingerprint lazily content-hashes the problem: the solve depends on the
// operator (a, c) as well as the right-hand side.
func (p *Problem) fingerprint() string {
	p.fpOnce.Do(func() {
		p.fp = engine.Fingerprint(
			[]uint64{uint64(p.N), math.Float64bits(p.Op.C)}, p.Op.A.Data, p.F.Data)
	})
	return p.fp
}

// opChain lazily builds the coarsened operator ladder, shared by every
// hierarchy (and goroutine) solving this problem.
func (p *Problem) opChain() *pde.OpChain3D {
	p.chainOnce.Do(func() {
		p.chain = pde.NewOpChain3D(p.Op)
	})
	return p.chain
}

// hier checks a multigrid workspace out of the problem's pool.
func (p *Problem) hier() *pde.Hierarchy3D {
	if h, ok := p.hpool.Get().(*pde.Hierarchy3D); ok {
		return h
	}
	return pde.NewHierarchy3DFromChain(p.opChain())
}

func (p *Problem) putHier(h *pde.Hierarchy3D) { p.hpool.Put(h) }

// SolverMemoStats exposes the sub-run solver-state memo counters; the
// bench runner surfaces them as solver_memo_hits / solver_memo_misses.
func (p *Program) SolverMemoStats() engine.MemoStats { return p.memo.Stats() }

// smoothSolve runs sweeps of one pointwise smoother from the zero guess,
// resuming from the longest memoized prefix with the same smoother and
// omega.
func (p *Program) smoothSolve(prob *Problem, kind byte, omega float64, sweeps int, w *pde.Work) *pde.Grid3D {
	u := pde.NewGrid3D(prob.N)
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
		// Both smoothers sweep through pooled workspace: Jacobi's
		// out-of-place buffer, SOR's padded operator and scratch.
		h := prob.hier()
		if kind == smootherJacobi {
			for it := start; it < sweeps; it++ {
				h.Jacobi(u, prob.F, omega, &cw)
			}
		} else {
			h.SOR(u, prob.F, omega, sweeps-start, &cw)
		}
		prob.putHier(h)
	}
	total := base + cw.Flops
	if !p.memoOff && start < sweeps {
		p.memo.PutStep(stem, sweeps, solveSnap{data: append([]float64(nil), u.Data...), flops: total})
	}
	w.Flops += total
	return u
}

// mgSolve runs multigrid cycles from the zero guess on a pooled hierarchy,
// resuming from the longest memoized prefix with the same cycle shape —
// and, when no full-cycle prefix exists, assembling the FIRST cycle out
// of states shared with other genomes:
//
//   - Cycle 1's fine-level pre-smooth starts from the zero guess, so its
//     Pre sweeps are bit-for-bit the first Pre sweeps of the plain SOR
//     solve at the same omega. They resume from and feed the plain
//     smoother stem ("|ss|"), which every Gauss-Seidel genome (SOR at
//     omega 1, the fine-level omega Run always passes) also populates.
//   - On TWO-LEVEL ladders (fine grid coarsens straight to the ≤3 base
//     case, i.e. the benchmark's N=7 instances), the coarse solve is a
//     fixed 8-sweep SOR at omega 1 that never reads opt.Post, so the
//     state after cycle 1's pre-smooth + coarse correction is a pure
//     function of (Pre, Gamma, omega). It is checkpointed under a
//     half-cycle stem with exactly that key, and genomes differing in
//     Post share everything up to the first post-smooth. On deeper
//     ladders Post reaches the coarse cycles' own post-smooths, so the
//     checkpoint would need the full shape key and add nothing over the
//     full-cycle stem — it is skipped there.
//
// A flat key canonicalisation such as collapsing (Pre, Post) with
// (Post, Pre) — "pre/post exchange symmetry" — would be unsound:
// smoothing and coarse correction do not commute (S^b·K·S^a ≠ S^a·K·S^b
// already in exact arithmetic), so those shapes produce different
// states. The phase checkpoints capture the sharing that IS exact, and
// resumed solves stay bit-identical to from-scratch solves (A/B-tested
// against memoOff): every phase runs the arithmetic Hierarchy3D.Cycle
// runs, in the same order, on the same scratch.
func (p *Program) mgSolve(prob *Problem, opt pde.MGOptions3D, cycles int, w *pde.Work) *pde.Grid3D {
	// Apply Cycle's clamps up front so the stems below never key one
	// effective cycle shape under two names.
	if opt.Gamma < 1 {
		opt.Gamma = 1
	}
	if opt.Omega <= 0 {
		opt.Omega = 1
	}
	u := pde.NewGrid3D(prob.N)
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
		if start == 0 && !p.memoOff && prob.N > 3 {
			base = p.firstCycle(prob, h, u, opt)
			start = 1
			// Checkpoint the completed first cycle under the full-cycle
			// stem too: step 1 is the prefix every larger mgCycles count
			// of this shape extends.
			p.memo.PutStep(stem, 1, solveSnap{data: append([]float64(nil), u.Data...), flops: base})
		}
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

// firstCycle advances the zero guess through one full cycle of shape opt
// (clamped, fine grid above coarsest size), resuming from and feeding
// the cross-genome phase checkpoints described on mgSolve. It returns
// the from-zero flop total after the cycle; snapshot flop totals compose
// additively because sweep charges are deterministic in the grid size,
// so a resumed total equals the from-scratch total exactly.
func (p *Program) firstCycle(prob *Problem, h *pde.Hierarchy3D, u *pde.Grid3D, opt pde.MGOptions3D) int {
	fp := prob.fingerprint()
	omegaBits := strconv.FormatUint(math.Float64bits(opt.Omega), 16)
	// Post-independence of the half-cycle state holds only when the
	// ladder is two levels deep (see the soundness note on mgSolve).
	twoLevel := (prob.N-1)/2 <= 3
	halfStem := ""
	if twoLevel {
		halfStem = fp + "|mgc|" +
			strconv.Itoa(opt.Pre) + "," + strconv.Itoa(opt.Gamma) + "," + omegaBits + "|"
	}
	var cw pde.Work
	base := 0
	var half any
	if twoLevel {
		half, _, _ = p.memo.LongestPrefix(halfStem, 1)
	}
	if half != nil {
		s := half.(solveSnap)
		copy(u.Data, s.data)
		base = s.flops
	} else {
		preDone := 0
		if opt.Pre > 0 {
			sorStem := fp + "|s" + string(smootherSOR) + "|" + omegaBits + "|"
			if v, k, ok := p.memo.LongestPrefix(sorStem, opt.Pre); ok {
				s := v.(solveSnap)
				copy(u.Data, s.data)
				preDone, base = k, s.flops
			}
			h.SOR(u, prob.F, opt.Omega, opt.Pre-preDone, &cw)
			if preDone < opt.Pre {
				p.memo.PutStep(sorStem, opt.Pre,
					solveSnap{data: append([]float64(nil), u.Data...), flops: base + cw.Flops})
			}
		}
		h.CoarseCorrect(u, prob.F, opt, &cw)
		if twoLevel {
			p.memo.PutStep(halfStem, 1,
				solveSnap{data: append([]float64(nil), u.Data...), flops: base + cw.Flops})
		}
	}
	h.SOR(u, prob.F, opt.Omega, opt.Post, &cw)
	return base + cw.Flops
}
