package poisson2d

import (
	"math"
	"sync"
	"testing"

	"inputtune/internal/choice"
	"inputtune/internal/cost"
	"inputtune/internal/pde"
	"inputtune/internal/rng"
)

func cfgSolver(p *Program, solver int) *choice.Config {
	c := p.Space().DefaultConfig()
	c.Selectors[0].Else = solver
	return c
}

func TestDirectHitsMachinePrecision(t *testing.T) {
	p := New()
	r := rng.New(1)
	prob := GenSmooth(31, r)
	acc := p.Run(cfgSolver(p, SolverDirect), prob, cost.NewMeter())
	if acc < 12 {
		t.Fatalf("direct accuracy = %v decades", acc)
	}
}

func TestMultigridMeetsThreshold(t *testing.T) {
	p := New()
	r := rng.New(2)
	for _, gen := range Generators() {
		prob := gen.Gen(31, r)
		cfg := cfgSolver(p, SolverMultigrid)
		cfg.Values[p.cycIdx] = 10
		acc := p.Run(cfg, prob, cost.NewMeter())
		if acc < p.AccuracyThreshold() {
			t.Fatalf("multigrid only %v decades on %s", acc, gen.Name)
		}
	}
}

func TestJacobiInsufficientOnSmooth(t *testing.T) {
	p := New()
	r := rng.New(3)
	prob := GenSmooth(31, r)
	cfg := cfgSolver(p, SolverJacobi)
	cfg.Values[p.itersIdx] = 300
	acc := p.Run(cfg, prob, cost.NewMeter())
	if acc >= p.AccuracyThreshold() {
		t.Fatalf("Jacobi reached %v decades on smooth RHS at N=31; sensitivity premise broken", acc)
	}
}

func TestSORFeasibleOnHighFreq(t *testing.T) {
	p := New()
	r := rng.New(4)
	prob := GenHighFreq(31, r)
	cfg := cfgSolver(p, SolverSOR)
	cfg.Values[p.itersIdx] = 120
	cfg.Values[p.omegaIdx] = 1.5
	acc := p.Run(cfg, prob, cost.NewMeter())
	if acc < p.AccuracyThreshold() {
		t.Fatalf("SOR only %v decades on high-frequency RHS", acc)
	}
}

func TestIterationsTradeTimeForAccuracy(t *testing.T) {
	p := New()
	r := rng.New(5)
	prob := GenMixed(15, r)
	cfg := cfgSolver(p, SolverSOR)
	var prevAcc, prevCost float64
	for i, iters := range []float64{10, 50, 200} {
		cfg.Values[p.itersIdx] = iters
		m := cost.NewMeter()
		acc := p.Run(cfg, prob, m)
		if i > 0 {
			if m.Elapsed() <= prevCost {
				t.Fatalf("more iterations not more expensive: %v <= %v", m.Elapsed(), prevCost)
			}
			if acc < prevAcc-0.1 {
				t.Fatalf("more iterations less accurate: %v -> %v", prevAcc, acc)
			}
		}
		prevAcc, prevCost = acc, m.Elapsed()
	}
}

func TestCrossoverDirectVsMultigridBySize(t *testing.T) {
	// Direct is O(N³), multigrid O(N²) per cycle: at N=63 multigrid should
	// be cheaper than direct while still feasible.
	p := New()
	r := rng.New(6)
	prob := GenSmooth(63, r)
	mDir, mMG := cost.NewMeter(), cost.NewMeter()
	p.Run(cfgSolver(p, SolverDirect), prob, mDir)
	cfgMG := cfgSolver(p, SolverMultigrid)
	cfgMG.Values[p.cycIdx] = 8
	accMG := p.Run(cfgMG, prob, mMG)
	if accMG < p.AccuracyThreshold() {
		t.Fatalf("multigrid infeasible at N=63 (%v decades)", accMG)
	}
	if mMG.Elapsed() >= mDir.Elapsed() {
		t.Fatalf("multigrid cost %v not below direct %v at N=63", mMG.Elapsed(), mDir.Elapsed())
	}
}

func TestRunDeterministic(t *testing.T) {
	p := New()
	r := rng.New(7)
	prob := GenNoise(15, r)
	cfg := cfgSolver(p, SolverMultigrid)
	m1, m2 := cost.NewMeter(), cost.NewMeter()
	a1 := p.Run(cfg, prob, m1)
	a2 := p.Run(cfg, prob, m2)
	if a1 != a2 || m1.Elapsed() != m2.Elapsed() {
		t.Fatal("Run not deterministic")
	}
}

func TestZerosFeatureDiscriminates(t *testing.T) {
	p := New()
	set := p.Features()
	r := rng.New(8)
	top := func(prob *Problem) float64 {
		vals, _ := set.ExtractAll(prob)
		return vals[set.Index(2, 2)]
	}
	sparse := GenSparse(31, r)
	noise := GenNoise(31, r)
	if zs, zn := top(sparse), top(noise); zs < 0.8 || zn > 0.05 {
		t.Fatalf("zeros: sparse %v noise %v", zs, zn)
	}
}

func TestResidualFeatureScalesWithRHS(t *testing.T) {
	p := New()
	set := p.Features()
	r := rng.New(9)
	prob := GenSmooth(15, r)
	vals, _ := set.ExtractAll(prob)
	small := vals[set.Index(0, 2)]
	// Double the RHS: residual should double.
	for i := range prob.F.Data {
		prob.F.Data[i] *= 2
	}
	vals2, _ := set.ExtractAll(prob)
	big := vals2[set.Index(0, 2)]
	if big < 1.8*small || big > 2.2*small {
		t.Fatalf("residual %v -> %v under RHS doubling", small, big)
	}
}

func TestGenerateMixSizes(t *testing.T) {
	probs := GenerateMix(MixOptions{Count: 20, Seed: 1})
	if len(probs) != 20 {
		t.Fatalf("count %d", len(probs))
	}
	saw127 := false
	for _, pr := range probs {
		switch pr.N {
		case 31, 63:
		case 127:
			saw127 = true
		default:
			t.Fatalf("unexpected grid size %d", pr.N)
		}
	}
	if !saw127 {
		t.Fatal("mix never produced a 127-grid instance")
	}
}

// twinProblem returns an independent Problem over a copy of prob's
// right-hand side, so reading its exact solution leaves prob's lazy state
// untouched.
func twinProblem(prob *Problem) *Problem {
	return &Problem{N: prob.N, F: prob.F.Clone(), Gen: prob.Gen}
}

// TestDirectRunReusesExactSolve proves a SolverDirect Run, which returns
// the problem's shared exact grid, reports the accuracy and charges the
// flops of a fresh pde.DirectPoisson2D — whether the problem's first
// exactSolution call comes from that direct Run or from an iterative one.
func TestDirectRunReusesExactSolve(t *testing.T) {
	r := rng.New(53)
	for _, first := range []int{SolverDirect, SolverSOR, SolverMultigrid} {
		for _, gen := range Generators() {
			prob := gen.Gen(31, r)
			var fw pde.Work
			fresh := pde.DirectPoisson2D(prob.F, &fw)
			wantAcc := twinProblem(prob).accuracy(fresh)

			p := New()
			p.Run(cfgSolver(p, first), prob, cost.NewMeter())
			m := cost.NewMeter()
			acc := p.Run(cfgSolver(p, SolverDirect), prob, m)
			if acc != wantAcc {
				t.Fatalf("%s after %s: direct accuracy %v, fresh solve %v", gen.Name, SolverNames[first], acc, wantAcc)
			}
			if got := m.Count(cost.Flop); got != uint64(fw.Flops) {
				t.Fatalf("%s after %s: direct Run charged %d flops, fresh solve %d", gen.Name, SolverNames[first], got, fw.Flops)
			}
		}
	}
}

// TestDirectRunSharedExactConcurrent races direct and iterative Runs on
// one problem (run it under -race): every direct Run must match the fresh
// solve's accuracy and flops, and the shared exact grid must keep its bits.
func TestDirectRunSharedExactConcurrent(t *testing.T) {
	r := rng.New(59)
	prob := GenPointSources(63, r)
	var fw pde.Work
	fresh := pde.DirectPoisson2D(prob.F, &fw)
	wantAcc := twinProblem(prob).accuracy(fresh)

	p := New()
	solvers := []int{SolverDirect, SolverSOR, SolverDirect, SolverMultigrid, SolverDirect, SolverJacobi}
	var wg sync.WaitGroup
	for _, solver := range solvers {
		wg.Add(1)
		go func(solver int) {
			defer wg.Done()
			m := cost.NewMeter()
			acc := p.Run(cfgSolver(p, solver), prob, m)
			if solver != SolverDirect {
				return
			}
			if acc != wantAcc {
				t.Errorf("concurrent direct accuracy %v, fresh solve %v", acc, wantAcc)
			}
			if got := m.Count(cost.Flop); got != uint64(fw.Flops) {
				t.Errorf("concurrent direct Run charged %d flops, fresh solve %d", got, fw.Flops)
			}
		}(solver)
	}
	wg.Wait()
	exact, _, _ := prob.exactSolution()
	for i, v := range exact.Data {
		if math.Float64bits(v) != math.Float64bits(fresh.Data[i]) {
			t.Fatalf("shared exact grid cell %d changed: %v vs fresh %v", i, v, fresh.Data[i])
		}
	}
}
