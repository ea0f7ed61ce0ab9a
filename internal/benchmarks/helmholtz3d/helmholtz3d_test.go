package helmholtz3d

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

func TestDirectExactOnConstantCoeff(t *testing.T) {
	p := New()
	r := rng.New(1)
	prob := GenConstSmooth(15, r)
	acc := p.Run(cfgSolver(p, SolverDirect), prob, cost.NewMeter())
	if acc < p.AccuracyThreshold() {
		t.Fatalf("direct on constant coefficients = %v decades", acc)
	}
}

func TestDirectFailsOnRoughCoeff(t *testing.T) {
	p := New()
	r := rng.New(2)
	prob := GenRoughCoeff(15, r)
	acc := p.Run(cfgSolver(p, SolverDirect), prob, cost.NewMeter())
	if acc >= p.AccuracyThreshold() {
		t.Fatalf("constant-coefficient direct reached %v decades on rough coefficients; sensitivity premise broken", acc)
	}
}

func TestMultigridFeasibleEverywhere(t *testing.T) {
	p := New()
	r := rng.New(3)
	for _, gen := range Generators() {
		prob := gen.Gen(15, r)
		cfg := cfgSolver(p, SolverMultigrid)
		cfg.Values[p.cycIdx] = 10
		acc := p.Run(cfg, prob, cost.NewMeter())
		if acc < p.AccuracyThreshold() {
			t.Fatalf("multigrid only %v decades on %s", acc, gen.Name)
		}
	}
}

func TestHighFreqCheapWithSOR(t *testing.T) {
	p := New()
	r := rng.New(4)
	prob := GenHighFreq(15, r)
	cfg := cfgSolver(p, SolverSOR)
	cfg.Values[p.itersIdx] = 60
	acc := p.Run(cfg, prob, cost.NewMeter())
	if acc < p.AccuracyThreshold() {
		t.Fatalf("SOR only %v decades on high-frequency RHS", acc)
	}
}

func TestDeviationFeatureSeparatesCoefficients(t *testing.T) {
	p := New()
	set := p.Features()
	r := rng.New(5)
	top := func(prob *Problem) float64 {
		vals, _ := set.ExtractAll(prob)
		return vals[set.Index(1, 2)]
	}
	constant := GenConstSmooth(7, r)
	rough := GenRoughCoeff(7, r)
	if dc, dr := top(constant), top(rough); dc > 0.01 || dr < 0.2 {
		t.Fatalf("coefficient deviation: const %v rough %v", dc, dr)
	}
}

func TestRunDeterministic(t *testing.T) {
	p := New()
	r := rng.New(6)
	prob := GenVaryingCoeff(7, r)
	cfg := cfgSolver(p, SolverMultigrid)
	m1, m2 := cost.NewMeter(), cost.NewMeter()
	a1 := p.Run(cfg, prob, m1)
	a2 := p.Run(cfg, prob, m2)
	if a1 != a2 || m1.Elapsed() != m2.Elapsed() {
		t.Fatal("Run not deterministic")
	}
}

func TestDirectCheaperThanConvergedMG(t *testing.T) {
	// On constant coefficients the direct solve should beat multigrid run
	// to a comparable accuracy at N=7 (6·N⁴ vs several 15·N³ cycles).
	p := New()
	r := rng.New(7)
	prob := GenConstSmooth(7, r)
	mDir, mMG := cost.NewMeter(), cost.NewMeter()
	accDir := p.Run(cfgSolver(p, SolverDirect), prob, mDir)
	cfgMG := cfgSolver(p, SolverMultigrid)
	cfgMG.Values[p.cycIdx] = 8
	p.Run(cfgMG, prob, mMG)
	if accDir < p.AccuracyThreshold() {
		t.Fatalf("direct infeasible on constant coefficients: %v", accDir)
	}
	if mDir.Elapsed() >= mMG.Elapsed() {
		t.Fatalf("direct cost %v not below 8-cycle multigrid %v at N=7", mDir.Elapsed(), mMG.Elapsed())
	}
}

func TestGenerateMixDeterministic(t *testing.T) {
	a := GenerateMix(MixOptions{Count: 6, Seed: 1})
	b := GenerateMix(MixOptions{Count: 6, Seed: 1})
	if len(a) != 6 {
		t.Fatalf("count %d", len(a))
	}
	for i := range a {
		if a[i].Gen != b[i].Gen || a[i].N != b[i].N {
			t.Fatal("mix not deterministic")
		}
		for j := range a[i].F.Data {
			if a[i].F.Data[j] != b[i].F.Data[j] {
				t.Fatal("RHS not deterministic")
			}
		}
	}
	for _, prob := range a {
		if prob.N != 7 && prob.N != 15 {
			t.Fatalf("unexpected size %d", prob.N)
		}
	}
}

func TestIterationsMonotone(t *testing.T) {
	p := New()
	r := rng.New(8)
	prob := GenVaryingCoeff(7, r)
	cfg := cfgSolver(p, SolverGaussSeidel)
	var prevAcc, prevCost float64
	for i, iters := range []float64{5, 30, 120} {
		cfg.Values[p.itersIdx] = iters
		m := cost.NewMeter()
		acc := p.Run(cfg, prob, m)
		if i > 0 {
			if m.Elapsed() <= prevCost {
				t.Fatal("cost not monotone in iterations")
			}
			if acc < prevAcc-0.1 {
				t.Fatalf("accuracy regressed: %v -> %v", prevAcc, acc)
			}
		}
		prevAcc, prevCost = acc, m.Elapsed()
	}
}

// twinProblem is a fresh Problem on the same operator and a copy of the
// right-hand side: none of prob's lazily computed state carries over.
func twinProblem(prob *Problem) *Problem {
	return &Problem{N: prob.N, Op: prob.Op, F: prob.F.Clone(), Gen: prob.Gen}
}

// TestDirectRunReusesDirectSolve proves a SolverDirect Run, which returns
// the problem's shared direct solve, reports the accuracy of a Run on a
// fresh twin and charges the flops of a fresh pde.DirectHelmholtz3D —
// whatever solver ran on the problem first.
func TestDirectRunReusesDirectSolve(t *testing.T) {
	r := rng.New(61)
	for _, first := range []int{SolverDirect, SolverSOR, SolverMultigrid} {
		for _, gen := range Generators() {
			prob := gen.Gen(7, r)
			var fw pde.Work
			pde.DirectHelmholtz3D(prob.Op, prob.F, &fw)
			wantAcc := New().Run(cfgSolver(New(), SolverDirect), twinProblem(prob), cost.NewMeter())

			p := New()
			p.Run(cfgSolver(p, first), prob, cost.NewMeter())
			for rep := 0; rep < 2; rep++ {
				m := cost.NewMeter()
				acc := p.Run(cfgSolver(p, SolverDirect), prob, m)
				if math.Float64bits(acc) != math.Float64bits(wantAcc) {
					t.Fatalf("%s after %s: direct accuracy %v, fresh twin %v", gen.Name, SolverNames[first], acc, wantAcc)
				}
				if got := m.Count(cost.Flop); got != uint64(fw.Flops) {
					t.Fatalf("%s after %s: direct Run charged %d flops, fresh solve %d", gen.Name, SolverNames[first], got, fw.Flops)
				}
			}
		}
	}
}

// TestDirectRunSharedSolveConcurrent races direct and iterative Runs on
// one problem (run it under -race): every direct Run must match a fresh
// twin's accuracy and a fresh solve's flops, and the shared direct grid
// must keep the fresh solve's bits.
func TestDirectRunSharedSolveConcurrent(t *testing.T) {
	r := rng.New(67)
	prob := GenVaryingCoeff(7, r)
	var fw pde.Work
	fresh := pde.DirectHelmholtz3D(prob.Op, prob.F, &fw)
	wantAcc := New().Run(cfgSolver(New(), SolverDirect), twinProblem(prob), cost.NewMeter())

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
			if math.Float64bits(acc) != math.Float64bits(wantAcc) {
				t.Errorf("concurrent direct accuracy %v, fresh twin %v", acc, wantAcc)
			}
			if got := m.Count(cost.Flop); got != uint64(fw.Flops) {
				t.Errorf("concurrent direct Run charged %d flops, fresh solve %d", got, fw.Flops)
			}
		}(solver)
	}
	wg.Wait()
	direct, _ := prob.directSolution()
	for i, v := range direct.Data {
		if math.Float64bits(v) != math.Float64bits(fresh.Data[i]) {
			t.Fatalf("shared direct grid cell %d changed: %v vs fresh %v", i, v, fresh.Data[i])
		}
	}
}
