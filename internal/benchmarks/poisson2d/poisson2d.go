// Package poisson2d reproduces the paper's Poisson 2D benchmark: solve the
// elliptic equation -Δu = f on the unit square with the solver family
// {multigrid (tunable cycle shape), Jacobi, Gauss-Seidel, SOR, direct}. The
// accuracy metric is the log10 ratio of the initial-guess RMS error to the
// final RMS error, relative to the exact discrete solution; threshold 7
// decades.
package poisson2d

import (
	"math"
	"sync"

	"inputtune/internal/choice"
	"inputtune/internal/cost"
	"inputtune/internal/engine"
	"inputtune/internal/feature"
	"inputtune/internal/pde"
	"inputtune/internal/rng"
)

// Solver alternatives for the "solver" choice site.
const (
	SolverMultigrid = iota
	SolverJacobi
	SolverGaussSeidel
	SolverSOR
	SolverDirect
	numSolvers

	// SolverFastDirect is the O(N² log N) sine-transform direct solver
	// (pde.FastDirectPoisson2D). It sits AFTER numSolvers because it is
	// opt-in (NewWithFastDirect): extending the default solver site would
	// shift every r.Intn(nAlts) draw in RandomConfig and silently change
	// all established GA trajectories and saved artifacts.
	SolverFastDirect = numSolvers
)

// SolverNames lists the default solvers in site order.
var SolverNames = []string{"multigrid", "jacobi", "gauss-seidel", "sor", "direct"}

// FastDirectName names the opt-in sixth alternative.
const FastDirectName = "fast-direct"

// Problem is a Poisson instance: the right-hand side on an N×N grid.
type Problem struct {
	N   int
	F   *pde.Grid2D
	Gen string

	// exactOnce guards the problem's one DirectPoisson2D solve: the exact
	// grid (shared read-only), its RMS and the work the solve recorded.
	exactOnce sync.Once
	exact     *pde.Grid2D
	exactRMS  float64
	exactWork pde.Work

	// fpOnce/fp cache the content fingerprint keying the solver memo;
	// hpool pools multigrid workspaces so concurrent evaluations of this
	// problem never share scratch.
	fpOnce sync.Once
	fp     string
	hpool  sync.Pool
}

// Size implements feature.Input.
func (p *Problem) Size() int { return p.N * p.N }

// exactSolution lazily computes the exact discrete solution via the direct
// sine-transform solver, once per problem. The accuracy metric reads it
// without charging; a SolverDirect Run returns the same grid and charges
// the recorded work, since that solve is exactly what it would repeat.
// The returned grid is shared and must not be modified.
func (p *Problem) exactSolution() (*pde.Grid2D, float64, pde.Work) {
	p.exactOnce.Do(func() {
		p.exact = pde.DirectPoisson2D(p.F, &p.exactWork)
		p.exactRMS = p.exact.RMS()
	})
	return p.exact, p.exactRMS, p.exactWork
}

// Program is the Poisson 2D benchmark.
type Program struct {
	space    *choice.Space
	set      *feature.Set
	itersIdx int
	omegaIdx int
	cycIdx   int
	preIdx   int
	postIdx  int
	gammaIdx int

	// memo is the sub-run solver-state memo (see solve.go); memoOff is the
	// test hook proving results are identical with the memo disabled.
	memo    engine.Memo
	memoOff bool
}

// New constructs the Poisson 2D program with the paper's five solver
// alternatives.
func New() *Program { return newProgram(false) }

// NewWithFastDirect constructs the program with a sixth "fast-direct"
// alternative: the O(N² log N) DST-backed direct solver. The autotuner
// then weighs it against dense direct and multigrid per input size —
// the raw-speed experiment arm. Kept out of New so default trajectories
// and artifacts stay byte-identical.
func NewWithFastDirect() *Program { return newProgram(true) }

func newProgram(fastDirect bool) *Program {
	p := &Program{}
	p.space = choice.NewSpace()
	names := SolverNames
	if fastDirect {
		names = append(append([]string(nil), SolverNames...), FastDirectName)
	}
	p.space.AddSite("solver", names...)
	p.itersIdx = p.space.AddInt("iterations", 1, 300, 60)
	p.omegaIdx = p.space.AddFloat("omega", 1.0, 1.95, 1.5)
	p.cycIdx = p.space.AddInt("mgCycles", 1, 16, 6)
	p.preIdx = p.space.AddInt("mgPre", 0, 3, 2)
	p.postIdx = p.space.AddInt("mgPost", 0, 3, 2)
	p.gammaIdx = p.space.AddInt("gamma", 1, 2, 1)
	// Selector→tunable dependency graph: the sweep count is read only by
	// the stationary iterative solvers, the over-relaxation factor only by
	// SOR, and the cycle-shape knobs only by multigrid. Direct solvers
	// read no tunables at all, so their genes are dead and the tuner
	// collapses such variants before evaluating them.
	p.space.DependsOn(p.itersIdx, 0, SolverJacobi, SolverGaussSeidel, SolverSOR)
	p.space.DependsOn(p.omegaIdx, 0, SolverSOR)
	p.space.DependsOn(p.cycIdx, 0, SolverMultigrid)
	p.space.DependsOn(p.preIdx, 0, SolverMultigrid)
	p.space.DependsOn(p.postIdx, 0, SolverMultigrid)
	p.space.DependsOn(p.gammaIdx, 0, SolverMultigrid)
	p.set = newFeatureSet2D()
	return p
}

// Name implements core.Program.
func (p *Program) Name() string { return "poisson2d" }

// Space implements core.Program.
func (p *Program) Space() *choice.Space { return p.space }

// Features implements core.Program.
func (p *Program) Features() *feature.Set { return p.set }

// HasAccuracy implements core.Program.
func (p *Program) HasAccuracy() bool { return true }

// AccuracyThreshold implements core.Program: the paper sets 7 (decades).
func (p *Program) AccuracyThreshold() float64 { return 7 }

// Run solves the instance with the configured solver and returns the
// achieved decades of error reduction.
func (p *Program) Run(cfg *choice.Config, in feature.Input, meter *cost.Meter) float64 {
	prob := in.(*Problem)
	solver := cfg.Decide(0, prob.Size())
	var w pde.Work
	var u *pde.Grid2D
	switch solver {
	case SolverDirect:
		u, _, w = prob.exactSolution()
	case SolverFastDirect:
		u = pde.FastDirectPoisson2D(prob.F, &w)
	case SolverJacobi:
		u = p.smoothSolve(prob, smootherJacobi, 0.8, cfg.Int(p.itersIdx), &w)
	case SolverGaussSeidel:
		u = p.smoothSolve(prob, smootherSOR, 1.0, cfg.Int(p.itersIdx), &w)
	case SolverSOR:
		u = p.smoothSolve(prob, smootherSOR, cfg.Float(p.omegaIdx), cfg.Int(p.itersIdx), &w)
	default: // SolverMultigrid
		opt := pde.MGOptions2D{
			Pre:   cfg.Int(p.preIdx),
			Post:  cfg.Int(p.postIdx),
			Gamma: cfg.Int(p.gammaIdx),
			Omega: 1.0,
		}
		if opt.Pre == 0 && opt.Post == 0 {
			opt.Post = 1 // a smoother-free cycle cannot converge
		}
		u = p.mgSolve(prob, opt, cfg.Int(p.cycIdx), &w)
	}
	meter.Charge(cost.Flop, w.Flops)
	return prob.accuracy(u)
}

// accuracy returns the decades of error reduction u achieves against the
// exact discrete solution, capped at 14 (machine precision).
func (p *Problem) accuracy(u *pde.Grid2D) float64 {
	exact, exactRMS, _ := p.exactSolution()
	if exactRMS <= 1e-300 {
		return 14 // zero RHS: the zero guess is already exact
	}
	err := u.SubRMS(exact)
	if err <= exactRMS*1e-14 {
		return 14
	}
	acc := math.Log10(exactRMS / err)
	if acc < 0 {
		acc = 0
	}
	return acc
}

// newFeatureSet2D builds the paper's three features for this benchmark:
// the residual measure of the input, its standard deviation, and its count
// of (near-)zeros, each at three sampling levels.
func newFeatureSet2D() *feature.Set {
	return feature.MustNewSet(
		feature.Extractor{Name: "residual", Levels: []feature.LevelFunc{
			residualLevel(64), residualLevel(512), residualLevel(0),
		}},
		feature.Extractor{Name: "deviation", Levels: []feature.LevelFunc{
			deviationLevel(64), deviationLevel(512), deviationLevel(0),
		}},
		feature.Extractor{Name: "zeros", Levels: []feature.LevelFunc{
			zerosLevel(64), zerosLevel(512), zerosLevel(0),
		}},
	)
}

func strideFor(budget, n int) int {
	if budget <= 0 || budget >= n {
		return 1
	}
	return n / budget
}

// residualLevel is the RMS of the right-hand side — the residual of the
// zero initial guess.
func residualLevel(budget int) feature.LevelFunc {
	return func(in feature.Input, m *cost.Meter) float64 {
		f := in.(*Problem).F.Data
		stride := strideFor(budget, len(f))
		var sum, cnt float64
		for i := 0; i < len(f); i += stride {
			m.Charge1(cost.Scan)
			sum += f[i] * f[i]
			cnt++
		}
		return math.Sqrt(sum / cnt)
	}
}

func deviationLevel(budget int) feature.LevelFunc {
	return func(in feature.Input, m *cost.Meter) float64 {
		f := in.(*Problem).F.Data
		stride := strideFor(budget, len(f))
		var sum, sumsq, cnt float64
		for i := 0; i < len(f); i += stride {
			m.Charge1(cost.Scan)
			sum += f[i]
			sumsq += f[i] * f[i]
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

func zerosLevel(budget int) feature.LevelFunc {
	return func(in feature.Input, m *cost.Meter) float64 {
		f := in.(*Problem).F.Data
		stride := strideFor(budget, len(f))
		var zeros, cnt float64
		for i := 0; i < len(f); i += stride {
			m.Charge1(cost.Scan)
			if math.Abs(f[i]) < 1e-12 {
				zeros++
			}
			cnt++
		}
		return zeros / cnt
	}
}

// --- input generators ----------------------------------------------------

// Generator produces a Poisson instance on an N×N grid.
type Generator struct {
	Name string
	Gen  func(n int, r *rng.RNG) *Problem
}

// Generators spans smooth, oscillatory, localised and noisy right-hand
// sides.
func Generators() []Generator {
	return []Generator{
		{"smooth", GenSmooth},
		{"highfreq", GenHighFreq},
		{"point-sources", GenPointSources},
		{"sparse", GenSparse},
		{"noise", GenNoise},
		{"mixed", GenMixed},
	}
}

func newProblem(n int, gen string) *Problem {
	return &Problem{N: n, F: pde.NewGrid2D(n), Gen: gen}
}

// GenSmooth combines a few low-frequency sine modes — the classic hard
// case for plain smoothers, multigrid's home turf.
func GenSmooth(n int, r *rng.RNG) *Problem {
	p := newProblem(n, "smooth")
	h := 1.0 / float64(n+1)
	modes := r.IntRange(1, 3)
	for mth := 0; mth < modes; mth++ {
		a, b := r.IntRange(1, 3), r.IntRange(1, 3)
		amp := r.Range(0.5, 2)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				x, y := float64(i+1)*h, float64(j+1)*h
				p.F.Set(i, j, p.F.At(i, j)+amp*math.Sin(float64(a)*math.Pi*x)*math.Sin(float64(b)*math.Pi*y))
			}
		}
	}
	return p
}

// GenHighFreq uses modes near the grid Nyquist — smoothers kill these in a
// handful of sweeps, so cheap iterative solvers suffice.
func GenHighFreq(n int, r *rng.RNG) *Problem {
	p := newProblem(n, "highfreq")
	h := 1.0 / float64(n+1)
	a := n - r.IntRange(0, 2)
	b := n - r.IntRange(0, 2)
	amp := r.Range(0.5, 2)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			x, y := float64(i+1)*h, float64(j+1)*h
			p.F.Set(i, j, amp*math.Sin(float64(a)*math.Pi*x)*math.Sin(float64(b)*math.Pi*y))
		}
	}
	return p
}

// GenPointSources places a few delta spikes.
func GenPointSources(n int, r *rng.RNG) *Problem {
	p := newProblem(n, "point-sources")
	k := r.IntRange(1, 5)
	for s := 0; s < k; s++ {
		p.F.Set(r.Intn(n), r.Intn(n), r.Range(5, 20)/(1.0/float64(n+1)))
	}
	return p
}

// GenSparse fills ~5% of cells with noise.
func GenSparse(n int, r *rng.RNG) *Problem {
	p := newProblem(n, "sparse")
	for i := range p.F.Data {
		if r.Coin(0.05) {
			p.F.Data[i] = r.Norm(0, 5)
		}
	}
	return p
}

// GenNoise is dense i.i.d. noise (energy across all frequencies).
func GenNoise(n int, r *rng.RNG) *Problem {
	p := newProblem(n, "noise")
	for i := range p.F.Data {
		p.F.Data[i] = r.Norm(0, 1)
	}
	return p
}

// GenMixed is smooth plus 10% noise.
func GenMixed(n int, r *rng.RNG) *Problem {
	p := GenSmooth(n, r)
	p.Gen = "mixed"
	for i := range p.F.Data {
		p.F.Data[i] += r.Norm(0, 0.1)
	}
	return p
}

// MixOptions controls the input battery.
type MixOptions struct {
	Count int
	Seed  uint64
	// Sizes are the grid dimensions to cycle through (default {31, 63},
	// straddling the direct/multigrid cost crossover, with an occasional
	// 127). Multigrid needs 2^k - 1.
	Sizes []int
}

// GenerateMix produces a deterministic battery of Poisson instances.
func GenerateMix(opts MixOptions) []*Problem {
	if len(opts.Sizes) == 0 {
		opts.Sizes = []int{31, 63}
	}
	r := rng.New(opts.Seed)
	gens := Generators()
	out := make([]*Problem, opts.Count)
	for i := range out {
		n := opts.Sizes[r.Intn(len(opts.Sizes))]
		if i%8 == 7 {
			n = 127 // occasional large instance exercises size selectors
		}
		out[i] = gens[i%len(gens)].Gen(n, r)
	}
	return out
}
