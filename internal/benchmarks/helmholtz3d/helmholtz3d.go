// Package helmholtz3d reproduces the paper's Helmholtz 3D benchmark: solve
// the variable-coefficient equation -∇·(a∇u) + c·u = f on the unit cube
// with the solver family {multigrid (tunable cycle shape), Jacobi,
// Gauss-Seidel, SOR, direct}. The direct solver is a sine-transform solve
// of the constant-coefficient surrogate — exact when the coefficient field
// is uniform, increasingly wrong as it varies, which couples solver choice
// to the input's coefficient deviation. Accuracy is measured in decades of
// error reduction against a converged reference; threshold 7.
package helmholtz3d

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
)

// SolverNames lists the solvers in site order, indexed by the Solver*
// constants.
var SolverNames = []string{"multigrid", "jacobi", "gauss-seidel", "sor", "direct"}

// Problem is a Helmholtz instance: operator (a, c) and right-hand side f.
type Problem struct {
	N   int
	Op  *pde.Helmholtz3D
	F   *pde.Grid3D
	Gen string

	exactOnce sync.Once
	exact     *pde.Grid3D
	exactRMS  float64

	// directOnce guards the problem's one surrogate direct solve: the grid
	// every SolverDirect Run returns (shared read-only) and the work it
	// recorded, which each such Run charges.
	directOnce sync.Once
	direct     *pde.Grid3D
	directWork pde.Work

	// chainOnce/chain cache the coarsened operator ladder (immutable,
	// shared); fpOnce/fp the content fingerprint keying the solver memo;
	// hpool pools multigrid workspaces over the chain.
	chainOnce sync.Once
	chain     *pde.OpChain3D
	fpOnce    sync.Once
	fp        string
	hpool     sync.Pool
}

// Size implements feature.Input.
func (p *Problem) Size() int { return p.N * p.N * p.N }

// exactSolution lazily computes a converged reference via W-cycle
// multigrid on the true operator (metric evaluation; never charged). It
// runs on the pooled hierarchy, which is bit-identical to the original
// per-cycle MGCycle3D (differential-test enforced), so the reference —
// and every accuracy derived from it — is unchanged.
func (p *Problem) exactSolution() (*pde.Grid3D, float64) {
	p.exactOnce.Do(func() {
		var w pde.Work
		u := pde.NewGrid3D(p.N)
		opt := pde.MGOptions3D{Pre: 3, Post: 3, Gamma: 2, Omega: 1}
		h := p.hier()
		for c := 0; c < 25; c++ {
			h.Cycle(u, p.F, opt, &w)
		}
		p.putHier(h)
		p.exact = u
		p.exactRMS = u.RMS()
	})
	return p.exact, p.exactRMS
}

// directSolution lazily runs pde.DirectHelmholtz3D once per problem. The
// solve depends only on the operator and right-hand side, so every
// SolverDirect Run shares its grid and charges its recorded work.
func (p *Problem) directSolution() (*pde.Grid3D, pde.Work) {
	p.directOnce.Do(func() {
		p.direct = pde.DirectHelmholtz3D(p.Op, p.F, &p.directWork)
	})
	return p.direct, p.directWork
}

// Program is the Helmholtz 3D benchmark.
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

// New constructs the Helmholtz 3D program with the paper's five solver
// alternatives.
func New() *Program {
	p := &Program{}
	p.space = choice.NewSpace()
	p.space.AddSite("solver", SolverNames...)
	p.itersIdx = p.space.AddInt("iterations", 1, 150, 40)
	p.omegaIdx = p.space.AddFloat("omega", 1.0, 1.9, 1.4)
	p.cycIdx = p.space.AddInt("mgCycles", 1, 12, 5)
	p.preIdx = p.space.AddInt("mgPre", 0, 3, 2)
	p.postIdx = p.space.AddInt("mgPost", 0, 3, 2)
	p.gammaIdx = p.space.AddInt("gamma", 1, 2, 1)
	// Selector→tunable dependency graph, mirroring poisson2d: sweep count
	// for the stationary solvers, omega for SOR, cycle shape for
	// multigrid; the direct solver reads no tunables.
	p.space.DependsOn(p.itersIdx, 0, SolverJacobi, SolverGaussSeidel, SolverSOR)
	p.space.DependsOn(p.omegaIdx, 0, SolverSOR)
	p.space.DependsOn(p.cycIdx, 0, SolverMultigrid)
	p.space.DependsOn(p.preIdx, 0, SolverMultigrid)
	p.space.DependsOn(p.postIdx, 0, SolverMultigrid)
	p.space.DependsOn(p.gammaIdx, 0, SolverMultigrid)
	p.set = feature.MustNewSet(
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
	return p
}

// Name implements core.Program.
func (p *Program) Name() string { return "helmholtz3d" }

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
	var u *pde.Grid3D
	switch solver {
	case SolverDirect:
		u, w = prob.directSolution()
	case SolverJacobi:
		u = p.smoothSolve(prob, smootherJacobi, 0.8, cfg.Int(p.itersIdx), &w)
	case SolverGaussSeidel:
		u = p.smoothSolve(prob, smootherSOR, 1.0, cfg.Int(p.itersIdx), &w)
	case SolverSOR:
		u = p.smoothSolve(prob, smootherSOR, cfg.Float(p.omegaIdx), cfg.Int(p.itersIdx), &w)
	default: // SolverMultigrid
		opt := pde.MGOptions3D{
			Pre:   cfg.Int(p.preIdx),
			Post:  cfg.Int(p.postIdx),
			Gamma: cfg.Int(p.gammaIdx),
			Omega: 1.0,
		}
		if opt.Pre == 0 && opt.Post == 0 {
			opt.Post = 1
		}
		u = p.mgSolve(prob, opt, cfg.Int(p.cycIdx), &w)
	}
	meter.Charge(cost.Flop, w.Flops)
	exact, exactRMS := prob.exactSolution()
	if exactRMS <= 1e-300 {
		return 14
	}
	err := u.SubRMS(exact)
	if err <= exactRMS*1e-13 {
		return 13
	}
	acc := math.Log10(exactRMS / err)
	if acc < 0 {
		acc = 0
	}
	return acc
}

// --- feature extractors -------------------------------------------------

func strideFor(budget, n int) int {
	if budget <= 0 || budget >= n {
		return 1
	}
	return n / budget
}

// residualLevel is the RMS of the right-hand side.
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

// deviationLevel is the standard deviation of the COEFFICIENT field — the
// quantity that decides whether the constant-coefficient direct solver is
// usable on this input.
func deviationLevel(budget int) feature.LevelFunc {
	return func(in feature.Input, m *cost.Meter) float64 {
		a := in.(*Problem).Op.A.Data
		stride := strideFor(budget, len(a))
		var sum, sumsq, cnt float64
		for i := 0; i < len(a); i += stride {
			m.Charge1(cost.Scan)
			sum += a[i]
			sumsq += a[i] * a[i]
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

// zerosLevel is the fraction of near-zero RHS entries.
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

// Generator produces a Helmholtz instance on an N×N×N grid.
type Generator struct {
	Name string
	Gen  func(n int, r *rng.RNG) *Problem
}

// Generators varies both the right-hand side and the coefficient field.
func Generators() []Generator {
	return []Generator{
		{"const-smooth", GenConstSmooth},
		{"varying-coeff", GenVaryingCoeff},
		{"rough-coeff", GenRoughCoeff},
		{"point-sources", GenPointSources},
		{"highfreq", GenHighFreq},
		{"sparse", GenSparse},
	}
}

func constantA(n int, val float64) *pde.Grid3D {
	a := pde.NewGrid3D(n)
	for i := range a.Data {
		a.Data[i] = val
	}
	return a
}

func smoothRHS(n int, r *rng.RNG) *pde.Grid3D {
	f := pde.NewGrid3D(n)
	h := 1.0 / float64(n+1)
	a, b, c := r.IntRange(1, 2), r.IntRange(1, 2), r.IntRange(1, 2)
	amp := r.Range(0.5, 2)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				x, y, z := float64(i+1)*h, float64(j+1)*h, float64(k+1)*h
				f.Set(i, j, k, amp*math.Sin(float64(a)*math.Pi*x)*
					math.Sin(float64(b)*math.Pi*y)*math.Sin(float64(c)*math.Pi*z))
			}
		}
	}
	return f
}

// GenConstSmooth has a uniform coefficient and smooth RHS: the direct
// solver is exact and unbeatable here.
func GenConstSmooth(n int, r *rng.RNG) *Problem {
	return &Problem{
		N:   n,
		Op:  &pde.Helmholtz3D{A: constantA(n, r.Range(0.5, 2)), C: r.Range(0, 5)},
		F:   smoothRHS(n, r),
		Gen: "const-smooth",
	}
}

// GenVaryingCoeff has a smoothly varying coefficient: direct is close but
// not exact; multigrid earns its keep.
func GenVaryingCoeff(n int, r *rng.RNG) *Problem {
	a := pde.NewGrid3D(n)
	h := 1.0 / float64(n+1)
	base := r.Range(0.8, 1.5)
	amp := r.Range(0.2, 0.6)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				x := float64(i+1) * h
				a.Set(i, j, k, base+amp*math.Sin(math.Pi*x))
			}
		}
	}
	return &Problem{
		N:   n,
		Op:  &pde.Helmholtz3D{A: a, C: r.Range(0, 3)},
		F:   smoothRHS(n, r),
		Gen: "varying-coeff",
	}
}

// GenRoughCoeff has a strongly heterogeneous coefficient: the direct
// surrogate is badly wrong and only the true-operator solvers reach the
// accuracy target.
func GenRoughCoeff(n int, r *rng.RNG) *Problem {
	a := pde.NewGrid3D(n)
	for i := range a.Data {
		a.Data[i] = r.Range(0.2, 3)
	}
	return &Problem{
		N:   n,
		Op:  &pde.Helmholtz3D{A: a, C: r.Range(0, 3)},
		F:   smoothRHS(n, r),
		Gen: "rough-coeff",
	}
}

// GenPointSources places spikes under a constant coefficient.
func GenPointSources(n int, r *rng.RNG) *Problem {
	f := pde.NewGrid3D(n)
	for s := 0; s < r.IntRange(1, 4); s++ {
		f.Set(r.Intn(n), r.Intn(n), r.Intn(n), r.Range(5, 15)*float64(n+1))
	}
	return &Problem{
		N:   n,
		Op:  &pde.Helmholtz3D{A: constantA(n, 1), C: r.Range(0, 5)},
		F:   f,
		Gen: "point-sources",
	}
}

// GenHighFreq uses the highest grid mode — smoothers alone converge fast.
func GenHighFreq(n int, r *rng.RNG) *Problem {
	f := pde.NewGrid3D(n)
	h := 1.0 / float64(n+1)
	amp := r.Range(0.5, 2)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				x, y, z := float64(i+1)*h, float64(j+1)*h, float64(k+1)*h
				f.Set(i, j, k, amp*math.Sin(float64(n)*math.Pi*x)*
					math.Sin(float64(n)*math.Pi*y)*math.Sin(float64(n)*math.Pi*z))
			}
		}
	}
	return &Problem{
		N:   n,
		Op:  &pde.Helmholtz3D{A: constantA(n, 1), C: r.Range(0, 2)},
		F:   f,
		Gen: "highfreq",
	}
}

// GenSparse fills ~5% of RHS cells.
func GenSparse(n int, r *rng.RNG) *Problem {
	f := pde.NewGrid3D(n)
	for i := range f.Data {
		if r.Coin(0.05) {
			f.Data[i] = r.Norm(0, 5)
		}
	}
	return &Problem{
		N:   n,
		Op:  &pde.Helmholtz3D{A: constantA(n, 1), C: r.Range(0, 2)},
		F:   f,
		Gen: "sparse",
	}
}

// MixOptions controls the input battery.
type MixOptions struct {
	Count int
	Seed  uint64
	Sizes []int // default {7, 15}; multigrid needs 2^k - 1
}

// GenerateMix produces a deterministic battery of Helmholtz instances.
func GenerateMix(opts MixOptions) []*Problem {
	if len(opts.Sizes) == 0 {
		opts.Sizes = []int{7, 15}
	}
	r := rng.New(opts.Seed)
	gens := Generators()
	out := make([]*Problem, opts.Count)
	for i := range out {
		n := opts.Sizes[r.Intn(len(opts.Sizes))]
		out[i] = gens[i%len(gens)].Gen(n, r)
	}
	return out
}
