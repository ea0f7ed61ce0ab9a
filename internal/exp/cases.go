package exp

import (
	"inputtune/internal/autotuner"
	"inputtune/internal/benchmarks/binpack"
	"inputtune/internal/benchmarks/clustering"
	"inputtune/internal/benchmarks/helmholtz3d"
	"inputtune/internal/benchmarks/poisson2d"
	"inputtune/internal/benchmarks/sortbench"
	"inputtune/internal/benchmarks/svd"
	"inputtune/internal/core"
	"inputtune/internal/engine"
)

// Scale sets the workload and training budget. The paper's scale (50-60k
// inputs, K1 = 100, hours of tuning) is reachable by raising these; the
// defaults reproduce the result shapes in seconds (see DESIGN.md
// substitution 5).
type Scale struct {
	TrainInputs int
	TestInputs  int
	K1          int
	TunerPop    int
	TunerGens   int
	Seed        uint64
	Parallel    bool
	// DisableCache turns off the engine's memoized measurement cache (the
	// A/B escape hatch; results are identical either way).
	DisableCache bool
}

// measurementCache returns a fresh test-set measurement cache, or nil when
// the scale runs through the cache-disabled escape hatch.
func (sc Scale) measurementCache() *engine.Cache {
	if sc.DisableCache {
		return nil
	}
	return engine.NewCache(0)
}

// QuickScale is sized for CI: result shapes hold, absolute noise is higher.
func QuickScale() Scale {
	return Scale{TrainInputs: 90, TestInputs: 90, K1: 8, TunerPop: 10, TunerGens: 8, Seed: 42, Parallel: true}
}

// DefaultScale is the standard reproduction scale.
func DefaultScale() Scale {
	return Scale{TrainInputs: 240, TestInputs: 240, K1: 16, TunerPop: 16, TunerGens: 14, Seed: 42, Parallel: true}
}

// Case is one of the eight tests of Table 1.
type Case struct {
	// Name is the paper's test name (sort1, sort2, clustering1, ...).
	Name string
	// Prog is the benchmark program.
	Prog core.Program
	// Train and Test are the input sets.
	Train []core.Input
	// Test inputs are disjoint from training (different generator seeds).
	Test []core.Input
}

// CaseNames lists the eight tests in Table 1 order.
var CaseNames = []string{
	"sort1", "sort2", "clustering1", "clustering2",
	"binpacking", "svd", "poisson2d", "helmholtz3d",
}

// TunerProfile is a benchmark's evaluation-budget profile for the
// dependency-aware self-tuning search: how much of a single-run GA's
// evaluation cost (autotuner.FlatCost) each landmark may spend, and how
// long the meta-loop's hyperparameter portfolio is. Profiles are per
// benchmark because the choice-space landscapes differ: smooth spaces
// (sorting cutoffs, solver selectors with dead iteration genes) converge
// in a fraction of that cost, while satisfaction-constrained spaces
// (clustering2) need a longer portfolio to keep specialist landmarks
// feasible.
type TunerProfile struct {
	// BudgetFrac multiplies autotuner.FlatCost(pop, gens) to give the
	// per-landmark evaluation cap. Always < 1: the dependency-aware
	// search must spend strictly fewer evaluations than a single-run GA.
	BudgetFrac float64
	// MetaTrials is the portfolio length passed to autotuner.MetaTune.
	MetaTrials int
}

// tunerProfiles maps case name → profile. The fractions were chosen on
// the quick scale (see BENCH trajectory in README.md) and scale with
// FlatCost at other scales.
var tunerProfiles = map[string]TunerProfile{
	"sort1":       {BudgetFrac: 0.17, MetaTrials: 1},
	"sort2":       {BudgetFrac: 0.17, MetaTrials: 1},
	"clustering1": {BudgetFrac: 0.17, MetaTrials: 1},
	"clustering2": {BudgetFrac: 0.51, MetaTrials: 3},
	"binpacking":  {BudgetFrac: 0.345, MetaTrials: 1},
	"svd":         {BudgetFrac: 0.345, MetaTrials: 1},
	"poisson2d":   {BudgetFrac: 0.17, MetaTrials: 1},
	"helmholtz3d": {BudgetFrac: 0.17, MetaTrials: 1},
}

// Profile returns the named case's tuner profile (the zero value selects
// the meta-tuner's self-tuned defaults).
func Profile(name string) TunerProfile { return tunerProfiles[name] }

// resolveTuner returns the (budget, trials) pair for a case at a scale,
// read from the per-benchmark profile; a case without one gets the
// meta-tuner defaults (0, 0).
func resolveTuner(name string, sc Scale) (budget, trials int) {
	p := tunerProfiles[name]
	if p.BudgetFrac > 0 {
		budget = int(p.BudgetFrac*float64(autotuner.FlatCost(sc.TunerPop, sc.TunerGens)) + 0.5)
	}
	return budget, p.MetaTrials
}

// BuildCase constructs one named case at the given scale.
func BuildCase(name string, sc Scale) Case {
	switch name {
	case "sort1":
		p := sortbench.New()
		return Case{
			Name: name, Prog: p,
			Train: sortInputs(sortbench.MixOptions{Count: sc.TrainInputs, Seed: sc.Seed, RealLike: true, MaxSize: 1024}),
			Test:  sortInputs(sortbench.MixOptions{Count: sc.TestInputs, Seed: sc.Seed + 10007, RealLike: true, MaxSize: 1024}),
		}
	case "sort2":
		p := sortbench.New()
		return Case{
			Name: name, Prog: p,
			Train: sortInputs(sortbench.MixOptions{Count: sc.TrainInputs, Seed: sc.Seed, MaxSize: 1024}),
			Test:  sortInputs(sortbench.MixOptions{Count: sc.TestInputs, Seed: sc.Seed + 10007, MaxSize: 1024}),
		}
	case "clustering1":
		p := clustering.New()
		return Case{
			Name: name, Prog: p,
			Train: clusterInputs(clustering.MixOptions{Count: sc.TrainInputs, Seed: sc.Seed, RealLike: true}),
			Test:  clusterInputs(clustering.MixOptions{Count: sc.TestInputs, Seed: sc.Seed + 10007, RealLike: true}),
		}
	case "clustering2":
		p := clustering.New()
		return Case{
			Name: name, Prog: p,
			Train: clusterInputs(clustering.MixOptions{Count: sc.TrainInputs, Seed: sc.Seed}),
			Test:  clusterInputs(clustering.MixOptions{Count: sc.TestInputs, Seed: sc.Seed + 10007}),
		}
	case "binpacking":
		p := binpack.New()
		return Case{
			Name: name, Prog: p,
			Train: packInputs(binpack.MixOptions{Count: sc.TrainInputs, Seed: sc.Seed}),
			Test:  packInputs(binpack.MixOptions{Count: sc.TestInputs, Seed: sc.Seed + 10007}),
		}
	case "svd":
		p := svd.New()
		return Case{
			Name: name, Prog: p,
			Train: svdInputs(svd.MixOptions{Count: sc.TrainInputs, Seed: sc.Seed}),
			Test:  svdInputs(svd.MixOptions{Count: sc.TestInputs, Seed: sc.Seed + 10007}),
		}
	case "poisson2d":
		p := poisson2d.New()
		n := sc.TrainInputs * 2 / 3 // PDE instances are pricier to measure
		return Case{
			Name: name, Prog: p,
			Train: poissonInputs(poisson2d.MixOptions{Count: n, Seed: sc.Seed}),
			Test:  poissonInputs(poisson2d.MixOptions{Count: n, Seed: sc.Seed + 10007}),
		}
	case "helmholtz3d":
		p := helmholtz3d.New()
		n := sc.TrainInputs / 2
		return Case{
			Name: name, Prog: p,
			Train: helmholtzInputs(helmholtz3d.MixOptions{Count: n, Seed: sc.Seed}),
			Test:  helmholtzInputs(helmholtz3d.MixOptions{Count: n, Seed: sc.Seed + 10007}),
		}
	default:
		panic("exp: unknown case " + name)
	}
}

// AllCases builds every Table 1 test.
func AllCases(sc Scale) []Case {
	out := make([]Case, len(CaseNames))
	for i, n := range CaseNames {
		out[i] = BuildCase(n, sc)
	}
	return out
}

func sortInputs(o sortbench.MixOptions) []core.Input {
	lists := sortbench.GenerateMix(o)
	out := make([]core.Input, len(lists))
	for i, l := range lists {
		out[i] = l
	}
	return out
}

func clusterInputs(o clustering.MixOptions) []core.Input {
	pts := clustering.GenerateMix(o)
	out := make([]core.Input, len(pts))
	for i, p := range pts {
		out[i] = p
	}
	return out
}

func packInputs(o binpack.MixOptions) []core.Input {
	items := binpack.GenerateMix(o)
	out := make([]core.Input, len(items))
	for i, it := range items {
		out[i] = it
	}
	return out
}

func svdInputs(o svd.MixOptions) []core.Input {
	ms := svd.GenerateMix(o)
	out := make([]core.Input, len(ms))
	for i, m := range ms {
		out[i] = m
	}
	return out
}

func poissonInputs(o poisson2d.MixOptions) []core.Input {
	ps := poisson2d.GenerateMix(o)
	out := make([]core.Input, len(ps))
	for i, p := range ps {
		out[i] = p
	}
	return out
}

func helmholtzInputs(o helmholtz3d.MixOptions) []core.Input {
	ps := helmholtz3d.GenerateMix(o)
	out := make([]core.Input, len(ps))
	for i, p := range ps {
		out[i] = p
	}
	return out
}
