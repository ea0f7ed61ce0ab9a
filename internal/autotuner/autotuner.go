package autotuner

import (
	"sort"

	"inputtune/internal/choice"
	"inputtune/internal/engine"
	"inputtune/internal/rng"
)

// Result is one evaluation of a configuration on the training input: the
// virtual execution time and (for variable-accuracy programs) the achieved
// accuracy.
type Result struct {
	Time     float64
	Accuracy float64
}

// EvalFunc evaluates a configuration. It must be deterministic: the tuner
// may evaluate candidates concurrently, and it memoizes results by
// configuration fingerprint (choice.Config.Key — or the canonical LiveKey
// when the space declares selector→tunable dependencies), so a genome is
// never evaluated twice within one run, nor is any dead-gene variant of an
// already-evaluated behaviour.
type EvalFunc func(cfg *choice.Config) Result

// NoImmigrants disables the per-generation injection of random
// configurations. The zero value of Options.Immigrants selects the default
// (2), so disabling immigration needs an explicit sentinel.
const NoImmigrants = -1

// Options configures a tuning run. Zero values select the documented
// defaults.
type Options struct {
	Space *choice.Space
	Eval  EvalFunc

	// RequireAccuracy enables the dual objective: candidates whose accuracy
	// is below AccuracyTarget are dominated by any candidate meeting it.
	RequireAccuracy bool
	AccuracyTarget  float64

	Population  int // default 24
	Generations int // default 24
	Elites      int // default 4
	Tournament  int // default 3
	// Immigrants is the number of random configs injected per generation.
	// 0 selects the default (2); pass NoImmigrants to disable immigration.
	Immigrants int
	Seed       uint64 // RNG seed; runs are deterministic per seed
	// Parallel evaluates offspring concurrently on the shared engine
	// pool, which keeps nested parallel loops (the caller's per-landmark
	// loop outside, generations inside) from oversubscribing GOMAXPROCS.
	Parallel bool

	// CrossoverRate is the probability an offspring is bred from two
	// parents rather than mutated from one. 0 selects the default (0.4).
	CrossoverRate float64
	// Weights overrides the mutation-operator mix; zero value = defaults.
	Weights choice.MutationWeights
	// Stall, when positive, stops the search after Stall consecutive
	// generations without improvement of the incumbent.
	Stall int
	// MaxEvaluations, when positive, caps actual EvalFunc invocations:
	// once the cap is reached no further un-memoized genomes are
	// evaluated (they are dropped from the offspring pool) and the
	// generation loop stops. With a shared memo (MetaTune) the cap spans
	// all trials.
	MaxEvaluations int

	// memo, when set, shares evaluation results (and the evaluation
	// budget) across several tune runs — MetaTune's trials.
	memo *runMemo
	// seedPop prepends known-good configurations to the initial
	// population (after the default config), used by MetaTune to carry
	// survivors across trials.
	seedPop []*choice.Config
}

func (o *Options) setDefaults() {
	if o.Population <= 0 {
		o.Population = 24
	}
	if o.Generations <= 0 {
		o.Generations = 24
	}
	if o.Elites <= 0 {
		o.Elites = 4
	}
	if o.Elites >= o.Population {
		o.Elites = o.Population - 1
	}
	if o.Tournament <= 0 {
		o.Tournament = 3
	}
	if o.Immigrants == 0 {
		o.Immigrants = 2
	}
	if o.Immigrants < 0 { // NoImmigrants (or any negative): disable
		o.Immigrants = 0
	}
	if o.Immigrants > o.Population-o.Elites {
		o.Immigrants = o.Population - o.Elites
	}
	if o.CrossoverRate <= 0 {
		o.CrossoverRate = 0.4
	}
	if o.Weights == (choice.MutationWeights{}) {
		o.Weights = choice.DefaultMutationWeights()
	}
}

// Stats summarises a tuning run.
type Stats struct {
	// Evaluations counts actual EvalFunc invocations (unique behaviours).
	Evaluations int
	// CacheHits counts genome evaluations answered by the in-run memo
	// instead of EvalFunc; Evaluations+CacheHits is the requested total.
	CacheHits   int
	Generations int
	// DeadGeneCollapses counts genomes that were structurally new (their
	// full fingerprint had never been seen) yet collapsed onto an
	// already-evaluated canonical representative — evaluations the
	// dependency graph saved before they were paid.
	DeadGeneCollapses int
	BestTime          float64
	BestAcc           float64
	// Feasible reports whether the returned best met the accuracy target
	// (always true when RequireAccuracy is false).
	Feasible bool
}

type individual struct {
	cfg *choice.Config
	res Result
}

// runMemo is the evaluation memo of one tuning run, shareable across
// MetaTune trials. res is keyed by the dedup key (LiveKey or full Key);
// full records every full fingerprint ever requested, distinguishing true
// repeats from dead-gene collapses; evals counts EvalFunc invocations
// recorded through this memo, the quantity MaxEvaluations caps.
type runMemo struct {
	res   map[string]Result
	full  map[string]struct{}
	evals int
}

func newRunMemo() *runMemo {
	return &runMemo{res: make(map[string]Result), full: make(map[string]struct{})}
}

// better reports whether a beats b under the lexicographic dual objective.
func better(a, b individual, requireAcc bool, target float64) bool {
	if requireAcc {
		af, bf := a.res.Accuracy >= target, b.res.Accuracy >= target
		if af != bf {
			return af
		}
		if !af {
			// Both infeasible: higher accuracy wins, time breaks ties.
			if a.res.Accuracy != b.res.Accuracy {
				return a.res.Accuracy > b.res.Accuracy
			}
			return a.res.Time < b.res.Time
		}
	}
	return a.res.Time < b.res.Time
}

// Tune runs the evolutionary search and returns the best configuration
// found plus run statistics. When the space declares dependencies the
// returned landmark is canonical (dead genes at defaults), so downstream
// caches keyed by Config.Key see the same fingerprint the tuner deduped
// on.
func Tune(opts Options) (*choice.Config, Stats) {
	pop, st := tune(opts)
	cfg := pop[0].cfg
	if opts.Space.HasDependencies() {
		cfg = opts.Space.Canonicalize(cfg)
	}
	return cfg, st
}

// tune is the GA core; it returns the final population (best first) so
// MetaTune can carry survivors across trials.
func tune(opts Options) ([]individual, Stats) {
	opts.setDefaults()
	if opts.Space == nil || opts.Eval == nil {
		panic("autotuner: Space and Eval are required")
	}
	r := rng.New(opts.Seed)
	var st Stats
	pool := engine.Default()

	liveAware := opts.Space.HasDependencies()

	// memo holds every result of this run keyed by behaviour fingerprint,
	// so duplicate genomes (no-op mutations, re-bred crossovers, converged
	// populations) and — under a dependency graph — dead-gene variants of
	// an evaluated behaviour cost a map lookup instead of a program run.
	// EvalFunc is deterministic, so memoized results are bit-identical to
	// re-runs.
	memo := opts.memo
	if memo == nil {
		memo = newRunMemo()
	}
	// evalAll evaluates cfgs, deduping through the memo. minKeep forces at
	// least that many un-memoized genomes to run even over budget, so the
	// initial population can never come back empty.
	evalAll := func(cfgs []*choice.Config, minKeep int) []individual {
		keys := make([]string, len(cfgs))
		drop := make([]bool, len(cfgs))
		var pending []int // first occurrence of each un-memoized behaviour
		for i, c := range cfgs {
			fk := c.Key()
			lk := fk
			if liveAware {
				lk = opts.Space.LiveKey(c)
			}
			keys[i] = lk
			if _, ok := memo.res[lk]; ok {
				st.CacheHits++
				if liveAware {
					if _, seen := memo.full[fk]; !seen {
						st.DeadGeneCollapses++
					}
				}
			} else if opts.MaxEvaluations > 0 &&
				memo.evals+len(pending) >= opts.MaxEvaluations &&
				len(pending) >= minKeep {
				drop[i] = true // budget exhausted: never evaluated
				continue
			} else {
				memo.res[lk] = Result{} // reserve so duplicates dedupe
				pending = append(pending, i)
			}
			memo.full[fk] = struct{}{}
		}
		st.Evaluations += len(pending)
		memo.evals += len(pending)
		results := make([]Result, len(pending))
		run := func(j int) { results[j] = opts.Eval(cfgs[pending[j]]) }
		if opts.Parallel {
			pool.ForEach(len(pending), run)
		} else {
			for j := range pending {
				run(j)
			}
		}
		for j, i := range pending {
			memo.res[keys[i]] = results[j]
		}
		out := make([]individual, 0, len(cfgs))
		for i, c := range cfgs {
			if drop[i] {
				continue
			}
			out = append(out, individual{cfg: c, res: memo.res[keys[i]]})
		}
		return out
	}

	// Initial population: the default config, any carried survivors, then
	// random draws, so the search always starts from a sane
	// polyalgorithm-free baseline.
	seedCfgs := make([]*choice.Config, 0, opts.Population)
	seedCfgs = append(seedCfgs, opts.Space.DefaultConfig())
	for _, c := range opts.seedPop {
		if len(seedCfgs) < opts.Population {
			seedCfgs = append(seedCfgs, c)
		}
	}
	for len(seedCfgs) < opts.Population {
		seedCfgs = append(seedCfgs, opts.Space.RandomConfig(r))
	}
	pop := evalAll(seedCfgs, 1)
	sortPop(pop, opts)

	bestSoFar := pop[0]
	stall := 0
	for gen := 0; gen < opts.Generations; gen++ {
		if opts.MaxEvaluations > 0 && memo.evals >= opts.MaxEvaluations {
			break
		}
		st.Generations++
		// Build the offspring pool.
		nOff := opts.Population - opts.Elites
		offspring := make([]*choice.Config, 0, nOff)
		for i := 0; i < opts.Immigrants; i++ {
			offspring = append(offspring, opts.Space.RandomConfig(r))
		}
		for len(offspring) < nOff {
			a := tournament(pop, opts, r)
			if r.Coin(opts.CrossoverRate) {
				b := tournament(pop, opts, r)
				child := opts.Space.Crossover(pop[a].cfg, pop[b].cfg, r)
				offspring = append(offspring, opts.Space.MutateWith(child, r, opts.Weights))
			} else {
				offspring = append(offspring, opts.Space.MutateWith(pop[a].cfg, r, opts.Weights))
			}
		}
		evaluated := evalAll(offspring, 0)
		// Elitism: keep the best Elites from the previous generation.
		elite := opts.Elites
		if elite > len(pop) {
			elite = len(pop)
		}
		next := make([]individual, 0, opts.Population)
		next = append(next, pop[:elite]...)
		next = append(next, evaluated...)
		pop = next
		sortPop(pop, opts)
		if len(pop) > opts.Population {
			pop = pop[:opts.Population]
		}
		if better(pop[0], bestSoFar, opts.RequireAccuracy, opts.AccuracyTarget) {
			bestSoFar = pop[0]
			stall = 0
		} else {
			stall++
			if opts.Stall > 0 && stall >= opts.Stall {
				break
			}
		}
	}

	best := pop[0]
	st.BestTime = best.res.Time
	st.BestAcc = best.res.Accuracy
	st.Feasible = !opts.RequireAccuracy || best.res.Accuracy >= opts.AccuracyTarget
	return pop, st
}

// sortPop orders the population best-first under the lexicographic
// comparator. The sort is stable, so individuals tied on (time, accuracy)
// keep their insertion order — elites before offspring, earlier offspring
// first — making elite survival deterministic across Go releases.
func sortPop(pop []individual, opts Options) {
	sort.SliceStable(pop, func(i, j int) bool {
		return better(pop[i], pop[j], opts.RequireAccuracy, opts.AccuracyTarget)
	})
}

// tournament returns the index of the winner of a k-way tournament.
func tournament(pop []individual, opts Options, r *rng.RNG) int {
	best := r.Intn(len(pop))
	for i := 1; i < opts.Tournament; i++ {
		c := r.Intn(len(pop))
		if better(pop[c], pop[best], opts.RequireAccuracy, opts.AccuracyTarget) {
			best = c
		}
	}
	return best
}
