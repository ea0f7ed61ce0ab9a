package autotuner

import "inputtune/internal/choice"

// Self-tuning meta-loop (after Yang & He, "A Framework for Self-Tuning
// Optimization Algorithms"): instead of running the GA once with fixed
// hyperparameters, MetaTune runs a short portfolio of trials whose
// population size, mutation-operator mix, elite fraction, and crossover
// rate differ, all drawing on one shared evaluation memo and one global
// evaluation budget. Each trial seeds its population with the best
// survivors of the trials before it, so later trials refine rather than
// restart; memoized genomes cost nothing, so re-treading explored ground
// is free. The budget is a hard cap — the meta-loop converges in strictly
// bounded evaluations regardless of how the trials behave.

// MetaOptions configures MetaTune. The embedded Options describe the
// baseline trial; Seed, Space, Eval, objective, and Parallel apply to all
// trials.
type MetaOptions struct {
	Options

	// Trials is the length of the hyperparameter portfolio cycle
	// (default 3). The meta-loop keeps cycling trials — each seeded with
	// the best survivors so far — until the evaluation budget is spent,
	// up to 3×Trials trials.
	Trials int
	// Budget caps total EvalFunc invocations across all trials. 0 selects
	// the self-tuned default: 4/5 of what a single-run GA would request,
	// FlatCost(Population, Generations), floored so the first trial can
	// always seed a population.
	Budget int
}

// MetaStats extends Stats with meta-loop accounting.
type MetaStats struct {
	Stats
	// Trials is the number of hyperparameter trials actually run.
	Trials int
	// Budget is the resolved evaluation cap.
	Budget int
}

// metaSpec is one hyperparameter trial of the portfolio.
type metaSpec struct {
	pop, elites, immigrants, stall int
	crossover                      float64
	weights                        choice.MutationWeights
}

// metaSpecs derives the trial portfolio from the baseline options. Trial 0
// is the baseline with early stopping; trial 1 exploits (smaller
// population, perturb-heavy mutation, more crossover); trial 2 explores
// structure (selector-heavy mutation, more immigrants). Further trials
// cycle the portfolio; distinct per-trial seeds keep them from retracing.
func metaSpecs(base Options, n int) []metaSpec {
	cycle := []metaSpec{
		{
			pop: base.Population, elites: base.Elites,
			immigrants: base.Immigrants, stall: 3,
			crossover: base.CrossoverRate, weights: base.Weights,
		},
		{
			pop: maxInt(4, base.Population*2/3), elites: maxInt(1, base.Elites/2),
			immigrants: 2, stall: 2, crossover: 0.25,
			weights: choice.MutationWeights{
				PerturbTunable: 1, ResetTunable: 1,
				MutateCutoff: 3, MutateChoice: 4,
				InsertLevel: 2, DeleteLevel: 1,
			},
		},
		{
			pop: maxInt(4, base.Population/2), elites: 1,
			immigrants: NoImmigrants, stall: 2, crossover: 0.6,
			weights: choice.MutationWeights{
				PerturbTunable: 6, ResetTunable: 1,
				MutateCutoff: 3, MutateChoice: 2,
				InsertLevel: 1, DeleteLevel: 1,
			},
		},
	}
	specs := make([]metaSpec, n)
	for i := range specs {
		specs[i] = cycle[i%len(cycle)]
	}
	return specs
}

// MetaTune runs the self-tuning portfolio and returns the best
// configuration across all trials plus aggregated statistics. Results are
// deterministic per Options.Seed.
func MetaTune(mo MetaOptions) (*choice.Config, MetaStats) {
	base := mo.Options
	base.setDefaults()
	if mo.Trials <= 0 {
		mo.Trials = 3
	}
	if mo.Budget <= 0 {
		mo.Budget = FlatCost(base.Population, base.Generations) * 4 / 5
	}
	if mo.Budget < base.Population {
		mo.Budget = base.Population
	}

	memo := newRunMemo()
	specs := metaSpecs(base, mo.Trials)
	var agg Stats
	var bestInd individual
	haveBest := false
	var carry []*choice.Config
	trialsRun := 0
	// Cycle the portfolio until the budget is spent: early-stalled trials
	// leave budget for further restarts, so the cap is always used. Each
	// restart reseeds from the incumbent survivors; memoized ground is
	// free to re-tread. The trial cap is a backstop for saturated memos
	// (no new genomes left to evaluate).
	for t := 0; t < 3*mo.Trials; t++ {
		if t > 0 && memo.evals >= mo.Budget {
			break // budget spent; later trials could only replay the memo
		}
		spec := specs[t%len(specs)]
		o := base
		o.Population = spec.pop
		o.Elites = spec.elites
		o.Immigrants = spec.immigrants
		o.CrossoverRate = spec.crossover
		o.Weights = spec.weights
		if o.Stall <= 0 {
			o.Stall = spec.stall
		}
		// Slice the budget across the portfolio cycle so every trial's
		// hyperparameters get a turn: an uncapped first trial would spend
		// the whole budget before the explore/exploit specs ever run.
		slice := maxInt(spec.pop, mo.Budget/mo.Trials)
		o.MaxEvaluations = minInt(mo.Budget, memo.evals+slice)
		// Golden-ratio seed mixing: deterministic, distinct per trial.
		o.Seed = base.Seed + 0x9e3779b97f4a7c15*uint64(t)
		o.memo = memo
		o.seedPop = carry
		pop, st := tune(o)
		trialsRun++
		agg.Evaluations += st.Evaluations
		agg.CacheHits += st.CacheHits
		agg.DeadGeneCollapses += st.DeadGeneCollapses
		agg.Generations += st.Generations
		if len(pop) > 0 {
			if !haveBest || better(pop[0], bestInd, base.RequireAccuracy, base.AccuracyTarget) {
				bestInd = pop[0]
				haveBest = true
			}
			// Carry the trial's best survivors into the next trial's seed
			// population (the incumbent first, so it can never be lost).
			carry = carry[:0]
			carry = append(carry, bestInd.cfg)
			for i := 0; i < len(pop) && len(carry) < 4; i++ {
				if pop[i].cfg != bestInd.cfg {
					carry = append(carry, pop[i].cfg)
				}
			}
		}
	}

	agg.BestTime = bestInd.res.Time
	agg.BestAcc = bestInd.res.Accuracy
	agg.Feasible = !base.RequireAccuracy || bestInd.res.Accuracy >= base.AccuracyTarget
	cfg := bestInd.cfg
	if base.Space.HasDependencies() {
		cfg = base.Space.Canonicalize(cfg)
	}
	return cfg, MetaStats{Stats: agg, Trials: trialsRun, Budget: mo.Budget}
}

// FlatCost returns the number of evaluations a single-run GA (Tune) with
// the given population and generations would request, Population +
// Generations×(Population−Elites) with defaults applied: the unit that
// budgets and budget fractions are expressed in.
func FlatCost(population, generations int) int {
	o := Options{Population: population, Generations: generations}
	o.setDefaults()
	return o.Population + o.Generations*(o.Population-o.Elites)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
