package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"inputtune/internal/autotuner"
	"inputtune/internal/choice"
	"inputtune/internal/core"
	"inputtune/internal/cost"
	"inputtune/internal/engine"
	"inputtune/internal/exp"
)

// h2 is the satisfaction threshold exp.RunCase trains and evaluates with.
const h2 = 0.95

// inputSeed derives the seed of input set i from the run's seed.
func inputSeed(seed uint64, i int) uint64 { return seed + uint64(i)*1_000_003 }

// caseScale is exp.QuickScale with its input (and training) seed replaced.
func caseScale(seed uint64) exp.Scale {
	sc := exp.QuickScale()
	sc.Seed = seed
	return sc
}

// trainOptions are the per-case options exp.RunCase trains with: the
// case's tuner profile, H2 and the parallel pool.
func trainOptions(name string, sc exp.Scale) core.Options {
	p := exp.Profile(name)
	budget := 0
	if p.BudgetFrac > 0 {
		budget = int(p.BudgetFrac*float64(autotuner.FlatCost(sc.TunerPop, sc.TunerGens)) + 0.5)
	}
	return core.Options{
		K1:               sc.K1,
		Seed:             sc.Seed,
		TunerPopulation:  sc.TunerPop,
		TunerGenerations: sc.TunerGens,
		TunerBudget:      budget,
		TunerMetaTrials:  p.MetaTrials,
		H2:               h2,
		Parallel:         sc.Parallel,
	}
}

// countingProgram decorates a benchmark program, counting and timing its
// Run calls: the evaluation layer (benchmarks/*, pde, linalg) as seen from
// the trainer. Results pass through untouched, so the trained model is the
// same as with the bare program (the determinism check compares them).
type countingProgram struct {
	core.Program
	calls atomic.Int64
	busy  atomic.Int64 // nanoseconds, summed over concurrent calls
}

func (p *countingProgram) Run(cfg *choice.Config, in core.Input, m *cost.Meter) float64 {
	t0 := time.Now()
	acc := p.Program.Run(cfg, in, m)
	p.busy.Add(int64(time.Since(t0)))
	p.calls.Add(1)
	return acc
}

// trainRep is one training repetition: every case trained once.
type trainRep struct {
	traced bool
	wall   float64 // seconds
	cpu    float64 // seconds of process CPU

	// Per-layer figures, filled on traced repetitions.
	phases      map[string]float64
	evalCalls   int64
	evalBusy    float64
	tunerEvals  int
	collapses   int
	zooTrees    int
	cache       engine.CacheStats
	memo        engine.MemoStats
	allocMB     float64
	gcCycles    uint32
	hasSolvMemo bool
}

// trainedCase is one case's training inputs and resulting model.
type trainedCase struct {
	c     exp.Case
	model *core.Model
}

// trainRepetition builds every case afresh (so engine caches and lazy
// per-problem state start cold, as in a user's run) and trains each once
// with exp.RunCase's options. Only the training calls are timed.
func trainRepetition(names []string, sc exp.Scale, traced bool) (trainRep, []trainedCase) {
	cases := make([]exp.Case, len(names))
	for i, name := range names {
		cases[i] = exp.BuildCase(name, sc)
	}
	progs := make([]core.Program, len(cases))
	counters := make([]*countingProgram, len(cases))
	for i, c := range cases {
		progs[i] = c.Prog
		if traced {
			counters[i] = &countingProgram{Program: c.Prog}
			progs[i] = counters[i]
		}
	}
	rep := trainRep{traced: traced}
	var m0, m1 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&m0)
	}
	cpu0, t0 := processCPU(), time.Now()
	out := make([]trainedCase, len(cases))
	for i, c := range cases {
		out[i] = trainedCase{c: c, model: core.TrainModel(progs[i], c.Train, trainOptions(c.Name, sc))}
	}
	rep.wall = time.Since(t0).Seconds()
	rep.cpu = (processCPU() - cpu0).Seconds()
	if !traced {
		return rep, out
	}
	runtime.ReadMemStats(&m1)
	rep.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	rep.gcCycles = m1.NumGC - m0.NumGC
	rep.phases = map[string]float64{}
	for i, tc := range out {
		r := tc.model.Report
		for _, ph := range r.Phases {
			rep.phases[ph.Name] += ph.Seconds
		}
		rep.evalCalls += counters[i].calls.Load()
		rep.evalBusy += time.Duration(counters[i].busy.Load()).Seconds()
		rep.tunerEvals += r.TunerEvaluations
		rep.collapses += r.DeadGeneCollapses
		rep.zooTrees += r.ZooTrees
		rep.cache = rep.cache.Add(r.Engine)
		// The solver memo lives on the bare program, which the harness
		// keeps; the decorator does not forward optional interfaces.
		if mr, ok := tc.c.Prog.(interface{ SolverMemoStats() engine.MemoStats }); ok {
			ms := mr.SolverMemoStats()
			rep.memo.Hits += ms.Hits
			rep.memo.Misses += ms.Misses
			rep.hasSolvMemo = true
		}
	}
	return rep, out
}

// quality evaluates a trained model on its case's held-out inputs the way
// exp.RunCase does, returning Table1Row.TwoLevelFX and TwoLevelAccuracy.
func quality(c exp.Case, m *core.Model) (speedup, accuracy float64) {
	testD := core.BuildDatasetCached(c.Prog, c.Test, m, engine.NewCache(0), true)
	idx := core.AllRows(testD)
	so := core.StaticOracleIndex(c.Prog, m.Train, core.AllRows(m.Train), h2)
	static := core.EvalStatic(c.Prog, testD, idx, so)
	two := core.EvalTwoLevel(m, testD, idx)
	sum := 0.0
	for j := range idx {
		t := two.PerInputTotal[j]
		if t <= 0 {
			t = 1e-12
		}
		sum += static.PerInputExec[j] / t
	}
	return sum / float64(len(idx)), two.Satisfaction
}

func saveModel(m *core.Model) ([]byte, error) {
	var buf bytes.Buffer
	err := core.SaveModel(m, &buf)
	return buf.Bytes(), err
}

// runTrain runs a workload's training half: timed repetitions over the
// run's input sets until the window closes, with each set's models
// evaluated on its held-out inputs after their first training. It returns
// the median input-generation set-up time and, for each input set, the
// SaveModel bytes of the served cases.
func runTrain(cfg config, o *outcome, window time.Duration) (setup float64, arts [][][]byte, err error) {
	wl := workloads[cfg.workload]
	names := wl.train
	sets := cfg.inputSets()

	// Set-up is input generation for every input set.
	var setups []float64
	for s := 0; s < cfg.setups; s++ {
		t0 := time.Now()
		for i := 0; i < sets; i++ {
			sc := caseScale(inputSeed(cfg.seed, i))
			for _, name := range names {
				exp.BuildCase(name, sc)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	// Untraced runs train a new input set per repetition, cycling once all
	// sets are done; traced runs train each set twice in a row, untraced
	// then traced, so the two are compared on the same inputs.
	minReps, setOf, tracedRep := sets, func(r int) int { return r % sets }, func(int) bool { return false }
	if cfg.trace {
		minReps = 2
		setOf = func(r int) int { return (r / 2) % sets }
		tracedRep = func(r int) bool { return r%2 == 1 }
	}
	first := make([][]byte, sets*len(names))
	// speedups and accs accumulate each case's quality over input sets;
	// a set is evaluated right after its first untraced training, with the
	// window's clock stopped, so no trained set has to stay in memory.
	speedups := make([]float64, len(names))
	accs := make([]float64, len(names))
	repeated := false
	check := func(set int, trained []trainedCase) (fresh bool) {
		for i, tc := range trained {
			k := set*len(names) + i
			art, err := saveModel(tc.model)
			var fail string
			switch {
			case err != nil:
				fail = fmt.Sprintf("%s set %d: SaveModel: %v", tc.c.Name, set, err)
			case first[k] == nil:
				first[k], fresh = art, true
			case !bytes.Equal(first[k], art):
				repeated = true
				fail = fmt.Sprintf("%s set %d: SaveModel bytes differ from the run's first repetition on these inputs", tc.c.Name, set)
			default:
				repeated = true
			}
			o.op("trainings", fail)
		}
		return fresh
	}
	var reps []trainRep
	start := time.Now()
	for r := 0; r < minReps || time.Since(start) < window; r++ {
		// Collect the previous repetition's garbage first, so each
		// repetition starts from the same heap.
		runtime.GC()
		rep, trained := trainRepetition(names, caseScale(inputSeed(cfg.seed, setOf(r))), tracedRep(r))
		reps = append(reps, rep)
		if check(setOf(r), trained) && !cfg.trace {
			t0 := time.Now()
			for i, tc := range trained {
				sp, acc := quality(tc.c, tc.model)
				speedups[i] += sp / float64(sets)
				accs[i] += acc / float64(sets)
			}
			start = start.Add(time.Since(t0))
		}
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return 0, nil, err
	}
	if !repeated {
		// The window never returned to an input set: retrain the first
		// case of the first one, untimed, for the determinism check.
		_, trained := trainRepetition(names[:1], caseScale(inputSeed(cfg.seed, 0)), false)
		check(0, trained)
	}
	// The serving half serves every input set's models; a traced window
	// may not have reached them all.
	for set := 0; set < sets; set++ {
		if first[set*len(names)+wl.served-1] == nil {
			_, trained := trainRepetition(names[:wl.served], caseScale(inputSeed(cfg.seed, set)), false)
			check(set, trained)
		}
		arts = append(arts, first[set*len(names):set*len(names)+wl.served])
	}

	var walls, cpus, tracedWalls []float64
	for _, rep := range reps {
		if rep.traced {
			tracedWalls = append(tracedWalls, rep.wall)
		} else {
			walls = append(walls, rep.wall)
			cpus = append(cpus, rep.cpu)
		}
	}
	o.note("%d timed training repetitions (%d untraced) over %d input sets, %d cases each; untraced walls %.3f s",
		len(reps), len(walls), sets, len(names), walls)

	if cfg.trace {
		reportTrainLayers(o, reps, median(walls), median(tracedWalls))
		return median(setups), arts, nil
	}

	for i, name := range names {
		o.note("%s: two-level speedup %.3fx, satisfaction %.3f (mean over %d input sets)", name, speedups[i], accs[i], sets)
	}
	minAcc := accs[0]
	for _, a := range accs {
		minAcc = min(minAcc, a)
	}
	o.metrics.add("train_s", "s", median(walls))
	o.metrics.add("train_cpu_s", "s", median(cpus))
	o.metrics.add("speedup_x", "x", geomean(speedups))
	o.metrics.add("satisfaction", "ratio", minAcc)
	o.metrics.add("peak_rss_mb", "MB", rss)
	return median(setups), arts, nil
}

// reportTrainLayers adds the training ledger: medians over the traced
// repetitions, plus the untraced/traced comparison of the same run.
func reportTrainLayers(o *outcome, reps []trainRep, wall, tracedWall float64) {
	med := func(f func(trainRep) float64) float64 {
		var xs []float64
		for _, r := range reps {
			if r.traced {
				xs = append(xs, f(r))
			}
		}
		return median(xs)
	}
	for _, ph := range []string{"features", "tune", "measure", "classifiers"} {
		o.metrics.add("phase."+ph+"_s", "s", med(func(r trainRep) float64 { return r.phases[ph] }))
	}
	o.metrics.add("eval.calls", "count", med(func(r trainRep) float64 { return float64(r.evalCalls) }))
	o.metrics.add("eval.busy_s", "s", med(func(r trainRep) float64 { return r.evalBusy }))
	o.metrics.add("eval.us_per_call", "us", med(func(r trainRep) float64 { return 1e6 * r.evalBusy / float64(r.evalCalls) }))
	o.metrics.add("tuner.evaluations", "count", med(func(r trainRep) float64 { return float64(r.tunerEvals) }))
	o.metrics.add("tuner.dead_gene_collapses", "count", med(func(r trainRep) float64 { return float64(r.collapses) }))
	o.metrics.add("engine.cache_hit_rate", "ratio", med(func(r trainRep) float64 { return r.cache.HitRate() }))
	hasMemo := false
	for _, r := range reps {
		hasMemo = hasMemo || r.traced && r.hasSolvMemo
	}
	if hasMemo {
		// Only the PDE programs keep a solver memo, so its hit rate is a
		// note rather than a metric every workload reports.
		o.note("solver memo hit rate %.3f (median over traced repetitions)", med(func(r trainRep) float64 { return r.memo.HitRate() }))
	}
	o.metrics.add("zoo.trees", "count", med(func(r trainRep) float64 { return float64(r.zooTrees) }))
	o.metrics.add("train.alloc_mb", "MB", med(func(r trainRep) float64 { return r.allocMB }))
	o.metrics.add("train.gc_cycles", "count", med(func(r trainRep) float64 { return float64(r.gcCycles) }))
	o.metrics.add("train.cpu_util", "ratio", med(func(r trainRep) float64 { return r.cpu / (r.wall * float64(runtime.NumCPU())) }))
	o.metrics.add("trace.overhead_pct", "%", 100*(tracedWall-wall)/wall)
}
