package exp

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"

	"inputtune/internal/engine"
)

// BenchResult is one benchmark program's end-to-end pipeline cost, the
// unit of the repo's performance trajectory (BENCH_1.json). Speedups are
// quality headlines carried along so a perf regression that buys no
// quality is visible immediately.
type BenchResult struct {
	Benchmark    string  `json:"benchmark"`
	WallSeconds  float64 `json:"wall_seconds"`
	TrainSeconds float64 `json:"train_seconds"`
	EvalSeconds  float64 `json:"eval_seconds"`

	// TrainPhases breaks TrainSeconds down by pipeline phase (features /
	// tune / measure / classifiers), so a hot phase — e.g. classifier-zoo
	// training — is visible in the trajectory file, not just in aggregate
	// wall-clock. The slice preserves core.Report.Phases pipeline order,
	// so the JSON shape is deterministic run to run (a map would permute).
	TrainPhases []TrainPhase `json:"train_phases"`

	// ZooTrees is the number of distinct subset trees trained;
	// ZooDedupHits the zoo members served by an identical already-trained
	// job.
	ZooTrees     int `json:"zoo_trees"`
	ZooDedupHits int `json:"zoo_dedup_hits"`

	// TunerEvaluations counts actual program runs the evolutionary tuners
	// paid for; TunerCacheHits the genome evaluations answered by memo.
	TunerEvaluations int `json:"tuner_evaluations"`
	TunerCacheHits   int `json:"tuner_cache_hits"`
	// DeadGeneCollapses counts structurally new genomes the dependency-aware
	// tuner collapsed onto an already-evaluated canonical representative —
	// evaluations saved before they were paid. MetaTunerTrials sums the
	// self-tuning portfolio trials across landmarks.
	DeadGeneCollapses int `json:"dead_gene_collapses"`
	MetaTunerTrials   int `json:"meta_tuner_trials"`

	// Measurement-cache effectiveness over the training session.
	CacheHits      uint64  `json:"cache_hits"`
	CacheMisses    uint64  `json:"cache_misses"`
	CacheHitRate   float64 `json:"cache_hit_rate"`
	CacheEvictions uint64  `json:"cache_evictions"`

	// Sub-run solver-state memo effectiveness (engine.Memo), reported by
	// programs that resume solves from shared configuration prefixes —
	// currently the PDE benchmarks. Omitted for the others. Unlike every
	// count above, these may legitimately vary across schedules on
	// multi-core runs (whether a prefix is stored before a concurrent
	// solve looks for it is a race the results are immune to).
	SolverMemoHits   uint64 `json:"solver_memo_hits,omitempty"`
	SolverMemoMisses uint64 `json:"solver_memo_misses,omitempty"`

	TwoLevelSpeedup float64 `json:"two_level_speedup_x"`
	Satisfaction    float64 `json:"two_level_satisfaction"`
}

// TrainPhase is one named slice of the training wall-clock, in pipeline
// order.
type TrainPhase struct {
	Phase   string  `json:"phase"`
	Seconds float64 `json:"seconds"`
}

// PhaseSeconds returns the named phase's duration (0 when the phase did
// not run).
func (r BenchResult) PhaseSeconds(name string) float64 {
	for _, ph := range r.TrainPhases {
		if ph.Phase == name {
			return ph.Seconds
		}
	}
	return 0
}

// BenchReport is the BENCH_1.json document.
type BenchReport struct {
	Scale    string `json:"scale"`
	Seed     uint64 `json:"seed"`
	Parallel bool   `json:"parallel"`
	Workers  int    `json:"gomaxprocs"`
	// CacheDisabled marks A/B runs through the escape hatch, so a
	// -nocache report can never be mistaken for the real trajectory.
	CacheDisabled bool          `json:"cache_disabled"`
	Results       []BenchResult `json:"results"`
	// DirectSolver is the dense-vs-FFT direct solver microbenchmark and
	// FastDirect the PDE retraining arm with the opt-in fast-direct
	// alternative (see fastdirect.go). Both are populated whenever a PDE
	// case is among the bench's names; the sections are additive, so the
	// shared results stay comparable across trajectory snapshots.
	DirectSolver []DirectSolverRow `json:"direct_solver,omitempty"`
	FastDirect   []FastDirectCase  `json:"fast_direct,omitempty"`
	// Serve is the deployment-side half of the trajectory: throughput and
	// latency of the classification server under concurrent load, written
	// by `experiments serve-bench` (which merges into an existing bench
	// file). Omitted until that runs.
	Serve *ServeBenchReport `json:"serve,omitempty"`
	// Fleet is the multi-replica arm of the serving trajectory: scaling
	// and fault tolerance of the consistent-hash fleet under load with an
	// injected replica kill, written by `experiments cluster-bench`.
	Fleet *FleetBenchReport `json:"fleet,omitempty"`
	// Drift is the online-adaptivity arm: a mid-run input-distribution
	// shift with automatic detection, background retraining and
	// hot-reload, written by `experiments drift-bench`.
	Drift *DriftBenchReport `json:"drift,omitempty"`
}

// RunBench runs the named cases once each and collects the perf trajectory.
func RunBench(names []string, scaleName string, sc Scale, logf func(string, ...any)) BenchReport {
	rep := BenchReport{
		Scale:         scaleName,
		Seed:          sc.Seed,
		Parallel:      sc.Parallel,
		Workers:       runtime.GOMAXPROCS(0),
		CacheDisabled: sc.DisableCache,
	}
	for _, name := range names {
		c := BuildCase(name, sc)
		row := RunCase(c, sc, logf)
		// Cache stats span the whole pipeline, matching WallSeconds:
		// training cache plus test-set evaluation cache.
		cs := row.Report.Engine.Add(row.EvalEngine)
		// So does the solver memo: it lives on the Program, which serves
		// both training and test evaluation.
		var ms engine.MemoStats
		if mr, ok := c.Prog.(interface{ SolverMemoStats() engine.MemoStats }); ok {
			ms = mr.SolverMemoStats()
		}
		phases := make([]TrainPhase, 0, len(row.Report.Phases))
		for _, ph := range row.Report.Phases {
			phases = append(phases, TrainPhase{Phase: ph.Name, Seconds: ph.Seconds})
		}
		rep.Results = append(rep.Results, BenchResult{
			Benchmark:         name,
			WallSeconds:       row.TrainSeconds + row.EvalSeconds,
			TrainSeconds:      row.TrainSeconds,
			EvalSeconds:       row.EvalSeconds,
			TrainPhases:       phases,
			ZooTrees:          row.Report.ZooTrees,
			ZooDedupHits:      row.Report.ZooDedupHits,
			TunerEvaluations:  row.Report.TunerEvaluations,
			TunerCacheHits:    row.Report.TunerCacheHits,
			DeadGeneCollapses: row.Report.DeadGeneCollapses,
			MetaTunerTrials:   row.Report.MetaTunerTrials,
			CacheHits:         cs.Hits,
			CacheMisses:       cs.Misses,
			CacheHitRate:      cs.HitRate(),
			CacheEvictions:    cs.Evictions,
			SolverMemoHits:    ms.Hits,
			SolverMemoMisses:  ms.Misses,
			TwoLevelSpeedup:   row.TwoLevelFX,
			Satisfaction:      row.TwoLevelAccuracy,
		})
	}
	hasPDE := false
	for _, name := range names {
		if name == "poisson2d" || name == "helmholtz3d" {
			hasPDE = true
		}
	}
	if hasPDE {
		rep.DirectSolver = RunDirectSolverBench(sc)
		rep.FastDirect = RunFastDirectArm(names, sc, logf)
	}
	return rep
}

// BenchJSON renders the report as indented JSON.
func (r BenchReport) BenchJSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// RenderBench formats the report as a human-readable table.
func RenderBench(r BenchReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %9s %9s %10s %10s %9s %7s %9s %9s %9s\n",
		"Benchmark", "wall(s)", "train(s)", "tunerEval", "memoHits", "collapse", "trials", "solvMemo", "cacheHit%", "speedup")
	fmt.Fprintln(&b, strings.Repeat("-", 102))
	for _, res := range r.Results {
		solv := "-"
		if res.SolverMemoHits+res.SolverMemoMisses > 0 {
			solv = fmt.Sprintf("%d", res.SolverMemoHits)
		}
		fmt.Fprintf(&b, "%-12s %9.3f %9.3f %10d %10d %9d %7d %9s %8.1f%% %8.2fx\n",
			res.Benchmark, res.WallSeconds, res.TrainSeconds,
			res.TunerEvaluations, res.TunerCacheHits, res.DeadGeneCollapses, res.MetaTunerTrials,
			solv, 100*res.CacheHitRate, res.TwoLevelSpeedup)
	}
	if len(r.DirectSolver) > 0 {
		b.WriteString("\ndirect-solver microbench (dense vs FFT sine transform):\n")
		b.WriteString(RenderDirectSolver(r.DirectSolver))
	}
	if len(r.FastDirect) > 0 {
		b.WriteString("\nfast-direct retraining arm (opt-in sixth solver alternative):\n")
		b.WriteString(RenderFastDirect(r.FastDirect))
	}
	return b.String()
}
