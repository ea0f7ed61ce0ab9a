package exp

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"inputtune/internal/core"
	"inputtune/internal/engine"
)

// h2 is the satisfaction threshold used throughout the evaluation.
const h2 = 0.95

// Table1Row is one row of the paper's Table 1: mean speedups over the
// static oracle, plus the satisfaction rates the rightmost column reports.
type Table1Row struct {
	Name string

	DynamicOracle float64 // speedup, no feature cost
	TwoLevelNoFX  float64 // speedup ignoring feature-extraction time
	TwoLevelFX    float64 // speedup including feature-extraction time
	OneLevelNoFX  float64
	OneLevelFX    float64

	TwoLevelAccuracy float64 // fraction of test inputs meeting H1
	OneLevelAccuracy float64
	StaticAccuracy   float64

	// StaticMeanTime is the baseline mean execution time (virtual units).
	StaticMeanTime float64
	// StaticPerInput holds the static oracle's per-test-input execution
	// times (the Figure 6 and Figure 8 baselines).
	StaticPerInput []float64

	// PerInputSpeedups are static-exec / two-level-total per test input
	// (Figure 6).
	PerInputSpeedups []float64

	// Report carries the training diagnostics (E6).
	Report core.Report

	// TrainSeconds and EvalSeconds are the wall-clock cost of training and
	// of test-set evaluation — the perf trajectory the bench runner tracks.
	TrainSeconds float64
	EvalSeconds  float64
	// EvalEngine is the test-set measurement cache snapshot (training-side
	// stats live in Report.Engine).
	EvalEngine engine.CacheStats

	// Model and TestData are kept for the Figure 8 sweep.
	Model    *core.Model
	TestData *core.Dataset
}

// RunCase trains the two-level model on the case's training inputs and
// evaluates all four methods on the held-out test inputs.
func RunCase(c Case, sc Scale, logf func(string, ...any)) *Table1Row {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	trainStart := time.Now()
	budget, trials := resolveTuner(c.Name, sc)
	model := core.TrainModel(c.Prog, c.Train, core.Options{
		K1:               sc.K1,
		Seed:             sc.Seed,
		TunerPopulation:  sc.TunerPop,
		TunerGenerations: sc.TunerGens,
		TunerBudget:      budget,
		TunerMetaTrials:  trials,
		H2:               h2,
		Parallel:         sc.Parallel,
		DisableCache:     sc.DisableCache,
		Logf:             logf,
	})
	trainSeconds := time.Since(trainStart).Seconds()
	evalStart := time.Now()
	evalCache := sc.measurementCache()
	testD := core.BuildDatasetCached(c.Prog, c.Test, model, evalCache, sc.Parallel)
	idx := core.AllRows(testD)

	so := core.StaticOracleIndex(c.Prog, model.Train, core.AllRows(model.Train), h2)
	static := core.EvalStatic(c.Prog, testD, idx, so)
	dyn := core.EvalDynamicOracle(c.Prog, testD, idx)
	two := core.EvalTwoLevel(model, testD, idx)
	one := core.EvalOneLevel(core.NewOneLevel(model), testD, idx)

	// Table 1 reports MEAN PER-INPUT speedup over the static oracle (the
	// quantity whose distribution Figure 6 plots), not the ratio of total
	// times: each input counts equally, so the large wins on cheap inputs
	// the paper highlights are not drowned out by expensive ones.
	row := &Table1Row{
		Name:             c.Name,
		DynamicOracle:    meanSpeedup(static.PerInputExec, dyn.PerInputExec),
		TwoLevelNoFX:     meanSpeedup(static.PerInputExec, two.PerInputExec),
		TwoLevelFX:       meanSpeedup(static.PerInputExec, two.PerInputTotal),
		OneLevelNoFX:     meanSpeedup(static.PerInputExec, one.PerInputExec),
		OneLevelFX:       meanSpeedup(static.PerInputExec, one.PerInputTotal),
		TwoLevelAccuracy: two.Satisfaction,
		OneLevelAccuracy: one.Satisfaction,
		StaticAccuracy:   static.Satisfaction,
		StaticMeanTime:   static.MeanExec,
		StaticPerInput:   static.PerInputExec,
		Report:           model.Report,
		TrainSeconds:     trainSeconds,
		EvalSeconds:      time.Since(evalStart).Seconds(),
		EvalEngine:       evalCache.Stats(),
		Model:            model,
		TestData:         testD,
	}
	row.PerInputSpeedups = make([]float64, len(idx))
	for j := range idx {
		row.PerInputSpeedups[j] = static.PerInputExec[j] / two.PerInputTotal[j]
	}
	return row
}

// meanSpeedup is the mean of per-input baseline/method time ratios.
func meanSpeedup(baseline, method []float64) float64 {
	sum := 0.0
	for i := range baseline {
		m := method[i]
		if m <= 0 {
			m = 1e-12
		}
		sum += baseline[i] / m
	}
	return sum / float64(len(baseline))
}

// RenderTable1 formats rows in the layout of the paper's Table 1.
func RenderTable1(rows []*Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s %12s %12s %12s %12s %10s\n",
		"Benchmark", "Dynamic", "TwoLvl", "TwoLvl", "OneLvl", "OneLvl", "OneLvl")
	fmt.Fprintf(&b, "%-12s %8s %12s %12s %12s %12s %10s\n",
		"", "Oracle", "(w/o fx)", "(w/ fx)", "(w/o fx)", "(w/ fx)", "accuracy")
	fmt.Fprintln(&b, strings.Repeat("-", 84))
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %7.2fx %11.2fx %11.2fx %11.2fx %11.2fx %9.1f%%\n",
			r.Name, r.DynamicOracle, r.TwoLevelNoFX, r.TwoLevelFX,
			r.OneLevelNoFX, r.OneLevelFX, 100*r.OneLevelAccuracy)
	}
	return b.String()
}

// Table1CSV renders rows as CSV for downstream plotting.
func Table1CSV(rows []*Table1Row) string {
	var b strings.Builder
	b.WriteString("benchmark,dynamic_oracle,two_level_no_fx,two_level_fx,one_level_no_fx,one_level_fx,one_level_accuracy,two_level_accuracy\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f\n",
			r.Name, r.DynamicOracle, r.TwoLevelNoFX, r.TwoLevelFX,
			r.OneLevelNoFX, r.OneLevelFX, r.OneLevelAccuracy, r.TwoLevelAccuracy)
	}
	return b.String()
}

// Fig6Series returns the per-input speedups sorted ascending, the layout
// of Figure 6.
func Fig6Series(r *Table1Row) []float64 {
	out := append([]float64(nil), r.PerInputSpeedups...)
	sort.Float64s(out)
	return out
}

// RenderFig6 summarises a case's per-input speedup distribution and draws
// an ASCII version of the sorted curve.
func RenderFig6(r *Table1Row) string {
	s := Fig6Series(r)
	var b strings.Builder
	fmt.Fprintf(&b, "figure 6 (%s): per-input speedup over static oracle, %d inputs\n", r.Name, len(s))
	q := func(f float64) float64 { return s[int(f*float64(len(s)-1))] }
	fmt.Fprintf(&b, "  min %.2fx  q1 %.2fx  median %.2fx  q3 %.2fx  max %.2fx\n",
		s[0], q(0.25), q(0.5), q(0.75), s[len(s)-1])
	b.WriteString(asciiCurve(s, 60, 10))
	return b.String()
}

// asciiCurve draws values (assumed ascending) as a crude monotone curve.
func asciiCurve(vals []float64, width, height int) string {
	if len(vals) == 0 {
		return ""
	}
	lo, hi := vals[0], vals[len(vals)-1]
	if hi <= lo {
		hi = lo + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for x := 0; x < width; x++ {
		v := vals[x*(len(vals)-1)/max(width-1, 1)]
		y := int(float64(height-1) * (v - lo) / (hi - lo))
		grid[height-1-y][x] = '*'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  %.2fx\n", hi)
	for _, row := range grid {
		b.WriteString("  |")
		b.Write(row)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "  %.2fx %s inputs (sorted) %s\n", lo, strings.Repeat("-", width/2-9), strings.Repeat("-", width/2-9))
	return b.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
