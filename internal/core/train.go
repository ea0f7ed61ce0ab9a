package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"inputtune/internal/autotuner"
	"inputtune/internal/choice"
	"inputtune/internal/cost"
	"inputtune/internal/engine"
	"inputtune/internal/feature"
	"inputtune/internal/ml/kmeans"
	"inputtune/internal/rng"
	"inputtune/internal/stats"
)

// Options configures two-level training. Zero values select defaults that
// keep the scaled-down pipeline fast; raise K1 and the tuner budget toward
// the paper's scale (K1 = 100) with the cmd flags.
type Options struct {
	// K1 is the number of input clusters and landmark configurations
	// (default 16; the paper uses 100 and shows diminishing returns past
	// ~10-30 in Figure 8).
	K1 int
	// Seed makes the whole pipeline deterministic.
	Seed uint64
	// Lambda weighs the accuracy penalty in the cost matrix (default 0.5,
	// the paper's chosen value).
	Lambda float64
	// H2 is the satisfaction threshold: the fraction of inputs whose
	// accuracy must meet H1 (default 0.95).
	H2 float64
	// TunerPopulation and TunerGenerations set the per-landmark
	// evolutionary search budget (defaults 20 and 16).
	TunerPopulation  int
	TunerGenerations int
	// TunerBudget caps actual tuner evaluations per landmark; 0 selects
	// the meta-tuner's self-tuned default (4/5 of autotuner.FlatCost, a
	// single-run GA's request). The drift controller lowers this for
	// cheap continuous retraining.
	TunerBudget int
	// TunerMetaTrials sets the self-tuning meta-loop's portfolio size
	// (0 = default 3).
	TunerMetaTrials int
	// TuneSamples is the number of cluster members each landmark is tuned
	// against (default 5): the tuner minimises the geometric-mean time and must
	// meet the accuracy threshold on EVERY sample. This mirrors
	// PetaBricks' statistical accuracy guarantee ("meet the accuracy
	// target with a given level of confidence") and keeps landmarks from
	// sitting exactly on the accuracy boundary of a single input.
	TuneSamples int
	// MaxTreeDepth bounds the subset decision trees (default 6).
	MaxTreeDepth int
	// ValidationFraction of training inputs held out for production-
	// classifier selection (default 0.3).
	ValidationFraction float64
	// Parallel enables concurrent landmark tuning, measurement, and
	// classifier-zoo training, all on the shared engine worker pool.
	Parallel bool
	// DisableCache turns off the shared measurement cache — the escape
	// hatch for A/B runs. Program.Run is deterministic, so the trained
	// model is bit-identical with the cache on or off; only speed differs.
	DisableCache bool
	// CacheCapacity bounds the measurement cache (entries; default
	// engine.DefaultCacheCapacity).
	CacheCapacity int
	// RandomLandmarks replaces the K-means-medoid tuning inputs with
	// uniformly random training inputs — the inferior alternative the paper
	// quantifies in Section 3.1 (~41% worse at 5 configurations). Used by
	// the E7 ablation.
	RandomLandmarks bool
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// fringeWeight is the relative weight of non-medoid cluster samples in a
// landmark tuner's time objective (the medoid weighs 1). Low enough that
// landmarks specialise to their cluster core, high enough that a
// configuration pathological on the fringe still loses.
const fringeWeight = 0.25

func (o *Options) setDefaults() {
	if o.K1 <= 0 {
		o.K1 = 16
	}
	if o.Lambda == 0 {
		o.Lambda = 0.5
	}
	if o.H2 == 0 {
		o.H2 = 0.95
	}
	if o.TunerPopulation <= 0 {
		o.TunerPopulation = 20
	}
	if o.TunerGenerations <= 0 {
		o.TunerGenerations = 16
	}
	if o.MaxTreeDepth <= 0 {
		o.MaxTreeDepth = 6
	}
	if o.TuneSamples <= 0 {
		o.TuneSamples = 5
	}
	if o.ValidationFraction <= 0 || o.ValidationFraction >= 1 {
		o.ValidationFraction = 0.3
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// PhaseTime is the wall-clock cost of one named training phase.
type PhaseTime struct {
	Name    string
	Seconds float64
}

// PhaseTimes is the ordered per-phase breakdown of a training run:
//
//   - "features" — feature extraction, z-score scaling and Level-1
//     clustering;
//   - "tune" — landmark autotuning;
//   - "measure" — the landmark × input measurement pass;
//   - "classifiers" — all of Level 2: relabeling, cost-matrix builds,
//     classifier-zoo training and production selection.
type PhaseTimes []PhaseTime

// Get returns the seconds recorded for name, or 0 if the phase is absent.
func (p PhaseTimes) Get(name string) float64 {
	for _, ph := range p {
		if ph.Name == name {
			return ph.Seconds
		}
	}
	return 0
}

// phaseClock accumulates PhaseTimes as training advances; each Mark closes
// the phase that began at the previous Mark (or at Start).
type phaseClock struct {
	phases PhaseTimes
	last   time.Time
}

func startPhaseClock() *phaseClock { return &phaseClock{last: time.Now()} }

func (c *phaseClock) Mark(name string) {
	now := time.Now()
	c.phases = append(c.phases, PhaseTime{Name: name, Seconds: now.Sub(c.last).Seconds()})
	c.last = now
}

// Report summarises a training run for EXPERIMENTS.md and the verbose CLI.
type Report struct {
	Benchmark        string
	NumInputs        int
	K1               int
	SpaceSize        string
	TunerEvaluations int
	// TunerCacheHits counts genome evaluations the tuners answered from
	// their in-run memo instead of running the program.
	TunerCacheHits int
	// DeadGeneCollapses counts structurally new genomes the tuners
	// collapsed onto an already-evaluated canonical representative via the
	// choice space's dependency graph — evaluations saved before they were
	// paid. Zero for spaces without dependencies.
	DeadGeneCollapses int
	// MetaTunerTrials sums the hyperparameter trials the self-tuning
	// meta-loop ran across landmarks.
	MetaTunerTrials int
	// Engine snapshots the shared measurement cache at the end of
	// training. Excluded from model serialisation so that SaveModel output
	// is byte-identical with the cache on or off.
	Engine engine.CacheStats `json:"-"`
	// Phases is the wall-clock breakdown of training. Excluded from model
	// serialisation (wall-clock is nondeterministic; SaveModel must stay
	// byte-identical per seed).
	Phases PhaseTimes `json:"-"`
	// ZooTrees is the number of distinct decision trees actually trained
	// for the subset-tree zoo; ZooDedupHits counts zoo members that shared
	// a tree with an identical (subset, cost matrix) job instead of
	// training their own. Excluded from model serialisation: they describe
	// how the zoo was trained, not what was learned, and the reference
	// trainer path legitimately reports different values for an otherwise
	// identical model.
	ZooTrees     int `json:"-"`
	ZooDedupHits int `json:"-"`
	// RelabelFraction is the share of inputs whose Level-2 label differs
	// from their Level-1 cluster — the paper reports 73.4% for Kmeans.
	RelabelFraction float64
	Production      string
	// SelectedFeatures names the features the production classifier may
	// extract.
	SelectedFeatures []string
	NumCandidates    int
}

// Model is a trained two-level input-adaptive program, ready to deploy.
type Model struct {
	Program    Program
	Landmarks  []*choice.Config
	Production *Candidate
	// Level-1 artifacts, kept for the one-level baseline and diagnostics.
	Clusters *kmeans.Result
	Scaler   *stats.ZScorer
	Train    *Dataset
	// Summary is the persisted training-distribution fingerprint the drift
	// detector compares live traffic against (nil on artifacts saved
	// before the summary section existed).
	Summary *Summary
	Report  Report
}

// TrainModel runs the full two-level pipeline of Section 3 on the training
// inputs and returns the deployable model.
func TrainModel(prog Program, inputs []Input, opts Options) *Model {
	opts.setDefaults()
	if len(inputs) < 2 {
		panic("core: need at least 2 training inputs")
	}
	set := prog.Features()
	space := prog.Space()
	logf := opts.Logf
	clock := startPhaseClock()

	// ---- Level 1 ----
	logf("[%s] level 1: extracting %d features on %d inputs", prog.Name(), set.NumFeatures(), len(inputs))
	F, E := ExtractFeatures(prog, inputs, opts.Parallel)
	scaler := stats.FitZScore(F)
	Fn := scaler.TransformAll(F)

	k1 := opts.K1
	if k1 > len(inputs) {
		k1 = len(inputs)
	}
	logf("[%s] level 1: clustering into K1=%d groups", prog.Name(), k1)
	km := kmeans.Cluster(Fn, kmeans.Options{K: k1, Seed: opts.Seed})
	k1 = len(km.Centroids)
	clock.Mark("features")

	// Variable-accuracy programs get one extra "safety" landmark tuned
	// against samples spread over the whole training set rather than one
	// cluster. Per-cluster landmarks are optimised to the accuracy edge of
	// their own cluster; with only K1 of them (the paper uses 100) the set
	// can lack any configuration that is feasible almost everywhere, and
	// then no dispatcher — not even the static oracle — can meet the
	// satisfaction threshold. The safety landmark restores that corner of
	// the landscape.
	nLandmarks := k1
	if prog.HasAccuracy() {
		nLandmarks++
	}
	logf("[%s] level 1: autotuning %d landmarks (space %s)", prog.Name(), nLandmarks, space.SizeDescription())
	// The measurement cache is shared by the per-landmark tuners and the
	// landmark measurement pass below: any (config, input) pair is run at
	// most once per training session.
	var cache *engine.Cache
	if !opts.DisableCache {
		cache = engine.NewCache(opts.CacheCapacity)
	}
	measure := func(key string, cfg *choice.Config, si int) engine.Measurement {
		return cache.Measure(engine.Key{Config: key, Input: si}, func() engine.Measurement {
			return measureInput(prog, cfg, inputs[si])
		})
	}
	// Measurement-cache keys are canonical under the space's dependency
	// graph, so dead-gene variants of one behaviour share entries across
	// landmark tuners and the measurement pass. The full→canonical mapping
	// is memoized (engine.KeyMemo) to avoid re-canonicalizing per lookup.
	keyMemo := engine.NewKeyMemo()
	canonKey := func(cfg *choice.Config) string {
		full := cfg.Key()
		if !space.HasDependencies() {
			return full
		}
		return keyMemo.Canonical(full, func() string { return space.LiveKey(cfg) })
	}
	landmarks := make([]*choice.Config, nLandmarks)
	tunerEvals := 0
	tunerHits := 0
	tunerCollapses := 0
	metaTrials := 0
	evalsCh := make([]int, nLandmarks)
	hitsCh := make([]int, nLandmarks)
	collapsesCh := make([]int, nLandmarks)
	trialsCh := make([]int, nLandmarks)
	pickRand := rng.New(opts.Seed + 99)
	randPicks := make([][]int, k1)
	for c := range randPicks {
		for s := 0; s < opts.TuneSamples; s++ {
			randPicks[c] = append(randPicks[c], pickRand.Intn(len(inputs)))
		}
	}
	forEach(nLandmarks, opts.Parallel, func(c int) {
		var samples []int
		target := prog.AccuracyThreshold()
		if c == k1 {
			// Safety landmark: samples spread over the whole training set,
			// and an 8% margin on the accuracy target so the resulting
			// configuration is feasible well beyond the sampled inputs.
			// When the margin is unreachable the tuner's infeasible path
			// maximises accuracy instead — also exactly what a safety
			// configuration should do.
			want := 4 * opts.TuneSamples
			if want > len(inputs) {
				want = len(inputs)
			}
			for s := 0; s < want; s++ {
				samples = append(samples, s*(len(inputs)-1)/maxInt(want-1, 1))
			}
			target += 0.08 * math.Abs(target)
		} else {
			samples = clusterSamples(km, Fn, c, opts.TuneSamples)
			if opts.RandomLandmarks {
				samples = randPicks[c]
			}
		}
		if len(samples) == 0 {
			samples = []int{int(opts.Seed+uint64(c)) % len(inputs)}
		}
		// Per-sample weights for the time objective. Cluster landmarks
		// down-weight the fringe samples
		// relative to the medoid (sample 0 — clusterSamples sorts
		// medoid-first): the landmark should be the specialist for its
		// cluster core, not a generalist across the fringe, or the landmark
		// set collapses toward one configuration and input adaptation has
		// nothing to choose between. The safety landmark (c == k1) keeps
		// equal weights; the accuracy guard stays the minimum over ALL
		// samples either way.
		wts := make([]float64, len(samples))
		wsum := 0.0
		for i := range wts {
			wts[i] = 1
			if i > 0 && c != k1 {
				wts[i] = fringeWeight
			}
			wsum += wts[i]
		}
		topts := autotuner.Options{
			Space: space,
			// Tuning objective over the cluster sample set: weighted
			// geometric-mean time (scale-free across sample sizes) under
			// the WORST sample accuracy, so feasible landmarks carry an
			// accuracy margin across their cluster, not just at its
			// centroid.
			Eval: func(cfg *choice.Config) autotuner.Result {
				key := canonKey(cfg)
				sumLog := 0.0
				minAcc := math.Inf(1)
				for i, si := range samples {
					res := measure(key, cfg, si)
					sumLog += wts[i] * math.Log(res.Time+1)
					if res.Accuracy < minAcc {
						minAcc = res.Accuracy
					}
				}
				return autotuner.Result{
					Time:     math.Exp(sumLog / wsum),
					Accuracy: minAcc,
				}
			},
			RequireAccuracy: prog.HasAccuracy(),
			AccuracyTarget:  target,
			Population:      opts.TunerPopulation,
			Generations:     opts.TunerGenerations,
			Seed:            opts.Seed*1000003 + uint64(c),
			Parallel:        opts.Parallel,
		}
		cfg, mst := autotuner.MetaTune(autotuner.MetaOptions{
			Options: topts,
			Trials:  opts.TunerMetaTrials,
			Budget:  opts.TunerBudget,
		})
		landmarks[c] = cfg
		evalsCh[c] = mst.Evaluations
		hitsCh[c] = mst.CacheHits
		collapsesCh[c] = mst.DeadGeneCollapses
		trialsCh[c] = mst.Trials
	})
	for c := range evalsCh {
		tunerEvals += evalsCh[c]
		tunerHits += hitsCh[c]
		tunerCollapses += collapsesCh[c]
		metaTrials += trialsCh[c]
	}
	clock.Mark("tune")

	logf("[%s] level 1: measuring %d landmarks x %d inputs", prog.Name(), nLandmarks, len(inputs))
	T, A := MeasureLandmarksCached(prog, inputs, landmarks, cache, opts.Parallel)
	clock.Mark("measure")

	if cs := cache.Stats(); cs.Hits+cs.Misses > 0 {
		logf("[%s] engine: measurement cache %.1f%% hit rate (%d hits, %d misses, %d evictions)",
			prog.Name(), 100*cs.HitRate(), cs.Hits, cs.Misses, cs.Evictions)
	}

	// ---- Level 2 ----
	labels, bestTime := Relabel(prog, T, A)
	d := &Dataset{F: F, E: E, T: T, A: A, Labels: labels, BestTime: bestTime}
	relabeled := 0
	for i := range labels {
		if labels[i] != km.Labels[i] {
			relabeled++
		}
	}
	relabelFrac := float64(relabeled) / float64(len(labels))
	logf("[%s] level 2: %.1f%% of inputs changed cluster under relabelling", prog.Name(), 100*relabelFrac)

	// The paper selects λ by trying values and keeping the best performer;
	// we build the subset-tree zoo at three λ settings (λ, 4λ, 16λ) and let
	// the production-selection objective choose among the union. Larger λ
	// yields more conservative trees, which matters when accuracy
	// feasibility is brittle.
	lambdas := []float64{opts.Lambda, 4 * opts.Lambda, 16 * opts.Lambda}
	if !prog.HasAccuracy() {
		lambdas = lambdas[:1] // λ only affects the accuracy penalty
	}
	cmatrices := make([][][]float64, len(lambdas))
	forEach(len(lambdas), opts.Parallel, func(li int) {
		cmatrices[li] = CostMatrix(prog, d, lambdas[li])
	})

	// Split into classifier-train and validation rows.
	r := rng.New(opts.Seed + 17)
	perm := r.Perm(len(inputs))
	nValid := int(opts.ValidationFraction * float64(len(inputs)))
	if nValid < 1 {
		nValid = 1
	}
	validIdx := perm[:nValid]
	trainIdx := perm[nValid:]
	trX := make([][]float64, len(trainIdx))
	trY := make([]int, len(trainIdx))
	for i, t := range trainIdx {
		trX[i] = F[t]
		trY[i] = labels[t]
	}

	// Candidate zoo: max-a-priori, the training static oracle as a trivial
	// classifier (so production can never lose to the best single
	// configuration), plus one tree per non-empty feature subset
	// ((z+1)^u - 1 trees; the all-features tree is the last subset).
	u, z := set.NumProperties(), set.LevelsPerProperty()
	logf("[%s] level 2: training classifier zoo over %d feature subsets", prog.Name(), pow(z+1, u)-1)
	soIdx := StaticOracleIndex(prog, d, perm, opts.H2)
	cands := []*Candidate{
		NewMaxAPriori(trY, nLandmarks),
		NewFixed(fmt.Sprintf("static-oracle[%d]", soIdx), soIdx),
	}
	// The (z+1)^u - 1 subset trees × |λ| settings all train on one shared
	// presorted-feature backbone (BuildTreeZoo): rows are sorted per
	// feature once, duplicate (subset, cost matrix) jobs share a tree, and
	// the distinct jobs run on the worker pool, each writing its slot so
	// the zoo order (and therefore production selection) is deterministic.
	var specs []TreeSpec
	for li := range lambdas {
		suffix := ""
		if li > 0 {
			suffix = fmt.Sprintf("@λx%d", pow(4, li))
		}
		for _, ss := range feature.EnumerateSubsets(u, z) {
			if ss.Empty() {
				continue
			}
			specs = append(specs, TreeSpec{
				Name:       fmt.Sprintf("tree%s%s", set.Describe(ss), suffix),
				Subset:     ss.Indices(z),
				CostMatrix: cmatrices[li],
			})
		}
	}
	trees, zooTrees, zooDedup := BuildTreeZoo(trX, trY, specs, nLandmarks, opts.MaxTreeDepth, opts.Parallel)
	if zooDedup > 0 {
		logf("[%s] level 2: zoo deduplicated %d of %d tree jobs", prog.Name(), zooDedup, len(specs))
	}
	cands = append(cands, trees...)

	// Find the best tree so far to seed the incremental classifier's
	// feature pool (the paper applies it "after the previous method has
	// found the best subset").
	bestTreeIdx, _ := SelectProduction(prog, d, validIdx, cands, opts.H2)
	if pool := cands[bestTreeIdx].Static; len(pool) > 0 {
		meanCost := make([]float64, set.NumFeatures())
		for _, i := range trainIdx {
			for f, c := range E[i] {
				meanCost[f] += c
			}
		}
		for f := range meanCost {
			meanCost[f] /= float64(len(trainIdx))
		}
		inc := NewIncremental(trX, trY, nLandmarks, pool, meanCost, func(c *Candidate) float64 {
			s := ScoreCandidate(prog, d, trainIdx, c, opts.H2)
			if !s.Valid {
				return s.MeanCost * 1e6
			}
			return s.MeanCost
		})
		cands = append(cands, inc)
	}

	best, scores := SelectProduction(prog, d, validIdx, cands, opts.H2)
	prod := cands[best]
	clock.Mark("classifiers")
	logf("[%s] level 2: production classifier = %s (cost %.3g, satisfaction %.1f%%)",
		prog.Name(), prod.Name, scores[best].MeanCost, 100*scores[best].Satisfaction)

	var selected []string
	for _, f := range prod.Static {
		selected = append(selected, set.FeatureName(f))
	}

	// The drift summary's assignment weights use the production
	// classifier's observable feature subset (nil = all features when the
	// production extracts none), so the serving-side detector compares
	// like with like. Pure arithmetic over already-computed rows: no RNG,
	// so adding the summary leaves every trained artifact's landmarks,
	// classifier and report bit-identical.
	var summaryDims []int
	if len(prod.Static) > 0 {
		summaryDims = prod.Static
	}

	return &Model{
		Program:    prog,
		Landmarks:  landmarks,
		Production: prod,
		Clusters:   km,
		Scaler:     scaler,
		Train:      d,
		Summary:    SummarizeTraining(km.Centroids, Fn, summaryDims),
		Report: Report{
			Benchmark:         prog.Name(),
			NumInputs:         len(inputs),
			K1:                k1,
			SpaceSize:         space.SizeDescription(),
			TunerEvaluations:  tunerEvals,
			TunerCacheHits:    tunerHits,
			DeadGeneCollapses: tunerCollapses,
			MetaTunerTrials:   metaTrials,
			Engine:            cache.Stats(),
			Phases:            clock.phases,
			ZooTrees:          zooTrees,
			ZooDedupHits:      zooDedup,
			RelabelFraction:   relabelFrac,
			Production:        prod.Name,
			SelectedFeatures:  selected,
			NumCandidates:     len(cands),
		},
	}
}

// Retrain runs the full two-level pipeline again on a fresh input set —
// the entry point the online drift loop uses with its retained reservoir.
// It is deliberately nothing more than TrainModel on the same Program:
// given identical inputs, options and seed, the retrained artifact is
// byte-identical to an offline TrainModel+SaveModel run (the differential
// the drift tests enforce), so online retraining never forks the training
// semantics.
func (m *Model) Retrain(inputs []Input, opts Options) *Model {
	return TrainModel(m.Program, inputs, opts)
}

// Classify selects the landmark for a fresh input, charging feature-
// extraction cost to meter (which may be nil).
func (m *Model) Classify(in Input, meter *cost.Meter) int {
	return m.Production.ClassifyInput(m.Program.Features(), in, meter)
}

// Run deploys the model on a fresh input: classify (charging extraction
// cost), then execute the selected landmark configuration. It returns the
// landmark used and the achieved accuracy.
func (m *Model) Run(in Input, meter *cost.Meter) (landmark int, accuracy float64) {
	landmark = m.Classify(in, meter)
	accuracy = m.Program.Run(m.Landmarks[landmark], in, meter)
	return landmark, accuracy
}

func pow(base, exp int) int {
	out := 1
	for i := 0; i < exp; i++ {
		out *= base
	}
	return out
}

// clusterSamples returns up to want member indices of cluster c spread
// from the centroid outward: the medoid first, then members at increasing
// distance, so the tuner sees both the cluster core and its fringe.
func clusterSamples(km *kmeans.Result, points [][]float64, c, want int) []int {
	type member struct {
		idx int
		d   float64
	}
	var members []member
	for i, l := range km.Labels {
		if l == c {
			members = append(members, member{i, stats.SquaredEuclidean(points[i], km.Centroids[c])})
		}
	}
	if len(members) == 0 {
		return nil
	}
	sort.Slice(members, func(a, b int) bool { return members[a].d < members[b].d })
	if want > len(members) {
		want = len(members)
	}
	out := make([]int, 0, want)
	if want == 1 {
		return []int{members[0].idx}
	}
	// Even spread over the sorted-by-distance list, always including the
	// medoid (first) and the fringe (last).
	for s := 0; s < want; s++ {
		pos := s * (len(members) - 1) / (want - 1)
		out = append(out, members[pos].idx)
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
