// Package bayes implements the paper's Incremental Feature Examination
// classifier (Section 3.2, classifier 4): each feature is discretised into
// decision regions, class-conditional region probabilities are estimated
// from training data, and at deployment features are acquired one at a time
// — cheapest first — until some class's posterior exceeds a threshold τ.
// This gives a variable, input-dependent feature-extraction cost.
package bayes

import (
	"fmt"
	"math"
	"sort"
)

// Options configures training.
type Options struct {
	NumClasses int // required
	// Regions is the number of decision regions per feature (default:
	// max(4, NumClasses), capped by the number of distinct values).
	Regions int
	// Threshold is the posterior τ above which classification stops
	// (default 0.85).
	Threshold float64
	// Order is the feature-acquisition order (indices into the feature
	// vector), typically cheapest extraction first. nil = natural order.
	Order []int
	// Laplace is the additive smoothing constant (default 1).
	Laplace float64
}

func (o *Options) setDefaults(numFeatures int) {
	if o.Regions <= 0 {
		o.Regions = o.NumClasses
		if o.Regions < 4 {
			o.Regions = 4
		}
	}
	if o.Threshold <= 0 || o.Threshold >= 1 {
		o.Threshold = 0.85
	}
	if o.Laplace <= 0 {
		o.Laplace = 1
	}
	if o.Order == nil {
		o.Order = make([]int, numFeatures)
		for i := range o.Order {
			o.Order[i] = i
		}
	}
}

// Classifier is a fitted incremental classifier.
type Classifier struct {
	opts Options
	// cuts[f] holds ascending region boundaries for feature f; a value v
	// falls in region r = #boundaries below v.
	cuts [][]float64
	// logCond[f][r][k] = log P(feature f in region r | class k).
	logCond  [][][]float64
	logPrior []float64
}

// Train fits the classifier on rows X with labels y.
func Train(X [][]float64, y []int, opts Options) *Classifier {
	if len(X) == 0 || len(X) != len(y) {
		panic("bayes: bad training data")
	}
	if opts.NumClasses <= 0 {
		panic("bayes: NumClasses required")
	}
	nf := len(X[0])
	opts.setDefaults(nf)
	c := &Classifier{opts: opts}

	// Priors with smoothing.
	counts := make([]float64, opts.NumClasses)
	for _, label := range y {
		counts[label]++
	}
	c.logPrior = make([]float64, opts.NumClasses)
	total := float64(len(y)) + opts.Laplace*float64(opts.NumClasses)
	for k := range c.logPrior {
		c.logPrior[k] = math.Log((counts[k] + opts.Laplace) / total)
	}

	// Decision regions per feature: quantile cuts over the training values.
	c.cuts = make([][]float64, nf)
	c.logCond = make([][][]float64, nf)
	col := make([]float64, len(X))
	for f := 0; f < nf; f++ {
		for i := range X {
			col[i] = X[i][f]
		}
		c.cuts[f] = quantileCuts(col, opts.Regions)
		nr := len(c.cuts[f]) + 1
		// Tally region × class.
		tally := make([][]float64, nr)
		for r := range tally {
			tally[r] = make([]float64, opts.NumClasses)
		}
		for i := range X {
			tally[c.region(f, X[i][f])][y[i]]++
		}
		c.logCond[f] = make([][]float64, nr)
		for r := 0; r < nr; r++ {
			c.logCond[f][r] = make([]float64, opts.NumClasses)
			for k := 0; k < opts.NumClasses; k++ {
				num := tally[r][k] + opts.Laplace
				den := counts[k] + opts.Laplace*float64(nr)
				c.logCond[f][r][k] = math.Log(num / den)
			}
		}
	}
	return c
}

// quantileCuts returns up to regions-1 distinct interior boundaries.
func quantileCuts(col []float64, regions int) []float64 {
	sorted := append([]float64(nil), col...)
	sort.Float64s(sorted)
	var cuts []float64
	for r := 1; r < regions; r++ {
		q := float64(r) / float64(regions)
		pos := q * float64(len(sorted)-1)
		v := sorted[int(pos)]
		if len(cuts) == 0 || v > cuts[len(cuts)-1] {
			cuts = append(cuts, v)
		}
	}
	return cuts
}

// region returns the decision region of value v for feature f.
func (c *Classifier) region(f int, v float64) int {
	cuts := c.cuts[f]
	// Linear scan: region counts are tiny (≤ ~10).
	for r, cut := range cuts {
		if v <= cut {
			return r
		}
	}
	return len(cuts)
}

// Classify acquires features through acquire (called lazily, in the
// configured order) until a class posterior exceeds the threshold or all
// features are used. It returns the predicted class and the indices of
// features actually acquired, in acquisition order.
func (c *Classifier) Classify(acquire func(feature int) float64) (class int, used []int) {
	logPost := append([]float64(nil), c.logPrior...)
	for _, f := range c.opts.Order {
		v := acquire(f)
		used = append(used, f)
		r := c.region(f, v)
		for k := range logPost {
			logPost[k] += c.logCond[f][r][k]
		}
		if k, p := posteriorMax(logPost); p > c.opts.Threshold {
			return k, used
		}
	}
	k, _ := posteriorMax(logPost)
	return k, used
}

// PredictFull classifies using the entire feature vector at once (no early
// stopping); used when features were already extracted.
func (c *Classifier) PredictFull(x []float64) int {
	logPost := append([]float64(nil), c.logPrior...)
	for _, f := range c.opts.Order {
		r := c.region(f, x[f])
		for k := range logPost {
			logPost[k] += c.logCond[f][r][k]
		}
	}
	k, _ := posteriorMax(logPost)
	return k
}

// Validate returns an error unless the classifier separates numClasses
// (at least one) classes and every feature it acquires lies in
// [0, numFeatures) with region cuts and one class-conditional row per
// region of numClasses entries: the classifiers Classify and
// PredictFull run without indexing out of range. LoadModel runs it on
// decoded classifiers, which carry whatever the artifact said.
func (c *Classifier) Validate(numClasses, numFeatures int) error {
	if numClasses < 1 || c.opts.NumClasses != numClasses || len(c.logPrior) != numClasses {
		return fmt.Errorf("bayes: %d classes with %d priors, want %d", c.opts.NumClasses, len(c.logPrior), numClasses)
	}
	for _, f := range c.opts.Order {
		if f < 0 || f >= numFeatures {
			return fmt.Errorf("bayes: feature %d out of range [0, %d)", f, numFeatures)
		}
		if f >= len(c.cuts) || f >= len(c.logCond) || len(c.logCond[f]) != len(c.cuts[f])+1 {
			return fmt.Errorf("bayes: feature %d lacks one probability row per region", f)
		}
		for _, row := range c.logCond[f] {
			if len(row) != numClasses {
				return fmt.Errorf("bayes: feature %d has a region over %d classes, want %d", f, len(row), numClasses)
			}
		}
	}
	return nil
}

// posteriorMax normalises log posteriors and returns the argmax class and
// its probability.
func posteriorMax(logPost []float64) (int, float64) {
	best, maxLog := 0, logPost[0]
	for k, lp := range logPost {
		if lp > maxLog {
			best, maxLog = k, lp
		}
	}
	sum := 0.0
	for _, lp := range logPost {
		sum += math.Exp(lp - maxLog)
	}
	return best, 1 / sum
}

// Threshold returns the posterior threshold in effect.
func (c *Classifier) Threshold() float64 { return c.opts.Threshold }

// Regions returns the configured region count.
func (c *Classifier) Regions() int { return c.opts.Regions }

// FitSearch trains classifiers over a small grid of region counts and
// posterior thresholds and returns the one minimising score (lower is
// better), along with its score. This mirrors the paper's "simple
// continuous parameter search" over decision regions and τ, with the
// domain-specific cost function supplied by the caller (Level 2 plugs in
// the full performance-plus-extraction-cost objective here).
func FitSearch(X [][]float64, y []int, base Options, regionGrid []int, thresholdGrid []float64, score func(*Classifier) float64) (*Classifier, float64) {
	if len(regionGrid) == 0 {
		regionGrid = []int{4, 8, 16}
	}
	if len(thresholdGrid) == 0 {
		thresholdGrid = []float64{0.6, 0.75, 0.85, 0.95}
	}
	var best *Classifier
	bestScore := math.Inf(1)
	for _, nr := range regionGrid {
		for _, th := range thresholdGrid {
			opts := base
			opts.Regions = nr
			opts.Threshold = th
			cand := Train(X, y, opts)
			if s := score(cand); s < bestScore {
				best, bestScore = cand, s
			}
		}
	}
	return best, bestScore
}
