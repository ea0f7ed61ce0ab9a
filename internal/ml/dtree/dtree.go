// Package dtree implements the cost-sensitive CART decision trees used by
// the exhaustive feature-subset classifiers of the paper's Level 2
// (Section 3.2). Splits minimise expected misclassification cost under a
// caller-supplied cost matrix C[i][j] — the cost of predicting class j for
// a point whose true label is i — which is how the paper folds the
// performance and accuracy penalties of picking the wrong landmark
// configuration into classifier training.
package dtree

import (
	"fmt"
	"sort"

	"inputtune/internal/rng"
)

// Options configures tree induction. Zero values select defaults.
type Options struct {
	NumClasses int // required
	// Features restricts splitting to these feature indices (nil = all).
	// Prediction reads only these columns, so a tree trained on a feature
	// subset never forces extraction of other features.
	Features []int
	// CostMatrix[i][j] is the cost of predicting j when the truth is i.
	// nil means 0/1 loss.
	CostMatrix [][]float64
	MaxDepth   int // default 12
	MinLeaf    int // default 2
}

func (o *Options) setDefaults() {
	if o.MaxDepth <= 0 {
		o.MaxDepth = 12
	}
	if o.MinLeaf <= 0 {
		o.MinLeaf = 2
	}
}

func (o *Options) cost(truth, pred int) float64 {
	if o.CostMatrix == nil {
		if truth == pred {
			return 0
		}
		return 1
	}
	return o.CostMatrix[truth][pred]
}

type node struct {
	// Leaf fields.
	leaf  bool
	class int
	// Internal fields.
	feature   int
	threshold float64
	left      *node // feature value < threshold
	right     *node
}

// Tree is a fitted decision tree.
type Tree struct {
	root    *node
	opts    Options
	usedSet map[int]bool
}

// ReferenceTrain fits a tree to rows X with integer labels y in
// [0, NumClasses) by re-sorting the node's rows on every feature at every
// node — O(n·f·log n) per node. It is the original trainer, retained
// verbatim as the differential-testing reference for the presorted-feature
// backbone (Train/TrainMatrix): the two must produce byte-identical
// serialised trees for any input, which the package tests enforce.
func ReferenceTrain(X [][]float64, y []int, opts Options) *Tree {
	if len(X) == 0 || len(X) != len(y) {
		panic("dtree: bad training data")
	}
	if opts.NumClasses <= 0 {
		panic("dtree: NumClasses required")
	}
	opts.setDefaults()
	feats := opts.Features
	if feats == nil {
		for f := 0; f < len(X[0]); f++ {
			feats = append(feats, f)
		}
	}
	t := &Tree{opts: opts, usedSet: map[int]bool{}}
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	t.root = t.build(X, y, idx, feats, 0)
	return t
}

// counts tallies class membership of the index subset.
func classCounts(y []int, idx []int, k int) []float64 {
	c := make([]float64, k)
	for _, i := range idx {
		c[y[i]]++
	}
	return c
}

// bestLabel returns the label minimising expected cost over counts, and
// that minimum total cost.
func (t *Tree) bestLabel(counts []float64) (int, float64) {
	bestJ, bestC := 0, -1.0
	for j := 0; j < t.opts.NumClasses; j++ {
		c := 0.0
		for i, n := range counts {
			if n > 0 {
				c += n * t.opts.cost(i, j)
			}
		}
		if bestC < 0 || c < bestC {
			bestJ, bestC = j, c
		}
	}
	return bestJ, bestC
}

func (t *Tree) build(X [][]float64, y []int, idx []int, feats []int, depth int) *node {
	counts := classCounts(y, idx, t.opts.NumClasses)
	label, nodeCost := t.bestLabel(counts)
	if depth >= t.opts.MaxDepth || len(idx) < 2*t.opts.MinLeaf || nodeCost == 0 {
		return &node{leaf: true, class: label}
	}
	bestGain := 0.0
	bestFeat, bestThresh := -1, 0.0
	sorted := make([]int, len(idx))
	for _, f := range feats {
		copy(sorted, idx)
		sort.Slice(sorted, func(a, b int) bool { return X[sorted[a]][f] < X[sorted[b]][f] })
		leftCounts := make([]float64, t.opts.NumClasses)
		rightCounts := append([]float64(nil), counts...)
		for pos := 0; pos < len(sorted)-1; pos++ {
			i := sorted[pos]
			leftCounts[y[i]]++
			rightCounts[y[i]]--
			v, next := X[i][f], X[sorted[pos+1]][f]
			if v == next {
				continue // can't split between equal values
			}
			nLeft, nRight := pos+1, len(sorted)-pos-1
			if nLeft < t.opts.MinLeaf || nRight < t.opts.MinLeaf {
				continue
			}
			_, lc := t.bestLabel(leftCounts)
			_, rc := t.bestLabel(rightCounts)
			gain := nodeCost - (lc + rc)
			if gain > bestGain+1e-12 {
				bestGain = gain
				bestFeat = f
				bestThresh = (v + next) / 2
			}
		}
	}
	if bestFeat < 0 {
		return &node{leaf: true, class: label}
	}
	var leftIdx, rightIdx []int
	for _, i := range idx {
		if X[i][bestFeat] < bestThresh {
			leftIdx = append(leftIdx, i)
		} else {
			rightIdx = append(rightIdx, i)
		}
	}
	if len(leftIdx) == 0 || len(rightIdx) == 0 {
		return &node{leaf: true, class: label}
	}
	t.usedSet[bestFeat] = true
	return &node{
		feature:   bestFeat,
		threshold: bestThresh,
		left:      t.build(X, y, leftIdx, feats, depth+1),
		right:     t.build(X, y, rightIdx, feats, depth+1),
	}
}

// Predict returns the class for feature vector x.
func (t *Tree) Predict(x []float64) int {
	n := t.root
	for !n.leaf {
		if x[n.feature] < n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.class
}

// FeaturesUsed returns the sorted set of feature indices the tree actually
// splits on — possibly a strict subset of Options.Features, which lets the
// classifier selector skip extraction of unused features.
func (t *Tree) FeaturesUsed() []int {
	out := make([]int, 0, len(t.usedSet))
	for f := range t.usedSet {
		out = append(out, f)
	}
	sort.Ints(out)
	return out
}

// Validate returns an error unless the tree has a root, every leaf class
// lies in [0, numClasses) and every split feature in [0, numFeatures):
// the trees Predict and the compiled form walk without indexing
// out of range on rows of numFeatures features. LoadModel runs it on
// decoded trees, which carry whatever the artifact said.
func (t *Tree) Validate(numClasses, numFeatures int) error {
	if t.root == nil {
		return fmt.Errorf("dtree: tree has no root")
	}
	var walk func(n *node) error
	walk = func(n *node) error {
		if n.leaf {
			if n.class < 0 || n.class >= numClasses {
				return fmt.Errorf("dtree: leaf class %d out of range [0, %d)", n.class, numClasses)
			}
			return nil
		}
		if n.feature < 0 || n.feature >= numFeatures {
			return fmt.Errorf("dtree: split feature %d out of range [0, %d)", n.feature, numFeatures)
		}
		if err := walk(n.left); err != nil {
			return err
		}
		return walk(n.right)
	}
	return walk(t.root)
}

// NumNodes returns the total node count.
func (t *Tree) NumNodes() int { return countNodes(t.root) }

func countNodes(n *node) int {
	if n == nil {
		return 0
	}
	if n.leaf {
		return 1
	}
	return 1 + countNodes(n.left) + countNodes(n.right)
}

// Depth returns the maximum depth (a lone leaf has depth 0).
func (t *Tree) Depth() int { return depth(t.root) }

func depth(n *node) int {
	if n == nil || n.leaf {
		return 0
	}
	l, r := depth(n.left), depth(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// String renders the tree structure for debugging.
func (t *Tree) String() string { return render(t.root, 0) }

func render(n *node, ind int) string {
	pad := ""
	for i := 0; i < ind; i++ {
		pad += "  "
	}
	if n.leaf {
		return fmt.Sprintf("%s=> class %d\n", pad, n.class)
	}
	return fmt.Sprintf("%sf%d < %.4g?\n%s%s", pad, n.feature, n.threshold,
		render(n.left, ind+1), render(n.right, ind+1))
}

// CrossValidate performs k-fold cross validation and returns the mean
// held-out misclassification cost per sample (under the option's cost
// matrix) and the per-fold costs. Folds are assigned by shuffling with the
// given seed. This mirrors the paper's 10-fold protocol for the exhaustive
// feature-subset classifiers.
func CrossValidate(X [][]float64, y []int, opts Options, folds int, seed uint64) (mean float64, perFold []float64) {
	if folds < 2 {
		panic("dtree: need at least 2 folds")
	}
	if folds > len(X) {
		folds = len(X)
	}
	r := rng.New(seed)
	perm := r.Perm(len(X))
	perFold = make([]float64, folds)
	for f := 0; f < folds; f++ {
		var trX [][]float64
		var trY []int
		var teIdx []int
		for pos, i := range perm {
			if pos%folds == f {
				teIdx = append(teIdx, i)
			} else {
				trX = append(trX, X[i])
				trY = append(trY, y[i])
			}
		}
		if len(trX) == 0 || len(teIdx) == 0 {
			continue
		}
		tree := Train(trX, trY, opts)
		total := 0.0
		for _, i := range teIdx {
			total += opts.cost(y[i], tree.Predict(X[i]))
		}
		perFold[f] = total / float64(len(teIdx))
	}
	sum := 0.0
	for _, c := range perFold {
		sum += c
	}
	return sum / float64(folds), perFold
}
