// Package binpack reproduces the paper's Bin Packing benchmark: 13
// approximation heuristics over unit-capacity bins, with the mean occupied
// fraction of bins as the accuracy metric (threshold 0.95). Cheap heuristics
// (NextFit) are fast but loose; the Decreasing family pays an up-front sort
// for denser packings — which heuristic is the fastest one meeting the
// accuracy bar depends on the item-size distribution, the benchmark's
// input sensitivity.
package binpack

import (
	"sort"

	"inputtune/internal/cost"
)

// Algorithm indices for the "pack" choice site, in the paper's order.
const (
	AlmostWorstFit = iota
	AlmostWorstFitDecreasing
	BestFit
	BestFitDecreasing
	FirstFit
	FirstFitDecreasing
	LastFit
	LastFitDecreasing
	ModifiedFirstFitDecreasing
	NextFit
	NextFitDecreasing
	WorstFit
	WorstFitDecreasing
	numAlgorithms
)

// AlgNames lists the heuristic names in site order.
var AlgNames = []string{
	"AlmostWorstFit", "AlmostWorstFitDecreasing", "BestFit",
	"BestFitDecreasing", "FirstFit", "FirstFitDecreasing", "LastFit",
	"LastFitDecreasing", "ModifiedFirstFitDecreasing", "NextFit",
	"NextFitDecreasing", "WorstFit", "WorstFitDecreasing",
}

// Pack assigns items (sizes in (0, 1]) to unit bins with the chosen
// heuristic, charging work to meter. It returns the bin fill levels.
func Pack(alg int, items []float64, meter *cost.Meter) []float64 {
	var sorted []float64
	if decreasing(alg) {
		sorted = sortedDecreasing(items, meter)
	}
	return packSorted(alg, items, sorted, meter)
}

// decreasing reports whether heuristic alg packs the items in descending
// order: the six Decreasing variants and MFFD.
func decreasing(alg int) bool {
	switch alg {
	case NextFitDecreasing, FirstFitDecreasing, BestFitDecreasing, WorstFitDecreasing,
		AlmostWorstFitDecreasing, LastFitDecreasing, ModifiedFirstFitDecreasing:
		return true
	}
	return false
}

// packSorted is Pack with the sort already done and charged: sorted is
// the descending copy of items when decreasing(alg), unused otherwise. It
// only reads sorted, so one copy can serve every Decreasing heuristic.
func packSorted(alg int, items, sorted []float64, meter *cost.Meter) []float64 {
	switch alg {
	case NextFit:
		return nextFit(items, meter)
	case NextFitDecreasing:
		return nextFit(sorted, meter)
	case FirstFit:
		return scanFit(items, meter, pickFirst)
	case FirstFitDecreasing:
		return scanFit(sorted, meter, pickFirst)
	case BestFit:
		return scanFit(items, meter, pickBest)
	case BestFitDecreasing:
		return scanFit(sorted, meter, pickBest)
	case WorstFit:
		return scanFit(items, meter, pickWorst)
	case WorstFitDecreasing:
		return scanFit(sorted, meter, pickWorst)
	case AlmostWorstFit:
		return scanFit(items, meter, pickAlmostWorst)
	case AlmostWorstFitDecreasing:
		return scanFit(sorted, meter, pickAlmostWorst)
	case LastFit:
		return scanFit(items, meter, pickLast)
	case LastFitDecreasing:
		return scanFit(sorted, meter, pickLast)
	case ModifiedFirstFitDecreasing:
		return mffd(sorted, meter)
	default:
		panic("binpack: unknown algorithm")
	}
}

// sortedDecreasing returns a descending copy, charging the comparison cost
// of the sort.
func sortedDecreasing(items []float64, meter *cost.Meter) []float64 {
	out := append([]float64(nil), items...)
	sort.Sort(sort.Reverse(meteredSlice{out, meter}))
	meter.Charge(cost.Move, len(items))
	return out
}

// meteredSlice charges one comparison per Less call so the Decreasing
// variants pay their true sorting cost.
type meteredSlice struct {
	s []float64
	m *cost.Meter
}

func (ms meteredSlice) Len() int { return len(ms.s) }
func (ms meteredSlice) Less(i, j int) bool {
	ms.m.Charge1(cost.Compare)
	return ms.s[i] < ms.s[j]
}
func (ms meteredSlice) Swap(i, j int) {
	ms.m.Charge(cost.Move, 2)
	ms.s[i], ms.s[j] = ms.s[j], ms.s[i]
}

// nextFit keeps a single open bin. Its charges depend only on the item
// and bin counts, so they are made once at the end.
func nextFit(items []float64, meter *cost.Meter) []float64 {
	var bins []float64
	cur := -1
	for _, it := range items {
		if cur < 0 || bins[cur]+it > 1 {
			bins = append(bins, 0)
			cur = len(bins) - 1
		}
		bins[cur] += it
	}
	meter.Charge(cost.Compare, len(items))
	meter.Charge(cost.Alloc, len(bins))
	meter.Charge(cost.Move, len(items))
	return bins
}

// picker chooses a bin index for an item among bins where it fits, or -1 to
// open a new bin. It also returns how many bins it examined, one
// comparison each, which its caller charges.
type picker func(bins []float64, item float64) (idx, examined int)

func pickFirst(bins []float64, item float64) (int, int) {
	for i, b := range bins {
		if b+item <= 1 {
			return i, i + 1
		}
	}
	return -1, len(bins)
}

func pickLast(bins []float64, item float64) (int, int) {
	for i := len(bins) - 1; i >= 0; i-- {
		if bins[i]+item <= 1 {
			return i, len(bins) - i
		}
	}
	return -1, len(bins)
}

func pickBest(bins []float64, item float64) (int, int) {
	best := -1
	for i, b := range bins {
		if b+item <= 1 && (best < 0 || b > bins[best]) {
			best = i
		}
	}
	return best, len(bins)
}

func pickWorst(bins []float64, item float64) (int, int) {
	worst := -1
	for i, b := range bins {
		if b+item <= 1 && (worst < 0 || b < bins[worst]) {
			worst = i
		}
	}
	return worst, len(bins)
}

// pickAlmostWorst picks the second-emptiest fitting bin (falling back to
// the emptiest when only one fits).
func pickAlmostWorst(bins []float64, item float64) (int, int) {
	worst, second := -1, -1
	for i, b := range bins {
		if b+item > 1 {
			continue
		}
		if worst < 0 || b < bins[worst] {
			second = worst
			worst = i
		} else if second < 0 || b < bins[second] {
			second = i
		}
	}
	if second >= 0 {
		return second, len(bins)
	}
	return worst, len(bins)
}

// scanFit places each item in the bin pick chooses, opening a bin when
// none is chosen. Comparisons are summed locally and charged once, with
// one move per item and one alloc per bin.
func scanFit(items []float64, meter *cost.Meter, pick picker) []float64 {
	var bins []float64
	compares := 0
	for _, it := range items {
		i, examined := pick(bins, it)
		compares += examined
		if i < 0 {
			bins = append(bins, 0)
			i = len(bins) - 1
		}
		bins[i] += it
	}
	meter.Charge(cost.Compare, compares)
	meter.Charge(cost.Alloc, len(bins))
	meter.Charge(cost.Move, len(items))
	return bins
}

// mffd is the Modified First Fit Decreasing heuristic (Johnson & Garey):
// large items (> 1/2) each open a bin; bins are then revisited largest-gap
// first, greedily pairing a smallest small item with the largest companion
// that still fits; the leftovers are packed FFD. sorted holds the items
// in descending order; mffd only reads it.
func mffd(sorted []float64, meter *cost.Meter) []float64 {
	var bins []float64
	var small []float64 // ≤ 1/2, still descending
	for _, it := range sorted {
		meter.Charge1(cost.Compare)
		if it > 0.5 {
			bins = append(bins, it)
			meter.Charge1(cost.Alloc)
		} else {
			small = append(small, it)
		}
	}
	used := make([]bool, len(small))
	remaining := len(small)
	// Large-item bins in reverse order = increasing large-item size =
	// decreasing gap? No: bins were appended in decreasing item order, so
	// reverse order visits the smallest large item (largest gap) first.
	for b := len(bins) - 1; b >= 0 && remaining >= 2; b-- {
		gap := 1 - bins[b]
		// Smallest two unused small items.
		sm1, sm2 := -1, -1
		for i := len(small) - 1; i >= 0; i-- {
			meter.Charge1(cost.Compare)
			if used[i] {
				continue
			}
			if sm1 < 0 {
				sm1 = i
			} else {
				sm2 = i
				break
			}
		}
		if sm2 < 0 || small[sm1]+small[sm2] > gap {
			continue
		}
		// Place the smallest item, then the largest companion that fits.
		used[sm1] = true
		bins[b] += small[sm1]
		remaining--
		meter.Charge1(cost.Move)
		rest := 1 - bins[b]
		for i := 0; i < len(small); i++ {
			meter.Charge1(cost.Compare)
			if !used[i] && small[i] <= rest {
				used[i] = true
				bins[b] += small[i]
				remaining--
				meter.Charge1(cost.Move)
				break
			}
		}
	}
	// FFD the leftovers over all bins.
	for i, it := range small {
		if used[i] {
			continue
		}
		j, examined := pickFirst(bins, it)
		meter.Charge(cost.Compare, examined)
		if j < 0 {
			bins = append(bins, 0)
			j = len(bins) - 1
			meter.Charge1(cost.Alloc)
		}
		bins[j] += it
		meter.Charge1(cost.Move)
	}
	return bins
}

// Occupancy is the accuracy metric: the mean occupied fraction of the bins
// used (1 = perfect packing).
func Occupancy(bins []float64) float64 {
	if len(bins) == 0 {
		return 1
	}
	total := 0.0
	for _, b := range bins {
		total += b
	}
	return total / float64(len(bins))
}
