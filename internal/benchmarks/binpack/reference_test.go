package binpack

import (
	"math"
	"sort"
	"sync"
	"testing"

	"inputtune/internal/choice"
	"inputtune/internal/cost"
	"inputtune/internal/rng"
)

// This file keeps the heuristics as they were before Run's per-input
// packing memo and the locally counted comparisons: referencePack charges
// every comparison, move and alloc as it happens. The tests below prove
// Pack and Run return the same bits and charge the same per-op counts as
// a fresh referencePack.

// referencePack assigns items (sizes in (0, 1]) to unit bins with the chosen
// heuristic, charging work to meter. It returns the bin fill levels.
func referencePack(alg int, items []float64, meter *cost.Meter) []float64 {
	switch alg {
	case NextFit:
		return refNextFit(items, meter)
	case NextFitDecreasing:
		return refNextFit(refSortedDecreasing(items, meter), meter)
	case FirstFit:
		return refScanFit(items, meter, refPickFirst)
	case FirstFitDecreasing:
		return refScanFit(refSortedDecreasing(items, meter), meter, refPickFirst)
	case BestFit:
		return refScanFit(items, meter, refPickBest)
	case BestFitDecreasing:
		return refScanFit(refSortedDecreasing(items, meter), meter, refPickBest)
	case WorstFit:
		return refScanFit(items, meter, refPickWorst)
	case WorstFitDecreasing:
		return refScanFit(refSortedDecreasing(items, meter), meter, refPickWorst)
	case AlmostWorstFit:
		return refScanFit(items, meter, refPickAlmostWorst)
	case AlmostWorstFitDecreasing:
		return refScanFit(refSortedDecreasing(items, meter), meter, refPickAlmostWorst)
	case LastFit:
		return refScanFit(items, meter, refPickLast)
	case LastFitDecreasing:
		return refScanFit(refSortedDecreasing(items, meter), meter, refPickLast)
	case ModifiedFirstFitDecreasing:
		return refMffd(items, meter)
	default:
		panic("binpack: unknown algorithm")
	}
}

// refSortedDecreasing returns a descending copy, charging the comparison cost
// of the sort.
func refSortedDecreasing(items []float64, meter *cost.Meter) []float64 {
	out := append([]float64(nil), items...)
	sort.Sort(sort.Reverse(refMeteredSlice{out, meter}))
	meter.Charge(cost.Move, len(items))
	return out
}

// refMeteredSlice charges one comparison per Less call so the Decreasing
// variants pay their true sorting cost.
type refMeteredSlice struct {
	s []float64
	m *cost.Meter
}

func (ms refMeteredSlice) Len() int { return len(ms.s) }
func (ms refMeteredSlice) Less(i, j int) bool {
	ms.m.Charge1(cost.Compare)
	return ms.s[i] < ms.s[j]
}
func (ms refMeteredSlice) Swap(i, j int) {
	ms.m.Charge(cost.Move, 2)
	ms.s[i], ms.s[j] = ms.s[j], ms.s[i]
}

// refNextFit keeps a single open bin.
func refNextFit(items []float64, meter *cost.Meter) []float64 {
	var bins []float64
	cur := -1
	for _, it := range items {
		meter.Charge1(cost.Compare)
		if cur < 0 || bins[cur]+it > 1 {
			bins = append(bins, 0)
			cur = len(bins) - 1
			meter.Charge1(cost.Alloc)
		}
		bins[cur] += it
		meter.Charge1(cost.Move)
	}
	return bins
}

// refPicker chooses a bin index for an item among bins where it fits, or -1 to
// open a new bin. Implementations charge one comparison per bin examined.
type refPicker func(bins []float64, item float64, meter *cost.Meter) int

func refPickFirst(bins []float64, item float64, meter *cost.Meter) int {
	for i, b := range bins {
		meter.Charge1(cost.Compare)
		if b+item <= 1 {
			return i
		}
	}
	return -1
}

func refPickLast(bins []float64, item float64, meter *cost.Meter) int {
	for i := len(bins) - 1; i >= 0; i-- {
		meter.Charge1(cost.Compare)
		if bins[i]+item <= 1 {
			return i
		}
	}
	return -1
}

func refPickBest(bins []float64, item float64, meter *cost.Meter) int {
	best := -1
	for i, b := range bins {
		meter.Charge1(cost.Compare)
		if b+item <= 1 && (best < 0 || b > bins[best]) {
			best = i
		}
	}
	return best
}

func refPickWorst(bins []float64, item float64, meter *cost.Meter) int {
	worst := -1
	for i, b := range bins {
		meter.Charge1(cost.Compare)
		if b+item <= 1 && (worst < 0 || b < bins[worst]) {
			worst = i
		}
	}
	return worst
}

// refPickAlmostWorst picks the second-emptiest fitting bin (falling back to
// the emptiest when only one fits).
func refPickAlmostWorst(bins []float64, item float64, meter *cost.Meter) int {
	worst, second := -1, -1
	for i, b := range bins {
		meter.Charge1(cost.Compare)
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
		return second
	}
	return worst
}

func refScanFit(items []float64, meter *cost.Meter, pick refPicker) []float64 {
	var bins []float64
	for _, it := range items {
		i := pick(bins, it, meter)
		if i < 0 {
			bins = append(bins, 0)
			i = len(bins) - 1
			meter.Charge1(cost.Alloc)
		}
		bins[i] += it
		meter.Charge1(cost.Move)
	}
	return bins
}

// refMffd is the Modified First Fit Decreasing heuristic (Johnson & Garey):
// large items (> 1/2) each open a bin; bins are then revisited largest-gap
// first, greedily pairing a smallest small item with the largest companion
// that still fits; the leftovers are packed FFD.
func refMffd(items []float64, meter *cost.Meter) []float64 {
	sorted := refSortedDecreasing(items, meter)
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
		j := refPickFirst(bins, it, meter)
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

// checkPackMatchesReference fails t unless Pack of heuristic alg on sizes
// matches referencePack bit for bit and count for count.
func checkPackMatchesReference(t *testing.T, name string, sizes []float64, alg int) {
	t.Helper()
	mWant, mGot := cost.NewMeter(), cost.NewMeter()
	want := referencePack(alg, sizes, mWant)
	got := Pack(alg, sizes, mGot)
	if len(got) != len(want) {
		t.Fatalf("%s %s: Pack opened %d bins, reference %d", name, AlgNames[alg], len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s %s: bin %d holds %v, reference %v", name, AlgNames[alg], i, got[i], want[i])
		}
	}
	for op := cost.Op(0); op < cost.NumOps; op++ {
		if g, w := mGot.Count(op), mWant.Count(op); g != w {
			t.Fatalf("%s %s: Pack %s count %d, reference %d", name, AlgNames[alg], op, g, w)
		}
	}
}

// cfgAlg returns a configuration that picks heuristic alg at every size.
func cfgAlg(p *Program, alg int) *choice.Config {
	cfg := p.Space().DefaultConfig()
	cfg.Selectors[0].Levels = nil
	cfg.Selectors[0].Else = alg
	return cfg
}

// checkRunMatchesReference fails t unless Run of heuristic alg on items
// matches a fresh referencePack of the same sizes bit for bit and count
// for count.
func checkRunMatchesReference(t *testing.T, p *Program, name string, items *Items, alg int) {
	t.Helper()
	mWant := cost.NewMeter()
	want := Occupancy(referencePack(alg, append([]float64(nil), items.Sizes...), mWant))
	mGot := cost.NewMeter()
	got := p.Run(cfgAlg(p, alg), items, mGot)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s %s: Run occupancy %v, reference %v", name, AlgNames[alg], got, want)
	}
	for op := cost.Op(0); op < cost.NumOps; op++ {
		if g, w := mGot.Count(op), mWant.Count(op); g != w {
			t.Fatalf("%s %s: Run %s count %d, reference %d", name, AlgNames[alg], op, g, w)
		}
	}
	if g, w := mGot.Elapsed(), mWant.Elapsed(); g != w {
		t.Fatalf("%s %s: Run elapsed %v, reference %v", name, AlgNames[alg], g, w)
	}
}

func TestRunMatchesReference(t *testing.T) {
	r := rng.New(81)
	p := New()
	for trial := 0; trial < 24; trial++ {
		g := Generators()[trial%len(Generators())]
		items := g.Gen(r.IntRange(1, 300), r)
		// Every heuristic twice, in a shuffled order: the first Run of a
		// pair packs, the second replays, and a memo that confused two
		// heuristics would answer one with the other's packing.
		order := make([]int, 0, 2*numAlgorithms)
		for alg := 0; alg < numAlgorithms; alg++ {
			order = append(order, alg, alg)
		}
		for i := len(order) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		for _, alg := range order {
			checkRunMatchesReference(t, p, g.Name, items, alg)
		}
	}
}

func TestPackMatchesReference(t *testing.T) {
	r := rng.New(87)
	for trial := 0; trial < 40; trial++ {
		g := Generators()[trial%len(Generators())]
		items := g.Gen(r.IntRange(1, 400), r)
		for alg := 0; alg < numAlgorithms; alg++ {
			checkPackMatchesReference(t, g.Name, items.Sizes, alg)
		}
	}
}

func TestDegenerateRunMatchesReference(t *testing.T) {
	cases := []struct {
		name  string
		sizes []float64
	}{
		{"empty", nil},
		{"single", []float64{0.4}},
		{"ones", []float64{1, 1, 1}},
		{"one-and-small", []float64{0.2, 1, 0.3, 1}},
		{"pairs-to-one", []float64{0.25, 0.75, 0.5, 0.5, 0.125, 0.875, 0.75, 0.25}},
		{"nan", []float64{0.3, math.NaN(), 0.6, 0.2}},
		{"all-nan", []float64{math.NaN(), math.NaN()}},
	}
	p := New()
	for _, c := range cases {
		for alg := 0; alg < numAlgorithms; alg++ {
			checkPackMatchesReference(t, c.name, c.sizes, alg)
		}
		items := &Items{Sizes: c.sizes}
		for pass := 0; pass < 2; pass++ {
			for alg := 0; alg < numAlgorithms; alg++ {
				checkRunMatchesReference(t, p, c.name, items, alg)
			}
		}
	}
}

// TestSharedSortMatchesReference runs every heuristic through Run on one
// Items, in a shuffled order, over random and degenerate (NaN, all-NaN,
// empty) inputs. Each Run must match a fresh referencePack bit for bit and
// count for count while the seven Decreasing heuristics share one sort:
// the shared copy must equal the reference sort's output and counts, the
// non-Decreasing heuristics must leave the items unsorted, and the sort
// must not be redone.
func TestSharedSortMatchesReference(t *testing.T) {
	r := rng.New(91)
	type tc struct {
		name  string
		sizes []float64
	}
	cases := []tc{
		{"empty", nil},
		{"nan", []float64{0.3, math.NaN(), 0.6, 0.2}},
		{"all-nan", []float64{math.NaN(), math.NaN()}},
		{"pairs-to-one", []float64{0.25, 0.75, 0.5, 0.5, 0.125, 0.875, 0.75, 0.25}},
	}
	for trial := 0; trial < 12; trial++ {
		g := Generators()[trial%len(Generators())]
		cases = append(cases, tc{g.Name, g.Gen(r.IntRange(1, 300), r).Sizes})
	}
	p := New()
	for _, c := range cases {
		items := &Items{Sizes: c.sizes}
		for alg := 0; alg < numAlgorithms; alg++ {
			if !decreasing(alg) {
				checkRunMatchesReference(t, p, c.name, items, alg)
			}
		}
		if items.sorted != nil {
			t.Fatalf("%s: non-Decreasing heuristics sorted the items", c.name)
		}
		order := r.Perm(numAlgorithms)
		var first *sortedItems
		for _, alg := range order {
			checkRunMatchesReference(t, p, c.name, items, alg)
			if decreasing(alg) && first == nil {
				first = items.sorted
			}
		}
		if items.sorted != first {
			t.Fatalf("%s: items sorted more than once", c.name)
		}
		m := cost.NewMeter()
		want := refSortedDecreasing(c.sizes, m)
		got := items.sortedDesc()
		if len(got.sizes) != len(want) {
			t.Fatalf("%s: shared sort holds %d items, reference %d", c.name, len(got.sizes), len(want))
		}
		for i := range want {
			if math.Float64bits(got.sizes[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: shared sort item %d is %v, reference %v", c.name, i, got.sizes[i], want[i])
			}
		}
		if got.compares != m.Count(cost.Compare) || got.moves != m.Count(cost.Move) {
			t.Fatalf("%s: shared sort counted %d compares, %d moves; reference %d, %d", c.name,
				got.compares, got.moves, m.Count(cost.Compare), m.Count(cost.Move))
		}
	}
}

// TestRunSharedItemsConcurrent runs every heuristic from many goroutines
// on one shared Items (run it under -race): each result must equal a
// fresh referencePack's.
func TestRunSharedItemsConcurrent(t *testing.T) {
	r := rng.New(83)
	items := GenTriplets(300, r)
	type ref struct {
		occ    float64
		counts [cost.NumOps]uint64
	}
	var want [numAlgorithms]ref
	for alg := range want {
		m := cost.NewMeter()
		want[alg].occ = Occupancy(referencePack(alg, items.Sizes, m))
		for op := range want[alg].counts {
			want[alg].counts[op] = m.Count(cost.Op(op))
		}
	}
	p := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3*numAlgorithms; i++ {
				alg := (g + 5*i) % numAlgorithms
				m := cost.NewMeter()
				occ := p.Run(cfgAlg(p, alg), items, m)
				if math.Float64bits(occ) != math.Float64bits(want[alg].occ) {
					t.Errorf("%s: concurrent occupancy %v, reference %v", AlgNames[alg], occ, want[alg].occ)
					return
				}
				for op := range want[alg].counts {
					if got := m.Count(cost.Op(op)); got != want[alg].counts[op] {
						t.Errorf("%s: concurrent %s count %d, reference %d", AlgNames[alg], cost.Op(op), got, want[alg].counts[op])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func BenchmarkPackAll(b *testing.B) {
	r := rng.New(89)
	items := GenUniform(512, r)
	m := cost.NewMeter()
	for b.Loop() {
		for alg := 0; alg < numAlgorithms; alg++ {
			Pack(alg, items.Sizes, m)
		}
	}
}
