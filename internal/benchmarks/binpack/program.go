package binpack

import (
	"math"
	"sync"

	"inputtune/internal/choice"
	"inputtune/internal/cost"
	"inputtune/internal/feature"
	"inputtune/internal/rng"
)

// Items is a bin-packing input: item sizes in (0, 1]. Sizes must not
// change once the items have been Run.
type Items struct {
	Sizes []float64
	Gen   string

	// packsOnce/packs hold each heuristic's packing of Sizes, computed at
	// most once: its occupancy and its op counts depend only on the items,
	// and training runs one heuristic on one input under many
	// configurations. The table is allocated on first Run, so inputs that
	// are only classified stay small.
	packsOnce sync.Once
	packs     *[numAlgorithms]packing

	// sortOnce/sorted hold the descending copy of Sizes and the op counts
	// sorting it charged, computed at most once and shared read-only by
	// every Decreasing heuristic's packing.
	sortOnce sync.Once
	sorted   *sortedItems
}

// sortedItems is the items in descending order plus the comparisons and
// moves the metered sort took to produce them.
type sortedItems struct {
	sizes           []float64
	compares, moves uint64
}

// sortedDesc returns the items sorted in descending order, sorting on a
// private meter the first time it is asked for.
func (it *Items) sortedDesc() *sortedItems {
	it.sortOnce.Do(func() {
		m := cost.NewMeter()
		it.sorted = &sortedItems{sizes: sortedDecreasing(it.Sizes, m),
			compares: m.Count(cost.Compare), moves: m.Count(cost.Move)}
	})
	return it.sorted
}

// packing is one heuristic's result on one Items: the occupancy Run
// returns and the per-op counts Pack charged.
type packing struct {
	once      sync.Once
	occupancy float64
	counts    [cost.NumOps]uint64
}

// pack returns the packing of the items with heuristic alg, packing on a
// private meter the first time it is asked for. A Decreasing heuristic
// packs the shared sorted copy and charges the sort's recorded counts, so
// its counts equal a fresh Pack's.
func (it *Items) pack(alg int) *packing {
	if alg < 0 || alg >= numAlgorithms {
		panic("binpack: unknown algorithm")
	}
	it.packsOnce.Do(func() { it.packs = new([numAlgorithms]packing) })
	pk := &it.packs[alg]
	pk.once.Do(func() {
		m := cost.NewMeter()
		var sorted []float64
		if decreasing(alg) {
			s := it.sortedDesc()
			sorted = s.sizes
			m.Charge(cost.Compare, int(s.compares))
			m.Charge(cost.Move, int(s.moves))
		}
		pk.occupancy = Occupancy(packSorted(alg, it.Sizes, sorted, m))
		for op := range pk.counts {
			pk.counts[op] = m.Count(cost.Op(op))
		}
	})
	return pk
}

// Size implements feature.Input.
func (it *Items) Size() int { return len(it.Sizes) }

// Program is the Bin Packing benchmark: variable accuracy (mean bin
// occupancy, threshold 0.95) over the 13 heuristics.
type Program struct {
	space *choice.Space
	set   *feature.Set
}

// New constructs the Bin Packing program.
func New() *Program {
	p := &Program{}
	p.space = choice.NewSpace()
	p.space.AddSite("pack", AlgNames...)
	p.set = feature.MustNewSet(
		feature.Extractor{Name: "average", Levels: []feature.LevelFunc{
			momentLevel(32, false), momentLevel(256, false), momentLevel(0, false),
		}},
		feature.Extractor{Name: "deviation", Levels: []feature.LevelFunc{
			momentLevel(32, true), momentLevel(256, true), momentLevel(0, true),
		}},
		feature.Extractor{Name: "range", Levels: []feature.LevelFunc{
			rangeLevel(32), rangeLevel(256), rangeLevel(0),
		}},
		feature.Extractor{Name: "sortedness", Levels: []feature.LevelFunc{
			sortednessLevel(32), sortednessLevel(256), sortednessLevel(0),
		}},
	)
	return p
}

// Name implements core.Program.
func (p *Program) Name() string { return "binpacking" }

// Space implements core.Program.
func (p *Program) Space() *choice.Space { return p.space }

// Features implements core.Program.
func (p *Program) Features() *feature.Set { return p.set }

// HasAccuracy implements core.Program.
func (p *Program) HasAccuracy() bool { return true }

// AccuracyThreshold implements core.Program: the paper sets 0.95.
func (p *Program) AccuracyThreshold() float64 { return 0.95 }

// Run packs the items with the heuristic the selector picks for this input
// size and returns the occupancy accuracy. Each (items, heuristic) pair is
// packed once; later Runs replay its op counts onto meter, so the meter
// reads exactly what a fresh Pack would charge.
func (p *Program) Run(cfg *choice.Config, in feature.Input, meter *cost.Meter) float64 {
	items := in.(*Items)
	pk := items.pack(cfg.Decide(0, len(items.Sizes)))
	for op, n := range pk.counts {
		if n != 0 {
			meter.Charge(cost.Op(op), int(n))
		}
	}
	return pk.occupancy
}

// --- feature extractors -------------------------------------------------

func strideFor(budget, n int) int {
	if budget <= 0 || budget >= n {
		return 1
	}
	return n / budget
}

// momentLevel returns the sample mean (wantDev=false) or standard
// deviation (wantDev=true) of the item sizes.
func momentLevel(budget int, wantDev bool) feature.LevelFunc {
	return func(in feature.Input, m *cost.Meter) float64 {
		sizes := in.(*Items).Sizes
		n := len(sizes)
		if n == 0 {
			return 0
		}
		stride := strideFor(budget, n)
		var sum, sumsq, cnt float64
		for i := 0; i < n; i += stride {
			m.Charge1(cost.Scan)
			sum += sizes[i]
			sumsq += sizes[i] * sizes[i]
			cnt++
		}
		mean := sum / cnt
		if !wantDev {
			return mean
		}
		v := sumsq/cnt - mean*mean
		if v < 0 {
			v = 0
		}
		return math.Sqrt(v)
	}
}

func rangeLevel(budget int) feature.LevelFunc {
	return func(in feature.Input, m *cost.Meter) float64 {
		sizes := in.(*Items).Sizes
		n := len(sizes)
		if n == 0 {
			return 0
		}
		stride := strideFor(budget, n)
		lo, hi := sizes[0], sizes[0]
		for i := 0; i < n; i += stride {
			m.Charge1(cost.Scan)
			if sizes[i] < lo {
				lo = sizes[i]
			}
			if sizes[i] > hi {
				hi = sizes[i]
			}
		}
		return hi - lo
	}
}

func sortednessLevel(budget int) feature.LevelFunc {
	return func(in feature.Input, m *cost.Meter) float64 {
		sizes := in.(*Items).Sizes
		n := len(sizes)
		if n < 2 {
			return 1
		}
		stride := strideFor(budget, n-1)
		sorted, count := 0, 0
		for i := 0; i+stride < n; i += stride {
			m.Charge(cost.Scan, 2)
			if sizes[i] <= sizes[i+stride] {
				sorted++
			}
			count++
		}
		if count == 0 {
			return 1
		}
		return float64(sorted) / float64(count)
	}
}

// --- input generators ----------------------------------------------------

// Generator produces a packing instance of roughly the requested size.
type Generator struct {
	Name string
	Gen  func(n int, r *rng.RNG) *Items
}

// Generators spans easy (tiny, complementary) and hard (near-half)
// distributions so that the fastest accuracy-feasible heuristic varies.
func Generators() []Generator {
	return []Generator{
		{"tiny", GenTiny},
		{"small-uniform", GenSmallUniform},
		{"uniform", GenUniform},
		{"triplets", GenTriplets},
		{"complement-pairs", GenComplementPairs},
		{"near-half", GenNearHalf},
		{"skewed", GenSkewed},
		{"sorted-ascending", GenSortedAscending},
	}
}

// GenTiny draws items ≤ 0.05: any heuristic packs densely; NextFit's O(n)
// pass is the fastest feasible choice.
func GenTiny(n int, r *rng.RNG) *Items {
	s := make([]float64, n)
	for i := range s {
		s[i] = 0.002 + 0.048*r.Float64()
	}
	return &Items{Sizes: s, Gen: "tiny"}
}

// GenSmallUniform draws from (0, 0.3).
func GenSmallUniform(n int, r *rng.RNG) *Items {
	s := make([]float64, n)
	for i := range s {
		s[i] = 0.01 + 0.29*r.Float64()
	}
	return &Items{Sizes: s, Gen: "small-uniform"}
}

// GenUniform draws from (0, 0.6) — dense packings exist but greedy online
// heuristics leave gaps; the Decreasing family earns its sort.
func GenUniform(n int, r *rng.RNG) *Items {
	s := make([]float64, n)
	for i := range s {
		s[i] = 0.01 + 0.59*r.Float64()
	}
	return &Items{Sizes: s, Gen: "uniform"}
}

// GenTriplets emits shuffled triples summing exactly to 1 plus ~15% tiny
// "dust" items. A perfect packing of the triples exists and the dust lets
// greedy heuristics fill the gaps they leave, so good heuristics can reach
// the 0.95 occupancy target while careless ones cannot.
func GenTriplets(n int, r *rng.RNG) *Items {
	var s []float64
	budget := n * 60 / 100
	for len(s)+3 <= budget {
		a := 0.25 + 0.2*r.Float64()
		b := 0.25 + 0.2*r.Float64()
		s = append(s, a, b, 1-a-b)
	}
	for len(s) < n {
		s = append(s, 0.005+0.045*r.Float64())
	}
	r.ShuffleFloats(s)
	return &Items{Sizes: s, Gen: "triplets"}
}

// GenComplementPairs emits shuffled pairs (x, 1-x).
func GenComplementPairs(n int, r *rng.RNG) *Items {
	var s []float64
	for len(s)+2 <= n {
		x := 0.15 + 0.55*r.Float64()
		s = append(s, x, 1-x)
	}
	for len(s) < n {
		s = append(s, 0.3)
	}
	r.ShuffleFloats(s)
	return &Items{Sizes: s, Gen: "complement-pairs"}
}

// GenNearHalf draws items just above 1/2: every bin holds one item, so no
// heuristic can exceed ~0.5 occupancy — the accuracy target is unreachable
// and the learner must fall back to max-accuracy labelling.
func GenNearHalf(n int, r *rng.RNG) *Items {
	s := make([]float64, n)
	for i := range s {
		s[i] = 0.51 + 0.05*r.Float64()
	}
	return &Items{Sizes: s, Gen: "near-half"}
}

// GenSkewed draws a truncated exponential — many small items, a few large.
func GenSkewed(n int, r *rng.RNG) *Items {
	s := make([]float64, n)
	for i := range s {
		v := r.ExpFloat64() * 0.15
		if v > 0.95 {
			v = 0.95
		}
		if v < 0.01 {
			v = 0.01
		}
		s[i] = v
	}
	return &Items{Sizes: s, Gen: "skewed"}
}

// GenSortedAscending emits an already ascending stream — the Decreasing
// variants' sort is pure overhead turned upside down.
func GenSortedAscending(n int, r *rng.RNG) *Items {
	it := GenUniform(n, r)
	sortAscending(it.Sizes)
	it.Gen = "sorted-ascending"
	return it
}

func sortAscending(s []float64) {
	// Insertion sort: generator-side, not charged to any meter.
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

// MixOptions controls the input battery.
type MixOptions struct {
	Count   int
	MinSize int // default 64
	MaxSize int // default 512
	Seed    uint64
}

// GenerateMix produces a deterministic battery cycling the generators.
// The unreachable near-half instances are kept rare (1 in 32) so the 95%
// satisfaction threshold stays attainable, as in the paper's workloads;
// tiny-item instances are scaled up so the partial final bin does not sink
// their occupancy below the accuracy threshold.
func GenerateMix(opts MixOptions) []*Items {
	if opts.MinSize <= 0 {
		opts.MinSize = 64
	}
	if opts.MaxSize < opts.MinSize {
		opts.MaxSize = 512
	}
	r := rng.New(opts.Seed)
	gens := Generators()
	out := make([]*Items, opts.Count)
	easy := 0
	for i := range out {
		n := r.IntRange(opts.MinSize, opts.MaxSize)
		if i%32 == 31 {
			out[i] = GenNearHalf(n, r)
			continue
		}
		g := gens[easy%len(gens)]
		easy++
		if g.Name == "near-half" {
			g = gens[easy%len(gens)]
			easy++
		}
		if g.Name == "tiny" || g.Name == "skewed" {
			n *= 8 // many bins needed before occupancy can reach 0.95
		}
		out[i] = g.Gen(n, r)
	}
	return out
}
