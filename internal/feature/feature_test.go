package feature

import (
	"testing"

	"inputtune/internal/cost"
)

type sliceInput []float64

func (s sliceInput) Size() int { return len(s) }

// makeSet builds a 2-property, 3-level set: "sum" and "max", where higher
// levels scan more of the input (and charge more).
func makeSet() *Set {
	scanFrac := []float64{0.1, 0.5, 1.0}
	level := func(prop string, frac float64) LevelFunc {
		return func(in Input, m *cost.Meter) float64 {
			xs := in.(sliceInput)
			n := int(frac * float64(len(xs)))
			if n < 1 {
				n = 1
			}
			m.Charge(cost.Scan, n)
			switch prop {
			case "sum":
				s := 0.0
				for _, v := range xs[:n] {
					s += v
				}
				return s
			default: // max
				mx := xs[0]
				for _, v := range xs[:n] {
					if v > mx {
						mx = v
					}
				}
				return mx
			}
		}
	}
	var sumL, maxL []LevelFunc
	for _, f := range scanFrac {
		sumL = append(sumL, level("sum", f))
		maxL = append(maxL, level("max", f))
	}
	return MustNewSet(
		Extractor{Name: "sum", Levels: sumL},
		Extractor{Name: "max", Levels: maxL},
	)
}

func TestSetShape(t *testing.T) {
	s := makeSet()
	if s.NumProperties() != 2 || s.LevelsPerProperty() != 3 || s.NumFeatures() != 6 {
		t.Fatalf("shape = (%d, %d, %d)", s.NumProperties(), s.LevelsPerProperty(), s.NumFeatures())
	}
	if name := s.FeatureName(4); name != "max@1" {
		t.Fatalf("FeatureName(4) = %q", name)
	}
	if idx := s.Index(1, 2); idx != 5 {
		t.Fatalf("Index(1,2) = %d", idx)
	}
}

func TestNewSetRejectsRaggedLevels(t *testing.T) {
	noop := func(Input, *cost.Meter) float64 { return 0 }
	_, err := NewSet(
		Extractor{Name: "a", Levels: []LevelFunc{noop, noop}},
		Extractor{Name: "b", Levels: []LevelFunc{noop}},
	)
	if err == nil {
		t.Fatal("ragged levels accepted")
	}
	if _, err := NewSet(); err == nil {
		t.Fatal("empty set accepted")
	}
	if _, err := NewSet(Extractor{Name: "z"}); err == nil {
		t.Fatal("zero-level extractor accepted")
	}
}

func TestExtractAllValuesAndCosts(t *testing.T) {
	s := makeSet()
	in := sliceInput{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	vals, costs := s.ExtractAll(in)
	// sum@2 (full scan) = 55, max@2 = 10.
	if vals[s.Index(0, 2)] != 55 {
		t.Fatalf("sum@2 = %v", vals[s.Index(0, 2)])
	}
	if vals[s.Index(1, 2)] != 10 {
		t.Fatalf("max@2 = %v", vals[s.Index(1, 2)])
	}
	// Costs must increase with level.
	for p := 0; p < 2; p++ {
		for l := 1; l < 3; l++ {
			if costs[s.Index(p, l)] <= costs[s.Index(p, l-1)] {
				t.Fatalf("cost of level %d not above level %d: %v", l, l-1, costs)
			}
		}
	}
}

func TestExtractSubsetChargesOnlySelected(t *testing.T) {
	s := makeSet()
	in := sliceInput{5, 4, 3, 2, 1, 0, 0, 0, 0, 0}
	m := cost.NewMeter()
	idx := []int{s.Index(0, 0)} // sum@0: scans 1 element
	vals := s.ExtractSubset(in, idx, m)
	if vals[s.Index(0, 0)] != 5 {
		t.Fatalf("sum@0 = %v", vals[s.Index(0, 0)])
	}
	if m.Count(cost.Scan) != 1 {
		t.Fatalf("scanned %d elements, want 1", m.Count(cost.Scan))
	}
	// Unselected slots are zero.
	if vals[s.Index(1, 2)] != 0 {
		t.Fatal("unselected feature populated")
	}
	// Nil meter is allowed.
	_ = s.ExtractSubset(in, idx, nil)
}

func TestEnumerateSubsets(t *testing.T) {
	subsets := EnumerateSubsets(2, 3)
	if len(subsets) != 16 { // (3+1)^2
		t.Fatalf("got %d subsets, want 16", len(subsets))
	}
	// First is empty, last is all-top-level.
	if !subsets[0].Empty() {
		t.Fatalf("first subset not empty: %v", subsets[0])
	}
	last := subsets[len(subsets)-1]
	if last[0] != 2 || last[1] != 2 {
		t.Fatalf("last subset = %v", last)
	}
	// All unique.
	seen := map[string]bool{}
	for _, ss := range subsets {
		k := ss.String()
		if seen[k] {
			t.Fatalf("duplicate subset %v", ss)
		}
		seen[k] = true
	}
	// 4 properties at 3 levels — the paper's "44 unique subsets ... 256".
	if n := len(EnumerateSubsets(4, 3)); n != 256 {
		t.Fatalf("4 props x 3 levels = %d subsets, want 256", n)
	}
}

func TestSubsetIndices(t *testing.T) {
	ss := Subset{-1, 1}
	idx := ss.Indices(3)
	if len(idx) != 1 || idx[0] != 4 {
		t.Fatalf("Indices = %v", idx)
	}
	if Subset([]int{-1, -1}).Indices(3) != nil {
		t.Fatal("empty subset should have nil indices")
	}
}

func TestDescribe(t *testing.T) {
	s := makeSet()
	desc := s.Describe(Subset{0, 2})
	if desc != "{sum@0, max@2}" {
		t.Fatalf("Describe = %q", desc)
	}
	if d := s.Describe(Subset{-1, -1}); d != "{}" {
		t.Fatalf("empty Describe = %q", d)
	}
}

// TestExtractSubsetIntoMatchesExtractSubset pins the pooled-row serving
// entry point to the allocating one, including the zeroing of unlisted
// entries when a dirty row is reused.
func TestExtractSubsetIntoMatchesExtractSubset(t *testing.T) {
	set := makeSet()
	in := sliceInput{9, 1, 8, 2, 7, 3, 6, 4, 5, 0}
	indices := []int{set.Index(0, 1), set.Index(1, 2)}
	want := set.ExtractSubset(in, indices, nil)

	dst := make([]float64, set.NumFeatures())
	for i := range dst {
		dst[i] = 99 // dirt that must be cleared
	}
	m1 := cost.NewMeter()
	m2 := cost.NewMeter()
	set.ExtractSubset(in, indices, m1)
	got := set.ExtractSubsetInto(dst, in, indices, m2)
	for f := range want {
		if got[f] != want[f] {
			t.Fatalf("feature %d: into=%v subset=%v", f, got[f], want[f])
		}
	}
	if m1.Elapsed() != m2.Elapsed() {
		t.Fatalf("meters diverged: %v vs %v", m1.Elapsed(), m2.Elapsed())
	}
}
