package clustering

import (
	"math"
	"testing"

	"inputtune/internal/cost"
	"inputtune/internal/rng"
)

// This file keeps the per-iteration k-means as it was before the
// bulk-charged passes in clustering.go: it charges each distance as it is
// evaluated, stores the assignment and sums it in a second pass with fresh
// buffers. The differential tests below prove kmeansRun returns the same
// bits and charges the same per-op counts.

// referenceKmeansRun executes the parameterised k-means variant and returns the mean
// point-to-center distance.
func referenceKmeansRun(pts *Points, k, iters, init int, meter *cost.Meter) float64 {
	n := len(pts.X)
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	cx := make([]float64, k)
	cy := make([]float64, k)
	switch init {
	case InitPrefix:
		// First k points: free of charge beyond the copy, and hopeless when
		// the prefix is not representative.
		for i := 0; i < k; i++ {
			cx[i], cy[i] = pts.X[i], pts.Y[i]
		}
		meter.Charge(cost.Move, k)
	case InitRandom:
		// Deterministic stride-based pseudo-random pick seeded by the
		// input: cheap, but can draw two centers from one cluster.
		stride := int(pts.seed%uint64(n))%n + 1
		if gcd(stride, n) != 1 {
			stride = 1
		}
		idx := int(pts.seed>>7) % n
		for i := 0; i < k; i++ {
			cx[i], cy[i] = pts.X[idx], pts.Y[idx]
			idx = (idx + stride) % n
		}
		meter.Charge(cost.Move, k)
		meter.Charge(cost.Scan, k)
	default: // InitCenterPlus
		// Farthest-point (k-means++-style greedy) initialisation: k·n
		// distance evaluations, the most expensive and most robust start.
		cx[0], cy[0] = pts.X[0], pts.Y[0]
		minD := make([]float64, n)
		for i := range minD {
			minD[i] = math.Inf(1)
		}
		for c := 1; c < k; c++ {
			far, farD := 0, -1.0
			for i := 0; i < n; i++ {
				d := sq(pts.X[i]-cx[c-1]) + sq(pts.Y[i]-cy[c-1])
				meter.Charge(cost.Flop, 3)
				if d < minD[i] {
					minD[i] = d
				}
				if minD[i] > farD {
					far, farD = i, minD[i]
				}
			}
			cx[c], cy[c] = pts.X[far], pts.Y[far]
		}
		meter.Charge(cost.Move, k)
	}

	assign := make([]int, n)
	for it := 0; it < iters; it++ {
		// Assignment: n·k distance evaluations.
		for i := 0; i < n; i++ {
			best, bestD := 0, math.Inf(1)
			for c := 0; c < k; c++ {
				d := sq(pts.X[i]-cx[c]) + sq(pts.Y[i]-cy[c])
				meter.Charge(cost.Flop, 3)
				if d < bestD {
					best, bestD = c, d
				}
			}
			assign[i] = best
		}
		meter.Charge(cost.Move, n)
		// Update.
		sumX := make([]float64, k)
		sumY := make([]float64, k)
		cnt := make([]int, k)
		for i := 0; i < n; i++ {
			sumX[assign[i]] += pts.X[i]
			sumY[assign[i]] += pts.Y[i]
			cnt[assign[i]]++
		}
		meter.Charge(cost.Flop, n)
		for c := 0; c < k; c++ {
			if cnt[c] > 0 {
				cx[c] = sumX[c] / float64(cnt[c])
				cy[c] = sumY[c] / float64(cnt[c])
			}
		}
		meter.Charge(cost.Flop, k)
	}
	// Final mean distance.
	total := 0.0
	for i := 0; i < n; i++ {
		best := math.Inf(1)
		for c := 0; c < k; c++ {
			d := sq(pts.X[i]-cx[c]) + sq(pts.Y[i]-cy[c])
			meter.Charge(cost.Flop, 3)
			if d < best {
				best = d
			}
		}
		total += math.Sqrt(best)
	}
	return total / float64(n)
}

// checkKmeansMatchesReference runs both implementations and fails t unless
// the distance bits and every op count agree.
func checkKmeansMatchesReference(t *testing.T, name string, pts *Points, k, iters, init int) {
	t.Helper()
	mGot, mWant := cost.NewMeter(), cost.NewMeter()
	got := kmeansRun(pts, k, iters, init, mGot)
	want := referenceKmeansRun(pts, k, iters, init, mWant)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s k=%d iters=%d init=%s: distance %v, reference %v", name, k, iters, InitNames[init], got, want)
	}
	for op := cost.Op(0); op < cost.NumOps; op++ {
		if g, w := mGot.Count(op), mWant.Count(op); g != w {
			t.Fatalf("%s k=%d iters=%d init=%s: %s count %d, reference %d", name, k, iters, InitNames[init], op, g, w)
		}
	}
	if g, w := mGot.Elapsed(), mWant.Elapsed(); g != w {
		t.Fatalf("%s k=%d iters=%d init=%s: elapsed %v, reference %v", name, k, iters, InitNames[init], g, w)
	}
}

func TestKmeansMatchesReference(t *testing.T) {
	r := rng.New(71)
	for trial := 0; trial < 60; trial++ {
		g := Generators()[trial%len(Generators())]
		pts := g.Gen(r.IntRange(20, 400), r)
		k := r.IntRange(1, 16)
		iters := r.IntRange(1, 20)
		checkKmeansMatchesReference(t, g.Name, pts, k, iters, r.Intn(numInits))
	}
}

func TestDegenerateKmeansMatchesReference(t *testing.T) {
	r := rng.New(73)
	same := newPoints(40, "identical", r)
	for i := range same.X {
		same.X[i], same.Y[i] = 2.5, -1
	}
	nan := GenUniform(30, r)
	nan.X[7] = math.NaN()
	nan.Y[11] = math.Inf(1)
	cases := []struct {
		name     string
		pts      *Points
		k, iters int
	}{
		{"k>n", GenBlobs(5, r), 12, 4},
		{"n=1", GenUniform(1, r), 3, 2},
		{"n=1,k=1", GenUniform(1, r), 1, 1},
		{"identical", same, 8, 5},
		{"k=n", GenRing(9, r), 9, 3},
		{"k=0", GenBlobs(20, r), 0, 2},
		{"iters=0", GenOverlapping(50, r), 4, 0},
		{"nonfinite", nan, 4, 3},
	}
	for _, c := range cases {
		for init := 0; init < numInits; init++ {
			checkKmeansMatchesReference(t, c.name, c.pts, c.k, c.iters, init)
		}
	}
}

func BenchmarkKmeansRun(b *testing.B) {
	r := rng.New(79)
	pts := GenOverlapping(512, r)
	m := cost.NewMeter()
	init := 0
	for b.Loop() {
		kmeansRun(pts, 8, 10, init, m)
		init = (init + 1) % numInits
	}
}
