package pde

import (
	"math"
	"testing"

	"inputtune/internal/rng"
)

// Property tests for the dense 2-D sine transform behind both direct
// solvers. The differential tests (differential_test.go) prove dstApply2D
// and dstApply3D bit-identical to the reference transforms, but both
// layers read the same cached basis; these tests check the basis and the
// transform against the mathematics instead: DST-I is its own inverse up
// to the factor (N+1)/2 per axis, and S·X·S is the double sine sum.

// dstRoundTripErr applies the 2-D transform twice, rescales by
// (2/(N+1))², and returns the largest deviation from x.
func dstRoundTripErr(x []float64, n int) float64 {
	s := sineBasisFor(n, 1.0/float64(n+1)).s
	out := dstApply2D(s, dstApply2D(s, x, n), n)
	scale := 2.0 / float64(n+1)
	scale *= scale
	worst := 0.0
	for i := range out {
		if e := math.Abs(out[i]*scale - x[i]); e > worst {
			worst = e
		}
	}
	return worst
}

// TestDSTRoundTripProperty: transforming twice and rescaling must
// reproduce the input across odd, even, power-of-two-adjacent and
// arbitrary sizes.
func TestDSTRoundTripProperty(t *testing.T) {
	r := rng.New(99)
	sizes := []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 24, 31, 32}
	for trial := 0; trial < 20; trial++ {
		sizes = append(sizes, 1+r.Intn(40))
	}
	for _, n := range sizes {
		x := make([]float64, n*n)
		for i := range x {
			x[i] = r.Range(-10, 10)
		}
		if e := dstRoundTripErr(x, n); e > 1e-10 {
			t.Fatalf("n=%d: round-trip error %.3e", n, e)
		}
	}
}

// TestDSTMatchesDenseTransform: dstApply2D over the cached basis must agree
// with an explicit evaluation of the double sine sum
// Σ_k Σ_l sin((i+1)(k+1)π/(N+1)) x[k][l] sin((l+1)(j+1)π/(N+1)).
func TestDSTMatchesDenseTransform(t *testing.T) {
	r := rng.New(7)
	for _, n := range []int{1, 2, 3, 6, 7, 10, 15, 20} {
		x := make([]float64, n*n)
		for i := range x {
			x[i] = r.Range(-5, 5)
		}
		sine := func(a, b int) float64 {
			return math.Sin(float64(a+1) * float64(b+1) * math.Pi / float64(n+1))
		}
		got := dstApply2D(sineBasisFor(n, 1.0/float64(n+1)).s, x, n)
		scale, worst := 0.0, 0.0
		want := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				sum := 0.0
				for k := 0; k < n; k++ {
					for l := 0; l < n; l++ {
						sum += sine(i, k) * x[k*n+l] * sine(l, j)
					}
				}
				want[i*n+j] = sum
				scale = math.Max(scale, math.Abs(sum))
			}
		}
		if scale == 0 {
			scale = 1
		}
		for i := range got {
			worst = math.Max(worst, math.Abs(got[i]-want[i])/scale)
		}
		if worst > 1e-12 {
			t.Fatalf("n=%d: transform err %.3e", n, worst)
		}
	}
}

// FuzzDSTRoundTrip drives the round-trip property from fuzzed inputs:
// arbitrary sizes and arbitrary finite values must survive
// transform∘transform rescaling.
func FuzzDSTRoundTrip(f *testing.F) {
	f.Add(uint8(7), int64(1), int64(-2), int64(3))
	f.Add(uint8(8), int64(1000), int64(0), int64(-1000))
	f.Add(uint8(12), int64(-7), int64(7), int64(123456))
	f.Add(uint8(1), int64(42), int64(0), int64(0))
	f.Fuzz(func(t *testing.T, sz uint8, a, b, c int64) {
		n := 1 + int(sz)%32
		x := make([]float64, n*n)
		seeds := []int64{a, b, c}
		norm := 0.0
		for i := range x {
			x[i] = float64(seeds[i%3]%1000) / 7 * float64(i%n+1)
			norm = math.Max(norm, math.Abs(x[i]))
		}
		if e := dstRoundTripErr(x, n); e > 1e-10*(1+norm) {
			t.Fatalf("n=%d: round-trip error %.3e (norm %g)", n, e, norm)
		}
	})
}
