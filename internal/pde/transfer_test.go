package pde

import (
	"math"
	"testing"

	"inputtune/internal/rng"
)

// Additional property tests for the multigrid transfer operators and
// smoother stability.

func TestRestrict2DPreservesConstantsApproximately(t *testing.T) {
	// Full weighting of an interior-constant field returns that constant
	// away from the boundary (where the zero halo bleeds in).
	n := 31
	g := NewGrid2D(n)
	for i := range g.Data {
		g.Data[i] = 7
	}
	var w Work
	c := Restrict2D(g, &w)
	mid := c.N / 2
	if v := c.At(mid, mid); math.Abs(v-7) > 1e-12 {
		t.Fatalf("interior restriction of constant = %v", v)
	}
}

func TestProlong2DLinearity(t *testing.T) {
	// Prolongation is linear: P(a+b) = P(a) + P(b).
	nc, nf := 7, 15
	r := rng.New(1)
	a, b := NewGrid2D(nc), NewGrid2D(nc)
	for i := range a.Data {
		a.Data[i] = r.Norm(0, 1)
		b.Data[i] = r.Norm(0, 1)
	}
	sum := NewGrid2D(nc)
	for i := range sum.Data {
		sum.Data[i] = a.Data[i] + b.Data[i]
	}
	var w Work
	pa, pb, ps := NewGrid2D(nf), NewGrid2D(nf), NewGrid2D(nf)
	Prolong2D(a, pa, &w)
	Prolong2D(b, pb, &w)
	Prolong2D(sum, ps, &w)
	for i := range ps.Data {
		if math.Abs(ps.Data[i]-(pa.Data[i]+pb.Data[i])) > 1e-12 {
			t.Fatal("prolongation not linear")
		}
	}
}

func TestRestrict3DProlong3DRoundTrip(t *testing.T) {
	n := 15
	g := NewGrid3D(n)
	h := 1.0 / float64(n+1)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				g.Set(i, j, k, math.Sin(math.Pi*float64(i+1)*h)*
					math.Sin(math.Pi*float64(j+1)*h)*math.Sin(math.Pi*float64(k+1)*h))
			}
		}
	}
	var w Work
	coarse := Restrict3D(g, &w)
	if coarse.N != 7 {
		t.Fatalf("coarse N = %d", coarse.N)
	}
	back := NewGrid3D(n)
	Prolong3D(coarse, back, &w)
	if err := back.SubRMS(g); err > 0.08 {
		t.Fatalf("3D smooth round-trip error %v", err)
	}
}

func TestSORStableForValidOmega(t *testing.T) {
	// SOR must not diverge for omega in (0, 2) on the model problem.
	n := 15
	f, exact := manufactured2D(n, 2, 2)
	for _, omega := range []float64{0.5, 1.0, 1.5, 1.9} {
		u := NewGrid2D(n)
		var w Work
		SOR2D(u, f, omega, 100, &w)
		if err := u.SubRMS(exact); math.IsNaN(err) || err > exact.RMS()*10 {
			t.Fatalf("omega=%v diverged (err %v)", omega, err)
		}
	}
}

func TestHelmholtzCTermStabilises(t *testing.T) {
	// Larger c makes the operator more diagonally dominant: Jacobi should
	// converge at least as fast.
	n := 7
	opSmall, f, _ := manufactured3D(n, 0.1)
	opBig := constOp(n, 50)
	uS, uB := NewGrid3D(n), NewGrid3D(n)
	var w Work
	for it := 0; it < 40; it++ {
		Jacobi3D(opSmall, uS, f, 0.8, &w)
		Jacobi3D(opBig, uB, f, 0.8, &w)
	}
	rS, rB := NewGrid3D(n), NewGrid3D(n)
	Residual3D(opSmall, uS, f, rS, &w)
	Residual3D(opBig, uB, f, rB, &w)
	if rB.RMS() > rS.RMS()*1.5 {
		t.Fatalf("large-c residual %v much worse than small-c %v", rB.RMS(), rS.RMS())
	}
}

func TestWorkAccumulates(t *testing.T) {
	n := 15
	f, _ := manufactured2D(n, 1, 1)
	u := NewGrid2D(n)
	var w Work
	SOR2D(u, f, 1.0, 1, &w)
	one := w.Flops
	SOR2D(u, f, 1.0, 1, &w)
	if w.Flops != 2*one {
		t.Fatalf("work not additive: %d then %d", one, w.Flops)
	}
	if one != 8*n*n {
		t.Fatalf("SOR sweep charged %d flops, want %d", one, 8*n*n)
	}
}

func TestDirectSolverSizesMatchTheory(t *testing.T) {
	// Direct 2D is O(N^3): doubling N should ~8x the flops.
	f15, _ := manufactured2D(15, 1, 1)
	f31, _ := manufactured2D(31, 1, 1)
	var w15, w31 Work
	DirectPoisson2D(f15, &w15)
	DirectPoisson2D(f31, &w31)
	ratio := float64(w31.Flops) / float64(w15.Flops)
	if ratio < 6 || ratio > 12 {
		t.Fatalf("direct scaling ratio %v, want ~8-9", ratio)
	}
}
