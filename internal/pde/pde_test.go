package pde

import (
	"math"
	"testing"

	"inputtune/internal/rng"
)

// manufactured2D builds f = -Δu for u = sin(aπx)sin(bπy) (whose exact
// discrete solution we can compare against after solving).
func manufactured2D(n, a, b int) (f, exactU *Grid2D) {
	f = NewGrid2D(n)
	exactU = NewGrid2D(n)
	h := 1.0 / float64(n+1)
	// Discrete eigenvalue of the 5-point Laplacian for mode (a, b).
	sa := math.Sin(float64(a) * math.Pi * h / 2)
	sb := math.Sin(float64(b) * math.Pi * h / 2)
	lam := 4 * (sa*sa + sb*sb) / (h * h)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			x := float64(i+1) * h
			y := float64(j+1) * h
			u := math.Sin(float64(a)*math.Pi*x) * math.Sin(float64(b)*math.Pi*y)
			exactU.Set(i, j, u)
			f.Set(i, j, lam*u)
		}
	}
	return f, exactU
}

func TestDirectPoisson2DExact(t *testing.T) {
	for _, n := range []int{7, 15, 31} {
		f, exact := manufactured2D(n, 1, 2)
		var w Work
		u := DirectPoisson2D(f, &w)
		if err := u.SubRMS(exact); err > 1e-10 {
			t.Fatalf("n=%d: direct solver error %v", n, err)
		}
		if w.Flops == 0 {
			t.Fatal("no work recorded")
		}
	}
}

func TestSORConvergesOnPoisson(t *testing.T) {
	n := 15
	f, exact := manufactured2D(n, 1, 1)
	u := NewGrid2D(n)
	var w Work
	SOR2D(u, f, 1.5, 400, &w)
	if err := u.SubRMS(exact); err > 1e-6*exact.RMS() {
		t.Fatalf("SOR error %v after 400 sweeps", err)
	}
}

func TestJacobiReducesError(t *testing.T) {
	n := 15
	f, exact := manufactured2D(n, 3, 3)
	u := NewGrid2D(n)
	var w Work
	before := u.SubRMS(exact)
	for it := 0; it < 100; it++ {
		Jacobi2D(u, f, 0.8, &w)
	}
	after := u.SubRMS(exact)
	if after >= before/10 {
		t.Fatalf("Jacobi barely converged: %v -> %v", before, after)
	}
}

func TestMultigridFastConvergence2D(t *testing.T) {
	n := 31
	f, exact := manufactured2D(n, 1, 1)
	u := NewGrid2D(n)
	var w Work
	opt := MGOptions2D{Pre: 2, Post: 2, Gamma: 1, Omega: 1.0}
	for c := 0; c < 10; c++ {
		MGCycle2D(u, f, opt, &w)
	}
	rel := u.SubRMS(exact) / exact.RMS()
	if rel > 1e-7 {
		t.Fatalf("multigrid relative error %v after 10 V-cycles", rel)
	}
}

func TestMultigridBeatsSORPerFlop(t *testing.T) {
	n := 63
	f, exact := manufactured2D(n, 1, 1)
	// Multigrid: 8 V-cycles.
	uMG := NewGrid2D(n)
	var wMG Work
	for c := 0; c < 8; c++ {
		MGCycle2D(uMG, f, MGOptions2D{Pre: 2, Post: 2, Gamma: 1, Omega: 1.0}, &wMG)
	}
	errMG := uMG.SubRMS(exact)
	// SOR with the same flop budget.
	uSOR := NewGrid2D(n)
	var wSOR Work
	for wSOR.Flops < wMG.Flops {
		SOR2D(uSOR, f, 1.7, 1, &wSOR)
	}
	errSOR := uSOR.SubRMS(exact)
	if errMG >= errSOR {
		t.Fatalf("multigrid (err %v, %d flops) no better than SOR (err %v, %d flops)",
			errMG, wMG.Flops, errSOR, wSOR.Flops)
	}
}

func TestWCycleDoesMoreWork(t *testing.T) {
	n := 31
	f, _ := manufactured2D(n, 1, 1)
	var wV, wW Work
	uV, uW := NewGrid2D(n), NewGrid2D(n)
	MGCycle2D(uV, f, MGOptions2D{Pre: 1, Post: 1, Gamma: 1, Omega: 1}, &wV)
	MGCycle2D(uW, f, MGOptions2D{Pre: 1, Post: 1, Gamma: 2, Omega: 1}, &wW)
	if wW.Flops <= wV.Flops {
		t.Fatalf("W-cycle flops %d not above V-cycle %d", wW.Flops, wV.Flops)
	}
}

func TestResidualZeroAtSolution(t *testing.T) {
	n := 15
	f, exact := manufactured2D(n, 2, 1)
	r := NewGrid2D(n)
	var w Work
	Residual2D(exact, f, r, &w)
	if rms := r.RMS(); rms > 1e-9*f.RMS() {
		t.Fatalf("residual at exact solution = %v", rms)
	}
}

// --- 3D -------------------------------------------------------------------

// constOp returns a Helmholtz operator with a ≡ 1 and the given c.
func constOp(n int, c float64) *Helmholtz3D {
	a := NewGrid3D(n)
	for i := range a.Data {
		a.Data[i] = 1
	}
	return &Helmholtz3D{A: a, C: c}
}

// manufactured3D builds f = L u for mode (1,1,1) under constant a=1.
func manufactured3D(n int, c float64) (op *Helmholtz3D, f, exact *Grid3D) {
	op = constOp(n, c)
	f = NewGrid3D(n)
	exact = NewGrid3D(n)
	h := 1.0 / float64(n+1)
	s1 := math.Sin(math.Pi * h / 2)
	lam := 3*4*s1*s1/(h*h) + c
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				x, y, z := float64(i+1)*h, float64(j+1)*h, float64(k+1)*h
				u := math.Sin(math.Pi*x) * math.Sin(math.Pi*y) * math.Sin(math.Pi*z)
				exact.Set(i, j, k, u)
				f.Set(i, j, k, lam*u)
			}
		}
	}
	return op, f, exact
}

func TestDirectHelmholtz3DExactForConstantCoeff(t *testing.T) {
	for _, n := range []int{7, 15} {
		op, f, exact := manufactured3D(n, 2.0)
		var w Work
		u := DirectHelmholtz3D(op, f, &w)
		if err := u.SubRMS(exact); err > 1e-10 {
			t.Fatalf("n=%d: direct error %v", n, err)
		}
	}
}

func TestDirectHelmholtz3DApproximateForVariableCoeff(t *testing.T) {
	n := 7
	op, f, exact := manufactured3D(n, 1.0)
	// Perturb the coefficient field: direct now solves the wrong operator.
	r := rng.New(1)
	for i := range op.A.Data {
		op.A.Data[i] = 1 + 0.5*r.Float64()
	}
	var w Work
	u := DirectHelmholtz3D(op, f, &w)
	// The error should be visible (direct is only approximate here)...
	if err := u.SubRMS(exact); err < 1e-8 {
		t.Fatalf("variable-coefficient direct unexpectedly exact (err %v)", err)
	}
	// ...but multigrid on the true operator should beat it easily.
	uMG := NewGrid3D(n)
	var wMG Work
	fTrue := NewGrid3D(n)
	// Build the true RHS for the perturbed operator: f' = L exact.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				lu, _ := op.apply(exact, i, j, k)
				fTrue.Set(i, j, k, lu)
			}
		}
	}
	for c := 0; c < 12; c++ {
		MGCycle3D(op, uMG, fTrue, MGOptions3D{Pre: 2, Post: 2, Gamma: 1, Omega: 1}, &wMG)
	}
	if errMG := uMG.SubRMS(exact); errMG > 1e-6 {
		t.Fatalf("variable-coefficient multigrid error %v", errMG)
	}
}

func TestSOR3DConverges(t *testing.T) {
	n := 7
	op, f, exact := manufactured3D(n, 0.5)
	u := NewGrid3D(n)
	var w Work
	SOR3D(op, u, f, 1.5, 200, &w)
	if err := u.SubRMS(exact); err > 1e-8 {
		t.Fatalf("SOR3D error %v", err)
	}
}

func TestJacobi3DReducesError(t *testing.T) {
	n := 7
	op, f, exact := manufactured3D(n, 0)
	u := NewGrid3D(n)
	var w Work
	before := u.SubRMS(exact)
	for it := 0; it < 120; it++ {
		Jacobi3D(op, u, f, 0.8, &w)
	}
	if after := u.SubRMS(exact); after > before/100 {
		t.Fatalf("Jacobi3D barely converged: %v -> %v", before, after)
	}
}

func TestMultigrid3DConverges(t *testing.T) {
	n := 15
	op, f, exact := manufactured3D(n, 1.0)
	u := NewGrid3D(n)
	var w Work
	for c := 0; c < 10; c++ {
		MGCycle3D(op, u, f, MGOptions3D{Pre: 2, Post: 2, Gamma: 1, Omega: 1}, &w)
	}
	rel := u.SubRMS(exact) / exact.RMS()
	if rel > 1e-6 {
		t.Fatalf("3D multigrid relative error %v", rel)
	}
}

func TestRestrictProlongRoundTrip2D(t *testing.T) {
	// Restriction of a smooth field then prolongation should roughly
	// reproduce it (low-pass behaviour).
	n := 31
	g := NewGrid2D(n)
	h := 1.0 / float64(n+1)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			g.Set(i, j, math.Sin(math.Pi*float64(i+1)*h)*math.Sin(math.Pi*float64(j+1)*h))
		}
	}
	var w Work
	coarse := Restrict2D(g, &w)
	back := NewGrid2D(n)
	Prolong2D(coarse, back, &w)
	if err := back.SubRMS(g); err > 0.05 {
		t.Fatalf("restrict/prolong round-trip error %v", err)
	}
}

func TestGridAccessorsBoundary(t *testing.T) {
	g := NewGrid2D(4)
	if g.At(-1, 0) != 0 || g.At(0, 4) != 0 {
		t.Fatal("2D boundary not zero")
	}
	g3 := NewGrid3D(3)
	if g3.At(3, 0, 0) != 0 || g3.At(0, -1, 0) != 0 {
		t.Fatal("3D boundary not zero")
	}
	g.Set(1, 2, 5)
	if g.At(1, 2) != 5 {
		t.Fatal("2D set/get broken")
	}
	g3.Set(1, 2, 0, 7)
	if g3.At(1, 2, 0) != 7 {
		t.Fatal("3D set/get broken")
	}
}
