package pde

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"inputtune/internal/rng"
)

// Differential tests: the flattened boundary-split kernels and the
// hierarchy-based multigrid cycles must produce BIT-identical grids and
// identical op counts versus the reference implementations in
// reference.go, on randomized inputs across sizes (including the
// non-multigrid even sizes the guarded fallbacks handle).

func randGrid2D(n int, r *rng.RNG) *Grid2D {
	g := NewGrid2D(n)
	for i := range g.Data {
		g.Data[i] = r.Norm(0, 1)
	}
	return g
}

func randGrid3D(n int, r *rng.RNG) *Grid3D {
	g := NewGrid3D(n)
	for i := range g.Data {
		g.Data[i] = r.Norm(0, 1)
	}
	return g
}

// randOp3D builds a positive random-coefficient Helmholtz operator.
func randOp3D(n int, r *rng.RNG) *Helmholtz3D {
	a := NewGrid3D(n)
	for i := range a.Data {
		a.Data[i] = r.Range(0.2, 3)
	}
	return &Helmholtz3D{A: a, C: r.Range(0, 4)}
}

// sameBits2D fails the test unless got and want match bit for bit.
func sameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: cell %d differs: %v (%#x) vs %v (%#x)",
				label, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func sameWork(t *testing.T, label string, got, want Work) {
	t.Helper()
	if got != want {
		t.Fatalf("%s: flops %d vs reference %d", label, got.Flops, want.Flops)
	}
}

var diffSizes2D = []int{1, 2, 3, 4, 5, 7, 8, 15, 16, 31}

func TestKernels2DMatchReference(t *testing.T) {
	r := rng.New(7)
	for _, n := range diffSizes2D {
		for _, omega := range []float64{0.8, 1.0, 1.5, 1.93} {
			u := randGrid2D(n, r)
			f := randGrid2D(n, r)

			uRef, uNew := u.Clone(), u.Clone()
			var wRef, wNew Work
			for s := 0; s < 3; s++ { // repeated sweeps compound any drift
				referenceSOR2D(uRef, f, omega, &wRef)
			}
			SOR2D(uNew, f, omega, 3, &wNew)
			sameBits(t, "SOR2D", uNew.Data, uRef.Data)
			sameWork(t, "SOR2D", wNew, wRef)

			uRef, uNew = u.Clone(), u.Clone()
			wRef, wNew = Work{}, Work{}
			for s := 0; s < 3; s++ {
				referenceJacobi2D(uRef, f, omega, &wRef)
				Jacobi2D(uNew, f, omega, &wNew)
			}
			sameBits(t, "Jacobi2D", uNew.Data, uRef.Data)
			sameWork(t, "Jacobi2D", wNew, wRef)

			rRef, rNew := NewGrid2D(n), NewGrid2D(n)
			wRef, wNew = Work{}, Work{}
			referenceResidual2D(u, f, rRef, &wRef)
			Residual2D(u, f, rNew, &wNew)
			sameBits(t, "Residual2D", rNew.Data, rRef.Data)
			sameWork(t, "Residual2D", wNew, wRef)

			if n >= 3 {
				wRef, wNew = Work{}, Work{}
				cRef := referenceRestrict2D(u, &wRef)
				cNew := Restrict2D(u, &wNew)
				sameBits(t, "Restrict2D", cNew.Data, cRef.Data)
				sameWork(t, "Restrict2D", wNew, wRef)

				coarse := randGrid2D((n-1)/2, r)
				fRef, fNew := u.Clone(), u.Clone()
				wRef, wNew = Work{}, Work{}
				referenceProlong2D(coarse, fRef, &wRef)
				Prolong2D(coarse, fNew, &wNew)
				sameBits(t, "Prolong2D", fNew.Data, fRef.Data)
				sameWork(t, "Prolong2D", wNew, wRef)
			}
		}
	}
}

func TestMGCycle2DMatchesReference(t *testing.T) {
	r := rng.New(11)
	opts := []MGOptions2D{
		{Pre: 2, Post: 2, Gamma: 1, Omega: 1},
		{Pre: 0, Post: 1, Gamma: 2, Omega: 1.5},
		{Pre: 3, Post: 0, Gamma: 2, Omega: 1},
		{Pre: 1, Post: 1, Gamma: 1, Omega: 1.2},
		{Pre: 0, Post: 0, Gamma: 1, Omega: 0}, // defaults path
	}
	for _, n := range []int{3, 7, 15, 31} {
		for _, opt := range opts {
			f := randGrid2D(n, r)
			uRef, uNew := NewGrid2D(n), NewGrid2D(n)
			var wRef, wNew Work
			h := NewHierarchy2D(n)
			for c := 0; c < 4; c++ {
				ReferenceMGCycle2D(uRef, f, opt, &wRef)
				h.Cycle(uNew, f, opt, &wNew)
				sameBits(t, "MGCycle2D", uNew.Data, uRef.Data)
				sameWork(t, "MGCycle2D", wNew, wRef)
			}
		}
	}
}

var diffSizes3D = []int{1, 2, 3, 4, 5, 7, 8, 15}

func TestKernels3DMatchReference(t *testing.T) {
	r := rng.New(13)
	for _, n := range diffSizes3D {
		for _, omega := range []float64{0.8, 1.0, 1.6} {
			op := randOp3D(n, r)
			u := randGrid3D(n, r)
			f := randGrid3D(n, r)

			uRef, uNew := u.Clone(), u.Clone()
			var wRef, wNew Work
			for s := 0; s < 2; s++ {
				referenceSOR3D(op, uRef, f, omega, &wRef)
			}
			SOR3D(op, uNew, f, omega, 2, &wNew)
			sameBits(t, "SOR3D", uNew.Data, uRef.Data)
			sameWork(t, "SOR3D", wNew, wRef)

			uRef, uNew = u.Clone(), u.Clone()
			wRef, wNew = Work{}, Work{}
			for s := 0; s < 2; s++ {
				referenceJacobi3D(op, uRef, f, omega, &wRef)
				Jacobi3D(op, uNew, f, omega, &wNew)
			}
			sameBits(t, "Jacobi3D", uNew.Data, uRef.Data)
			sameWork(t, "Jacobi3D", wNew, wRef)

			rRef, rNew := NewGrid3D(n), NewGrid3D(n)
			wRef, wNew = Work{}, Work{}
			referenceResidual3D(op, u, f, rRef, &wRef)
			Residual3D(op, u, f, rNew, &wNew)
			sameBits(t, "Residual3D", rNew.Data, rRef.Data)
			sameWork(t, "Residual3D", wNew, wRef)

			if n >= 3 {
				wRef, wNew = Work{}, Work{}
				cRef := referenceRestrict3D(u, &wRef)
				cNew := Restrict3D(u, &wNew)
				sameBits(t, "Restrict3D", cNew.Data, cRef.Data)
				sameWork(t, "Restrict3D", wNew, wRef)

				coarse := randGrid3D((n-1)/2, r)
				fRef, fNew := u.Clone(), u.Clone()
				wRef, wNew = Work{}, Work{}
				referenceProlong3D(coarse, fRef, &wRef)
				Prolong3D(coarse, fNew, &wNew)
				sameBits(t, "Prolong3D", fNew.Data, fRef.Data)
				sameWork(t, "Prolong3D", wNew, wRef)
			}
		}
	}
}

func TestMGCycle3DMatchesReference(t *testing.T) {
	r := rng.New(17)
	opts := []MGOptions3D{
		{Pre: 2, Post: 2, Gamma: 1, Omega: 1},
		{Pre: 3, Post: 3, Gamma: 2, Omega: 1}, // the exactSolution shape
		{Pre: 0, Post: 1, Gamma: 2, Omega: 1.4},
		{Pre: 0, Post: 0, Gamma: 0, Omega: 0}, // defaults path
	}
	for _, n := range []int{3, 7, 15} {
		for _, opt := range opts {
			op := randOp3D(n, r)
			f := randGrid3D(n, r)
			uRef, uNew := NewGrid3D(n), NewGrid3D(n)
			var wRef, wNew Work
			h := NewHierarchy3D(op)
			for c := 0; c < 3; c++ {
				ReferenceMGCycle3D(op, uRef, f, opt, &wRef)
				h.Cycle(uNew, f, opt, &wNew)
				sameBits(t, "MGCycle3D", uNew.Data, uRef.Data)
				sameWork(t, "MGCycle3D", wNew, wRef)
			}
		}
	}
}

// multiSweepCounts and multiSweepSizes span the multi-sweep kernels'
// schedules: no sweep, a lone sweep, partial and full wavefronts, several
// wavefronts with a remainder, and grids from all-boundary to the largest
// poisson2d training size. 3-D stops at multiSweepMax3D, twice the largest
// helmholtz3d size: a 63³ grid would make this test dominate the package's
// -race run.
var (
	multiSweepCounts = []int{0, 1, 2, 3, 4, 5, 8, 41}
	multiSweepSizes  = []int{1, 2, 3, 7, 15, 31, 63}
)

const multiSweepMax3D = 31

// TestMultiSweepSORMatchesReference proves one SOR2D or SOR3D call of k
// sweeps equals k consecutive reference sweeps bit for bit and flop for
// flop. The reference runs once up to the largest k and is compared at
// each k on the way; each k gets a fresh multi-sweep call from the same
// start. 3-D runs through Hierarchy3D.SOR (the production path) and, at
// the smaller sizes, through the self-padding SOR3D.
func TestMultiSweepSORMatchesReference(t *testing.T) {
	r := rng.New(53)
	maxK := multiSweepCounts[len(multiSweepCounts)-1]
	for _, n := range multiSweepSizes {
		for _, omega := range []float64{1.0, 1.7} {
			u0, f := randGrid2D(n, r), randGrid2D(n, r)
			ref := u0.Clone()
			var wRef Work
			next := 0
			for done := 0; done <= maxK; done++ {
				if done == multiSweepCounts[next] {
					u := u0.Clone()
					var w Work
					SOR2D(u, f, omega, done, &w)
					label := fmt.Sprintf("n=%d omega=%v SOR2D×%d", n, omega, done)
					sameBits(t, label, u.Data, ref.Data)
					sameWork(t, label, w, wRef)
					next++
				}
				referenceSOR2D(ref, f, omega, &wRef)
			}
		}

		if n > multiSweepMax3D {
			continue
		}
		op := randOp3D(n, r)
		u0, f := randGrid3D(n, r), randGrid3D(n, r)
		h := NewHierarchy3D(op)
		ref := u0.Clone()
		var wRef Work
		next := 0
		for done := 0; done <= maxK; done++ {
			if done == multiSweepCounts[next] {
				u := u0.Clone()
				var w Work
				h.SOR(u, f, 1.3, done, &w)
				label := fmt.Sprintf("n=%d Hierarchy3D.SOR×%d", n, done)
				sameBits(t, label, u.Data, ref.Data)
				sameWork(t, label, w, wRef)
				if n <= 15 {
					u, w = u0.Clone(), Work{}
					SOR3D(op, u, f, 1.3, done, &w)
					label = fmt.Sprintf("n=%d SOR3D×%d", n, done)
					sameBits(t, label, u.Data, ref.Data)
					sameWork(t, label, w, wRef)
				}
				next++
			}
			referenceSOR3D(op, ref, f, 1.3, &wRef)
		}
	}
}

// checkZeroGhosts fails t unless every ghost cell of the (n+2)³ scratch
// pu is +0: the padded sweep reads ghosts as the reference's out-of-range
// zero neighbours.
func checkZeroGhosts(t *testing.T, label string, pu []float64, n int) {
	t.Helper()
	p := n + 2
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			for k := 0; k < p; k++ {
				interior := i > 0 && i <= n && j > 0 && j <= n && k > 0 && k <= n
				if v := pu[(i*p+j)*p+k]; !interior && math.Float64bits(v) != 0 {
					t.Fatalf("%s: ghost (%d,%d,%d) of n=%d scratch holds %v", label, i, j, k, n, v)
				}
			}
		}
	}
}

// TestPaddedScratchAlternatingSizesMatchesReference drives one pooled
// hierarchy through smoothing runs and cycles that alternate between its
// levels' grid sizes (15, 7, 3), on fresh problems each time, and checks
// every result against the reference and every level's scratch for zero
// ghosts: a scratch that leaked one size's interior into another size's
// ghost layer would show in both.
func TestPaddedScratchAlternatingSizesMatchesReference(t *testing.T) {
	r := rng.New(59)
	n := 15
	op := randOp3D(n, r)
	h := NewHierarchy3D(op)
	opt := MGOptions3D{Pre: 2, Post: 3, Gamma: 2, Omega: 1.1}
	for round := 0; round < 4; round++ {
		u, f := randGrid3D(n, r), randGrid3D(n, r)
		sweeps := 1 + round
		uRef, uNew := u.Clone(), u.Clone()
		var wRef, wNew Work
		for s := 0; s < sweeps; s++ {
			referenceSOR3D(op, uRef, f, 1.4, &wRef)
		}
		h.SOR(uNew, f, 1.4, sweeps, &wNew)
		sameBits(t, fmt.Sprintf("round %d SOR×%d", round, sweeps), uNew.Data, uRef.Data)
		sameWork(t, fmt.Sprintf("round %d SOR×%d", round, sweeps), wNew, wRef)

		wRef, wNew = Work{}, Work{}
		ReferenceMGCycle3D(op, uRef, f, opt, &wRef)
		h.Cycle(uNew, f, opt, &wNew)
		sameBits(t, fmt.Sprintf("round %d cycle", round), uNew.Data, uRef.Data)
		sameWork(t, fmt.Sprintf("round %d cycle", round), wNew, wRef)

		for l, pu := range h.pad {
			if pu == nil {
				t.Fatalf("round %d: level %d never swept", round, l)
			}
			checkZeroGhosts(t, fmt.Sprintf("round %d level %d", round, l), pu, h.sizes[l])
		}
	}
}

// TestHierarchyReuseIsStateless proves a hierarchy carries no state between
// solves: interleaving two different problems through one hierarchy gives
// the same bits as fresh hierarchies.
func TestHierarchyReuseIsStateless(t *testing.T) {
	r := rng.New(19)
	n := 15
	opt := MGOptions2D{Pre: 2, Post: 1, Gamma: 2, Omega: 1}
	fA, fB := randGrid2D(n, r), randGrid2D(n, r)

	shared := NewHierarchy2D(n)
	var w Work
	uA1, uB, uA2 := NewGrid2D(n), NewGrid2D(n), NewGrid2D(n)
	shared.Cycle(uA1, fA, opt, &w)
	shared.Cycle(uB, fB, opt, &w)
	shared.Cycle(uA2, fA, opt, &w)

	fresh := NewGrid2D(n)
	NewHierarchy2D(n).Cycle(fresh, fA, opt, &w)
	sameBits(t, "hierarchy reuse (first)", uA1.Data, fresh.Data)
	sameBits(t, "hierarchy reuse (after other problem)", uA2.Data, fresh.Data)

	op := randOp3D(n, r)
	f3A, f3B := randGrid3D(n, r), randGrid3D(n, r)
	opt3 := MGOptions3D{Pre: 1, Post: 2, Gamma: 2, Omega: 1}
	h3 := NewHierarchy3DFromChain(NewOpChain3D(op))
	u3A1, u3B, u3A2 := NewGrid3D(n), NewGrid3D(n), NewGrid3D(n)
	h3.Cycle(u3A1, f3A, opt3, &w)
	h3.Cycle(u3B, f3B, opt3, &w)
	h3.Cycle(u3A2, f3A, opt3, &w)
	fresh3 := NewGrid3D(n)
	NewHierarchy3D(op).Cycle(fresh3, f3A, opt3, &w)
	sameBits(t, "hierarchy3D reuse (first)", u3A1.Data, fresh3.Data)
	sameBits(t, "hierarchy3D reuse (after other problem)", u3A2.Data, fresh3.Data)
}

// TestHierarchyJacobiMatchesAllocating proves the scratch-buffer Jacobi
// path equals the allocating public function.
func TestHierarchyJacobiMatchesAllocating(t *testing.T) {
	r := rng.New(23)
	n := 15
	f := randGrid2D(n, r)
	u1 := randGrid2D(n, r)
	uAlloc, uWS := u1.Clone(), u1.Clone()
	h := NewHierarchy2D(n)
	var w1, w2 Work
	for s := 0; s < 5; s++ {
		Jacobi2D(uAlloc, f, 0.8, &w1)
		h.Jacobi(uWS, f, 0.8, &w2)
	}
	sameBits(t, "Hierarchy2D.Jacobi", uWS.Data, uAlloc.Data)
	sameWork(t, "Hierarchy2D.Jacobi", w2, w1)

	op := randOp3D(7, r)
	f3 := randGrid3D(7, r)
	u3 := randGrid3D(7, r)
	uAlloc3, uWS3 := u3.Clone(), u3.Clone()
	h3 := NewHierarchy3D(op)
	w1, w2 = Work{}, Work{}
	for s := 0; s < 5; s++ {
		Jacobi3D(op, uAlloc3, f3, 0.8, &w1)
		h3.Jacobi(uWS3, f3, 0.8, &w2)
		SOR3D(op, uAlloc3, f3, 1.2, s, &w1)
		h3.SOR(uWS3, f3, 1.2, s, &w2)
	}
	sameBits(t, "Hierarchy3D.Jacobi/SOR", uWS3.Data, uAlloc3.Data)
	sameWork(t, "Hierarchy3D.Jacobi/SOR", w2, w1)
}

// TestOpChainMatchesPerCycleCoarsening proves the precomputed operator
// chain equals repeated on-the-fly coarsening.
func TestOpChainMatchesPerCycleCoarsening(t *testing.T) {
	r := rng.New(29)
	op := randOp3D(15, r)
	chain := NewOpChain3D(op)
	cur := op
	for l, got := range chain.ops {
		if l > 0 {
			cur = cur.coarsen()
		}
		sameBits(t, "OpChain3D coefficients", got.A.Data, cur.A.Data)
		if got.C != cur.C {
			t.Fatalf("chain level %d: C %v vs %v", l, got.C, cur.C)
		}
	}
}

// dstSizes covers the all-boundary sizes, every multigrid ladder size the
// benchmarks use and the largest poisson2d training size.
var dstSizes = []int{1, 2, 3, 7, 15, 31, 63}

// TestDSTApplyMatchesReference proves the row-order dense transforms are
// bit-identical to the triple-loop reference ones.
func TestDSTApplyMatchesReference(t *testing.T) {
	r := rng.New(31)
	for _, n := range dstSizes {
		s := sineBasisFor(n, 1.0/float64(n+1)).s
		x := randGrid2D(n, r)
		sameBits(t, "dstApply2D", dstApply2D(s, x.Data, n), referenceDSTApply2D(s, x.Data, n))
		if n <= 31 {
			x3 := randGrid3D(n, r)
			sameBits(t, "dstApply3D", dstApply3D(s, x3.Data, n), referenceDSTApply3D(s, x3.Data, n))
		}
	}
}

// TestDirectSolversMatchReference proves DirectPoisson2D and
// DirectHelmholtz3D equal, bit for bit, the same spectral solve composed
// from the reference transforms.
func TestDirectSolversMatchReference(t *testing.T) {
	r := rng.New(37)
	for _, n := range dstSizes {
		b := sineBasisFor(n, 1.0/float64(n+1))

		f := randGrid2D(n, r)
		var w Work
		got := DirectPoisson2D(f, &w)
		fh := referenceDSTApply2D(b.s, f.Data, n)
		norm := 4.0 / (float64(n+1) * float64(n+1))
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				fh[i*n+j] *= norm / (b.lam[i] + b.lam[j])
			}
		}
		sameBits(t, "DirectPoisson2D", got.Data, referenceDSTApply2D(b.s, fh, n))
		sameWork(t, "DirectPoisson2D", w, Work{Flops: 8*n*n*n + 2*n*n})

		if n > 31 {
			continue
		}
		op := randOp3D(n, r)
		f3 := randGrid3D(n, r)
		w = Work{}
		got3 := DirectHelmholtz3D(op, f3, &w)
		abar := 0.0
		for _, v := range op.A.Data {
			abar += v
		}
		abar /= float64(len(op.A.Data))
		fh3 := referenceDSTApply3D(b.s, f3.Data, n)
		norm3 := math.Pow(2.0/float64(n+1), 3)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				for k := 0; k < n; k++ {
					fh3[(i*n+j)*n+k] *= norm3 / (abar*(b.lam[i]+b.lam[j]+b.lam[k]) + op.C)
				}
			}
		}
		sameBits(t, "DirectHelmholtz3D", got3.Data, referenceDSTApply3D(b.s, fh3, n))
		sameWork(t, "DirectHelmholtz3D", w, Work{Flops: 6*n*n*n*n + 3*n*n*n})
	}
}

// degenerateValues are the IEEE-754 edge cases the degenerate-input
// differential injects into coefficient and grid cells.
var degenerateValues = []struct {
	name string
	v    float64
}{
	{"+0", 0},
	{"-0", math.Copysign(0, -1)},
	{"+subnormal", math.SmallestNonzeroFloat64},
	{"-subnormal", -math.SmallestNonzeroFloat64},
	{"+Inf", math.Inf(1)},
	{"-Inf", math.Inf(-1)},
	{"NaN", math.NaN()},
	// Finite coefficients beyond MaxFloat64/2 overflow the mirrored-ghost
	// face average, so an operator holding one keeps the boundary-split
	// SOR sweep (mirrorExact3D).
	{"+Max", math.MaxFloat64},
	{"-Max", -math.MaxFloat64},
}

// degenerateCells returns the flat indices the degenerate value is
// injected at: the corner, the midpoint of an edge through it, the centre
// and the centre of every face, where exactly one neighbour lies outside
// the grid (cells coincide on tiny grids).
func degenerateCells(n, dims int) []int {
	mid := n / 2
	at := func(axis, v int) int { // flat index of mid everywhere but axis
		idx := 0
		for d := 0; d < dims; d++ {
			c := mid
			if d == axis {
				c = v
			}
			idx = idx*n + c
		}
		return idx
	}
	cells := []int{0, mid, at(-1, 0)}
	for d := 0; d < dims; d++ {
		cells = append(cells, at(d, 0), at(d, n-1))
	}
	return cells
}

// checkerboard gives every cell of xs the magnitude it has and the sign
// (-1)^(i+j[+k]), so each cell's neighbours all carry the opposite sign.
// Infinite coefficients then meet same-signed flux terms, which keeps an
// Inf*0 term at an out-of-range face from being masked by Inf - Inf.
func checkerboard(xs []float64, n int) {
	for idx := range xs {
		parity := 0
		for rest := idx; rest > 0; rest /= n {
			parity += rest % n
		}
		xs[idx] = math.Copysign(xs[idx], float64(1-2*(parity%2)))
	}
}

// TestDegenerateKernels2DMatchReference injects ±0, subnormals, ±Inf and
// NaN into single u and f cells and checks SOR, Jacobi, the residual and a
// multigrid cycle bit for bit against the reference kernels, including the
// all-boundary sizes 1 and 2.
func TestDegenerateKernels2DMatchReference(t *testing.T) {
	r := rng.New(43)
	for _, n := range []int{1, 2, 3, 7} {
		for _, dv := range degenerateValues {
			for _, target := range []string{"u", "f", "u-checker", "f-checker"} {
				for _, cell := range degenerateCells(n, 2) {
					label := fmt.Sprintf("n=%d %s=%s@%d", n, target, dv.name, cell)
					u, f := randGrid2D(n, r), randGrid2D(n, r)
					if strings.HasSuffix(target, "-checker") {
						checkerboard(u.Data, n)
					}
					if strings.HasPrefix(target, "u") {
						u.Data[cell] = dv.v
					} else {
						f.Data[cell] = dv.v
					}

					uRef, uNew := u.Clone(), u.Clone()
					var wRef, wNew Work
					for s := 0; s < 2; s++ {
						referenceSOR2D(uRef, f, 1.3, &wRef)
					}
					SOR2D(uNew, f, 1.3, 2, &wNew)
					sameBits(t, label+" SOR2D", uNew.Data, uRef.Data)
					sameWork(t, label+" SOR2D", wNew, wRef)

					uRef, uNew = u.Clone(), u.Clone()
					wRef, wNew = Work{}, Work{}
					referenceJacobi2D(uRef, f, 0.8, &wRef)
					Jacobi2D(uNew, f, 0.8, &wNew)
					sameBits(t, label+" Jacobi2D", uNew.Data, uRef.Data)
					sameWork(t, label+" Jacobi2D", wNew, wRef)

					rRef, rNew := NewGrid2D(n), NewGrid2D(n)
					wRef, wNew = Work{}, Work{}
					referenceResidual2D(u, f, rRef, &wRef)
					Residual2D(u, f, rNew, &wNew)
					sameBits(t, label+" Residual2D", rNew.Data, rRef.Data)
					sameWork(t, label+" Residual2D", wNew, wRef)

					opt := MGOptions2D{Pre: 1, Post: 1, Gamma: 2, Omega: 1.2}
					uRef, uNew = u.Clone(), u.Clone()
					wRef, wNew = Work{}, Work{}
					ReferenceMGCycle2D(uRef, f, opt, &wRef)
					NewHierarchy2D(n).Cycle(uNew, f, opt, &wNew)
					sameBits(t, label+" MGCycle2D", uNew.Data, uRef.Data)
					sameWork(t, label+" MGCycle2D", wNew, wRef)
				}
			}
		}
	}
}

// TestDegenerateKernels3DMatchReference is the 3-D table: the degenerate
// value goes into one coefficient, u or f cell, or into the constant c,
// and SOR, Jacobi, the residual and a multigrid cycle must match the
// reference bit for bit. Boundary cells take edgeStencil3D, whose
// out-of-range faces still form a*0, so Inf and NaN coefficients reach the
// flux exactly as in the reference. The "a+nan" target also puts a NaN in
// u beside the coefficient cell: a ±MaxFloat64 coefficient's SOR update is
// NaN on every path, but only the reference's NaN carries that u's
// payload, so a padded sweep that mirrored such a coefficient would show
// there.
func TestDegenerateKernels3DMatchReference(t *testing.T) {
	r := rng.New(47)
	for _, n := range []int{1, 2, 3, 7} {
		for _, dv := range degenerateValues {
			for _, target := range []string{"a", "c", "u", "f", "a-checker", "u-checker", "a+nan"} {
				cells := degenerateCells(n, 3)
				if target == "c" {
					cells = cells[:1]
				}
				for _, cell := range cells {
					label := fmt.Sprintf("n=%d %s=%s@%d", n, target, dv.name, cell)
					op := randOp3D(n, r)
					u, f := randGrid3D(n, r), randGrid3D(n, r)
					if strings.HasSuffix(target, "-checker") {
						checkerboard(u.Data, n)
					}
					switch strings.TrimSuffix(target, "-checker") {
					case "a":
						op.A.Data[cell] = dv.v
					case "a+nan":
						op.A.Data[cell] = dv.v
						if n > 1 { // NaN into the cell's k-neighbour
							if cell%n < n-1 {
								u.Data[cell+1] = math.NaN()
							} else {
								u.Data[cell-1] = math.NaN()
							}
						}
					case "c":
						op.C = dv.v
					case "u":
						u.Data[cell] = dv.v
					default:
						f.Data[cell] = dv.v
					}

					// A 2-sweep call runs one plane-lagged pair; a 3-sweep
					// call adds a lone sweep.
					for _, sweeps := range []int{2, 3} {
						uRef, uNew := u.Clone(), u.Clone()
						var wRef, wNew Work
						for s := 0; s < sweeps; s++ {
							referenceSOR3D(op, uRef, f, 1.3, &wRef)
						}
						SOR3D(op, uNew, f, 1.3, sweeps, &wNew)
						sameBits(t, fmt.Sprintf("%s SOR3D×%d", label, sweeps), uNew.Data, uRef.Data)
						sameWork(t, fmt.Sprintf("%s SOR3D×%d", label, sweeps), wNew, wRef)
					}
					if target == "a+nan" {
						// This target pins the SOR fallback only. Two NaNs
						// with different payloads meet in Prolong3D's
						// boundary adds, whose operand order (and so the
						// surviving payload) the compiler picks.
						continue
					}

					uRef, uNew := u.Clone(), u.Clone()
					var wRef, wNew Work
					referenceJacobi3D(op, uRef, f, 0.8, &wRef)
					Jacobi3D(op, uNew, f, 0.8, &wNew)
					sameBits(t, label+" Jacobi3D", uNew.Data, uRef.Data)
					sameWork(t, label+" Jacobi3D", wNew, wRef)

					rRef, rNew := NewGrid3D(n), NewGrid3D(n)
					wRef, wNew = Work{}, Work{}
					referenceResidual3D(op, u, f, rRef, &wRef)
					Residual3D(op, u, f, rNew, &wNew)
					sameBits(t, label+" Residual3D", rNew.Data, rRef.Data)
					sameWork(t, label+" Residual3D", wNew, wRef)

					opt := MGOptions3D{Pre: 1, Post: 1, Gamma: 2, Omega: 1.2}
					uRef, uNew = u.Clone(), u.Clone()
					wRef, wNew = Work{}, Work{}
					ReferenceMGCycle3D(op, uRef, f, opt, &wRef)
					NewHierarchy3D(op).Cycle(uNew, f, opt, &wNew)
					sameBits(t, label+" MGCycle3D", uNew.Data, uRef.Data)
					sameWork(t, label+" MGCycle3D", wNew, wRef)
				}
			}
		}
	}
}
