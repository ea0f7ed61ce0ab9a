package linalg

import (
	"math"
	"sort"
	"testing"

	"inputtune/internal/rng"
)

// This file keeps the eigensolvers and SVD routines as they were before
// the allocation-free, row-contiguous kernels: every element through the
// At/Set accessors, fresh MulVec products every power step with the
// Rayleigh product recomputed, and the residual formed through whole
// matrices. The differential tests below prove the production versions
// return the same bits and work stats.

// referencePowerIteration approximates the k dominant eigenpairs of the symmetric
// matrix a via power iteration with Hotelling deflation. Each eigenpair is
// refined for at most iters iterations or until the eigenvector rotates by
// less than tol between iterations. Returned eigenvalues are in order of
// extraction (descending |λ| in exact arithmetic).
func referencePowerIteration(a *Matrix, k, iters int, tol float64, seedVec []float64) (vals []float64, vecs *Matrix, st EigenStats) {
	if a.Rows != a.Cols {
		panic("linalg: PowerIteration of non-square matrix")
	}
	n := a.Rows
	if k > n {
		k = n
	}
	if iters <= 0 {
		iters = 100
	}
	if tol <= 0 {
		tol = 1e-10
	}
	work := a.Clone()
	vals = make([]float64, 0, k)
	vecs = NewMatrix(n, k)
	x := make([]float64, n)
	prev := make([]float64, n)
	for e := 0; e < k; e++ {
		// Deterministic start vector, perturbed per eigenpair; callers may
		// pass a seed vector to decorrelate from special structure.
		for i := range x {
			x[i] = 1 + 0.01*float64((i+e)%7)
			if seedVec != nil {
				x[i] += seedVec[i%len(seedVec)]
			}
		}
		Normalize(x)
		st.Sweeps++
		var lambda float64
		for it := 0; it < iters; it++ {
			copy(prev, x)
			y := work.MulVec(x)
			st.MatVecs++
			nrm := Normalize(y)
			if nrm == 0 {
				break
			}
			copy(x, y)
			lambda = Dot(x, work.MulVec(x))
			st.MatVecs++
			// Convergence: direction change below tol (sign-insensitive).
			diff := 0.0
			for i := range x {
				d := math.Abs(x[i]) - math.Abs(prev[i])
				diff += d * d
			}
			if math.Sqrt(diff) < tol {
				break
			}
		}
		vals = append(vals, lambda)
		for i := 0; i < n; i++ {
			vecs.Set(i, e, x[i])
		}
		// Deflate: work -= λ x x^T.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				work.Set(i, j, work.At(i, j)-lambda*x[i]*x[j])
			}
		}
	}
	return vals, vecs, st
}

// referenceSymmetricEigen computes the eigendecomposition of a symmetric matrix
// using the cyclic Jacobi method. It returns eigenvalues in descending
// order, the matching eigenvectors as the columns of V, and work stats.
func referenceSymmetricEigen(a *Matrix, maxSweeps int, tol float64) (vals []float64, vecs *Matrix, st EigenStats) {
	if a.Rows != a.Cols {
		panic("linalg: SymmetricEigen of non-square matrix")
	}
	n := a.Rows
	w := a.Clone()
	v := Identity(n)
	if maxSweeps <= 0 {
		maxSweeps = 30
	}
	if tol <= 0 {
		tol = 1e-12
	}
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += w.At(i, j) * w.At(i, j)
			}
		}
		if math.Sqrt(2*off) <= tol*w.FrobeniusNorm() {
			break
		}
		st.Sweeps++
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := w.At(p, p), w.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				st.Rotations++
				// Update rows/columns p and q of W.
				for k := 0; k < n; k++ {
					wkp, wkq := w.At(k, p), w.At(k, q)
					w.Set(k, p, c*wkp-s*wkq)
					w.Set(k, q, s*wkp+c*wkq)
				}
				for k := 0; k < n; k++ {
					wpk, wqk := w.At(p, k), w.At(q, k)
					w.Set(p, k, c*wpk-s*wqk)
					w.Set(q, k, s*wpk+c*wqk)
				}
				// Accumulate eigenvectors.
				for k := 0; k < n; k++ {
					vkp, vkq := v.At(k, p), v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}
	vals = make([]float64, n)
	for i := range vals {
		vals[i] = w.At(i, i)
	}
	// Sort eigenpairs by descending eigenvalue.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool { return vals[idx[x]] > vals[idx[y]] })
	sortedVals := make([]float64, n)
	sortedVecs := NewMatrix(n, n)
	for newCol, oldCol := range idx {
		sortedVals[newCol] = vals[oldCol]
		for r := 0; r < n; r++ {
			sortedVecs.Set(r, newCol, v.At(r, oldCol))
		}
	}
	return sortedVals, sortedVecs, st
}

// referenceJacobiSVD computes the full SVD of an m-by-n matrix (m >= n) using the
// one-sided Jacobi (Hestenes) method: columns of a working copy of A are
// orthogonalised by plane rotations accumulated into V.
func referenceJacobiSVD(a *Matrix, maxSweeps int, tol float64) *SVDResult {
	if a.Rows < a.Cols {
		// Decompose the transpose and swap U/V.
		r := referenceJacobiSVD(a.T(), maxSweeps, tol)
		return &SVDResult{U: r.V, S: r.S, V: r.U, Stats: r.Stats}
	}
	m, n := a.Rows, a.Cols
	w := a.Clone()
	v := Identity(n)
	if maxSweeps <= 0 {
		maxSweeps = 30
	}
	if tol <= 0 {
		tol = 1e-12
	}
	var st EigenStats
	for sweep := 0; sweep < maxSweeps; sweep++ {
		converged := true
		st.Sweeps++
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				// Compute the 2x2 Gram submatrix for columns p, q.
				var app, aqq, apq float64
				for i := 0; i < m; i++ {
					wip, wiq := w.At(i, p), w.At(i, q)
					app += wip * wip
					aqq += wiq * wiq
					apq += wip * wiq
				}
				if math.Abs(apq) <= tol*math.Sqrt(app*aqq)+1e-300 {
					continue
				}
				converged = false
				st.Rotations++
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for i := 0; i < m; i++ {
					wip, wiq := w.At(i, p), w.At(i, q)
					w.Set(i, p, c*wip-s*wiq)
					w.Set(i, q, s*wip+c*wiq)
				}
				for i := 0; i < n; i++ {
					vip, viq := v.At(i, p), v.At(i, q)
					v.Set(i, p, c*vip-s*viq)
					v.Set(i, q, s*vip+c*viq)
				}
			}
		}
		if converged {
			break
		}
	}
	// Column norms of W are the singular values; normalised columns are U.
	s := make([]float64, n)
	u := NewMatrix(m, n)
	for j := 0; j < n; j++ {
		nrm := 0.0
		for i := 0; i < m; i++ {
			nrm += w.At(i, j) * w.At(i, j)
		}
		nrm = math.Sqrt(nrm)
		s[j] = nrm
		if nrm > 0 {
			for i := 0; i < m; i++ {
				u.Set(i, j, w.At(i, j)/nrm)
			}
		}
	}
	// Sort by descending singular value.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool { return s[idx[x]] > s[idx[y]] })
	ss := make([]float64, n)
	us := NewMatrix(m, n)
	vs := NewMatrix(n, n)
	for newCol, oldCol := range idx {
		ss[newCol] = s[oldCol]
		for i := 0; i < m; i++ {
			us.Set(i, newCol, u.At(i, oldCol))
		}
		for i := 0; i < n; i++ {
			vs.Set(i, newCol, v.At(i, oldCol))
		}
	}
	return &SVDResult{U: us, S: ss, V: vs, Stats: st}
}

// referenceReconstruct returns U * diag(S) * V^T, one singular triplet at
// a time over the whole matrix.
func referenceReconstruct(r *SVDResult) *Matrix {
	m, n, k := r.U.Rows, r.V.Rows, len(r.S)
	out := NewMatrix(m, n)
	for j := 0; j < k; j++ {
		sj := r.S[j]
		if sj == 0 {
			continue
		}
		for i := 0; i < m; i++ {
			uij := r.U.At(i, j) * sj
			if uij == 0 {
				continue
			}
			oi := out.Row(i)
			for c := 0; c < n; c++ {
				oi[c] += uij * r.V.At(c, j)
			}
		}
	}
	return out
}

// referenceEigenSVD computes a rank-k SVD through the eigendecomposition
// of A^T A, with fresh vectors for every back-mapped column.
func referenceEigenSVD(a *Matrix, k int, eigen func(gram *Matrix) ([]float64, *Matrix, EigenStats)) *SVDResult {
	n := a.Cols
	if k > n {
		k = n
	}
	gram := a.T().Mul(a)
	vals, vecs, st := eigen(gram)
	if len(vals) > k {
		vals = vals[:k]
	}
	kk := len(vals)
	s := make([]float64, kk)
	v := NewMatrix(n, kk)
	for j := 0; j < kk; j++ {
		if vals[j] > 0 {
			s[j] = math.Sqrt(vals[j])
		}
		for i := 0; i < n; i++ {
			v.Set(i, j, vecs.At(i, j))
		}
	}
	// U = A V S^{-1}
	u := NewMatrix(a.Rows, kk)
	for j := 0; j < kk; j++ {
		col := make([]float64, n)
		for i := 0; i < n; i++ {
			col[i] = v.At(i, j)
		}
		av := a.MulVec(col)
		if s[j] > 1e-300 {
			for i := range av {
				u.Set(i, j, av[i]/s[j])
			}
		}
	}
	return &SVDResult{U: u, S: s, V: v, Stats: st}
}

func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// checkPowerMatchesReference fails t unless PowerIteration and the
// reference agree on every eigenvalue and eigenvector bit and on the stats.
func checkPowerMatchesReference(t *testing.T, name string, a *Matrix, k, iters int, tol float64, seedVec []float64) {
	t.Helper()
	vals, vecs, st := PowerIteration(a, k, iters, tol, seedVec)
	wVals, wVecs, wSt := referencePowerIteration(a, k, iters, tol, seedVec)
	if i := sameBits(vals, wVals); i >= 0 {
		t.Fatalf("%s k=%d iters=%d: eigenvalue %d differs: %v vs reference %v", name, k, iters, i, vals, wVals)
	}
	if vecs.Rows != wVecs.Rows || vecs.Cols != wVecs.Cols {
		t.Fatalf("%s k=%d iters=%d: vecs %dx%d, reference %dx%d", name, k, iters, vecs.Rows, vecs.Cols, wVecs.Rows, wVecs.Cols)
	}
	if i := sameBits(vecs.Data, wVecs.Data); i >= 0 {
		t.Fatalf("%s k=%d iters=%d: eigenvector entry %d differs: %v vs reference %v", name, k, iters, i, vecs.Data[i], wVecs.Data[i])
	}
	if st != wSt {
		t.Fatalf("%s k=%d iters=%d: stats %+v, reference %+v", name, k, iters, st, wSt)
	}
}

func TestPowerIterationMatchesReference(t *testing.T) {
	r := rng.New(97)
	for trial := 0; trial < 80; trial++ {
		n := r.IntRange(1, 24)
		var g *Matrix
		if trial%2 == 0 {
			g = randomSymmetric(n, r)
		} else {
			a := Random(r.IntRange(n, 48), n, r)
			g = a.T().Mul(a)
		}
		var seedVec []float64
		if trial%5 == 0 {
			seedVec = []float64{0.3, -0.1, 0.05}
		}
		tol := 1e-10
		if trial%3 == 0 {
			tol = 1e-3
		}
		checkPowerMatchesReference(t, "random", g, r.IntRange(1, n), r.IntRange(1, 60), tol, seedVec)
	}
}

func TestDegeneratePowerIterationMatchesReference(t *testing.T) {
	r := rng.New(101)
	full := randomSymmetric(6, r)
	rank1 := NewMatrix(5, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			rank1.Set(i, j, float64((i+1)*(j+1)))
		}
	}
	cases := []struct {
		name     string
		a        *Matrix
		k, iters int
	}{
		{"zero", NewMatrix(4, 4), 3, 10},
		{"1x1", FromRows([][]float64{{2.5}}), 1, 5},
		{"1x1-zero", NewMatrix(1, 1), 1, 5},
		{"k=n", full, 6, 40},
		{"k>n", full, 9, 40},
		{"iters=1", full, 3, 1},
		{"iters=0", full, 2, 0},
		{"rank1-deflates-to-zero", rank1, 5, 30},
	}
	for _, c := range cases {
		checkPowerMatchesReference(t, c.name, c.a, c.k, c.iters, 1e-10, nil)
	}
}

func TestEigenSVDMatchesReference(t *testing.T) {
	r := rng.New(103)
	for trial := 0; trial < 30; trial++ {
		n := r.IntRange(1, 20)
		a := Random(r.IntRange(n, 40), n, r)
		k := r.IntRange(1, n)
		iters := r.IntRange(2, 60)
		power := func(g *Matrix) ([]float64, *Matrix, EigenStats) {
			return PowerIteration(g, k, iters, 1e-10, nil)
		}
		jacobi := func(g *Matrix) ([]float64, *Matrix, EigenStats) {
			return SymmetricEigen(g, 1+iters/4, 1e-12)
		}
		for _, eigen := range []func(*Matrix) ([]float64, *Matrix, EigenStats){power, jacobi} {
			got := EigenSVD(a, a.T().Mul(a), k, eigen)
			want := referenceEigenSVD(a, k, eigen)
			if sameBits(got.S, want.S) >= 0 || sameBits(got.U.Data, want.U.Data) >= 0 ||
				sameBits(got.V.Data, want.V.Data) >= 0 || got.Stats != want.Stats {
				t.Fatalf("trial %d: EigenSVD differs from reference", trial)
			}
			if i := sameBits(got.Reconstruct().Data, referenceReconstruct(want).Data); i >= 0 {
				t.Fatalf("trial %d: Reconstruct entry %d differs from reference", trial, i)
			}
			gotRMS := got.ResidualRMS(a)
			wantRMS := referenceReconstruct(want).Sub(a).RMS()
			if math.Float64bits(gotRMS) != math.Float64bits(wantRMS) {
				t.Fatalf("trial %d: ResidualRMS %v, reference %v", trial, gotRMS, wantRMS)
			}
		}
	}
}

func checkSVDResultsEqual(t *testing.T, name string, got, want *SVDResult) {
	t.Helper()
	if got.U.Rows != want.U.Rows || got.U.Cols != want.U.Cols || got.V.Rows != want.V.Rows || got.V.Cols != want.V.Cols {
		t.Fatalf("%s: shapes U %dx%d V %dx%d, reference U %dx%d V %dx%d", name,
			got.U.Rows, got.U.Cols, got.V.Rows, got.V.Cols, want.U.Rows, want.U.Cols, want.V.Rows, want.V.Cols)
	}
	if i := sameBits(got.S, want.S); i >= 0 {
		t.Fatalf("%s: singular value %d differs: %v vs reference %v", name, i, got.S, want.S)
	}
	if i := sameBits(got.U.Data, want.U.Data); i >= 0 {
		t.Fatalf("%s: U entry %d differs", name, i)
	}
	if i := sameBits(got.V.Data, want.V.Data); i >= 0 {
		t.Fatalf("%s: V entry %d differs", name, i)
	}
	if got.Stats != want.Stats {
		t.Fatalf("%s: stats %+v, reference %+v", name, got.Stats, want.Stats)
	}
}

func checkSymmetricEigenMatchesReference(t *testing.T, name string, a *Matrix, sweeps int, tol float64) {
	t.Helper()
	vals, vecs, st := SymmetricEigen(a, sweeps, tol)
	wVals, wVecs, wSt := referenceSymmetricEigen(a, sweeps, tol)
	if i := sameBits(vals, wVals); i >= 0 {
		t.Fatalf("%s sweeps=%d: eigenvalue %d differs: %v vs reference %v", name, sweeps, i, vals, wVals)
	}
	if i := sameBits(vecs.Data, wVecs.Data); i >= 0 {
		t.Fatalf("%s sweeps=%d: eigenvector entry %d differs", name, sweeps, i)
	}
	if st != wSt {
		t.Fatalf("%s sweeps=%d: stats %+v, reference %+v", name, sweeps, st, wSt)
	}
}

func TestJacobiKernelsMatchReference(t *testing.T) {
	r := rng.New(113)
	for trial := 0; trial < 40; trial++ {
		rows, cols := r.IntRange(1, 30), r.IntRange(1, 24)
		a := Random(rows, cols, r)
		sweeps := r.IntRange(0, 15)
		tol := 1e-12
		if trial%4 == 0 {
			tol = 1e-4
		}
		checkSVDResultsEqual(t, "JacobiSVD", JacobiSVD(a, sweeps, tol), referenceJacobiSVD(a, sweeps, tol))
		checkSymmetricEigenMatchesReference(t, "gram", a.T().Mul(a), sweeps, tol)
		if rows == cols {
			checkSymmetricEigenMatchesReference(t, "symmetric", randomSymmetric(rows, r), sweeps, tol)
		}
	}
}

func TestDegenerateJacobiKernelsMatchReference(t *testing.T) {
	r := rng.New(127)
	rank1 := NewMatrix(6, 4)
	for i := 0; i < 6; i++ {
		for j := 0; j < 4; j++ {
			rank1.Set(i, j, float64(i+1)*float64(j-1))
		}
	}
	withNaN := Random(5, 3, r)
	withNaN.Set(2, 1, math.NaN())
	cases := []struct {
		name string
		a    *Matrix
	}{
		{"zero", NewMatrix(5, 3)},
		{"1x1", FromRows([][]float64{{-3}})},
		{"1x1-zero", NewMatrix(1, 1)},
		{"row", Random(1, 6, r)},
		{"column", Random(6, 1, r)},
		{"rank1-with-zero-column", rank1},
		{"nan", withNaN},
	}
	for _, c := range cases {
		for _, sweeps := range []int{1, 4, 0} {
			checkSVDResultsEqual(t, c.name, JacobiSVD(c.a, sweeps, 1e-12), referenceJacobiSVD(c.a, sweeps, 1e-12))
			checkSymmetricEigenMatchesReference(t, c.name, c.a.T().Mul(c.a), sweeps, 1e-12)
		}
	}
}

func BenchmarkPowerIteration(b *testing.B) {
	r := rng.New(107)
	a := Random(48, 24, r)
	g := a.T().Mul(a)
	b.ReportAllocs()
	for b.Loop() {
		PowerIteration(g, 8, 30, 1e-10, nil)
	}
}
