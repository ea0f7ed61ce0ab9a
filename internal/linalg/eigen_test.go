package linalg

import (
	"math"
	"testing"

	"inputtune/internal/rng"
)

// randomSymmetric builds a random symmetric matrix with a diagonal boost.
func randomSymmetric(n int, r *rng.RNG) *Matrix {
	a := Random(n, n, r)
	s := a.Add(a.T()).Scale(0.5)
	return s
}

func TestSymmetricEigenKnown(t *testing.T) {
	// Eigenvalues of [[2,1],[1,2]] are 3 and 1.
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	vals, vecs, st := SymmetricEigen(a, 0, 0)
	if math.Abs(vals[0]-3) > 1e-9 || math.Abs(vals[1]-1) > 1e-9 {
		t.Fatalf("vals = %v", vals)
	}
	if st.Rotations == 0 {
		t.Fatal("expected at least one rotation")
	}
	// Check A v = λ v for each pair.
	for j := 0; j < 2; j++ {
		v := []float64{vecs.At(0, j), vecs.At(1, j)}
		av := a.MulVec(v)
		for i := range v {
			if math.Abs(av[i]-vals[j]*v[i]) > 1e-9 {
				t.Fatalf("eigenpair %d violated: Av=%v λv=%v", j, av[i], vals[j]*v[i])
			}
		}
	}
}

func TestSymmetricEigenReconstruction(t *testing.T) {
	r := rng.New(9)
	for trial := 0; trial < 5; trial++ {
		n := r.IntRange(2, 10)
		a := randomSymmetric(n, r)
		vals, vecs, _ := SymmetricEigen(a, 0, 0)
		// A = V Λ V^T
		lam := NewMatrix(n, n)
		for i, v := range vals {
			lam.Set(i, i, v)
		}
		recon := vecs.Mul(lam).Mul(vecs.T())
		if !recon.EqualTol(a, 1e-8) {
			t.Fatalf("trial %d: eigen reconstruction failed (n=%d)", trial, n)
		}
		// Descending order.
		for i := 1; i < n; i++ {
			if vals[i] > vals[i-1]+1e-12 {
				t.Fatalf("eigenvalues not descending: %v", vals)
			}
		}
	}
}

func TestPowerIterationDominant(t *testing.T) {
	// Diagonal matrix: dominant eigenvalue trivially 5.
	a := FromRows([][]float64{{5, 0, 0}, {0, 2, 0}, {0, 0, 1}})
	vals, vecs, st := PowerIteration(a, 2, 500, 1e-12, nil)
	if math.Abs(vals[0]-5) > 1e-6 {
		t.Fatalf("dominant eigenvalue = %v, want 5", vals[0])
	}
	if math.Abs(vals[1]-2) > 1e-4 {
		t.Fatalf("second eigenvalue = %v, want 2", vals[1])
	}
	if st.MatVecs == 0 {
		t.Fatal("no matvec work recorded")
	}
	// Dominant eigenvector should align with e1.
	if math.Abs(math.Abs(vecs.At(0, 0))-1) > 1e-6 {
		t.Fatalf("dominant eigenvector = %v", vecs)
	}
}

func TestJacobiSVDReconstruction(t *testing.T) {
	r := rng.New(21)
	for trial := 0; trial < 5; trial++ {
		m, n := r.IntRange(3, 10), r.IntRange(2, 8)
		if m < n {
			m, n = n, m
		}
		a := Random(m, n, r)
		res := JacobiSVD(a, 0, 0)
		if !res.Reconstruct().EqualTol(a, 1e-8) {
			t.Fatalf("trial %d: SVD reconstruction failed (%dx%d)", trial, m, n)
		}
		// Singular values non-negative descending.
		for i, s := range res.S {
			if s < 0 {
				t.Fatalf("negative singular value %v", s)
			}
			if i > 0 && s > res.S[i-1]+1e-12 {
				t.Fatalf("singular values not descending: %v", res.S)
			}
		}
		// U columns orthonormal.
		utu := res.U.T().Mul(res.U)
		if !utu.EqualTol(Identity(n), 1e-8) {
			t.Fatal("U columns not orthonormal")
		}
	}
}

func TestJacobiSVDWideMatrix(t *testing.T) {
	r := rng.New(33)
	a := Random(3, 6, r) // wide: exercises the transpose path
	res := JacobiSVD(a, 0, 0)
	if !res.Reconstruct().EqualTol(a, 1e-8) {
		t.Fatal("wide-matrix SVD reconstruction failed")
	}
}

func TestSVDTruncateBestApproximation(t *testing.T) {
	// Rank-1 matrix: truncating to k=1 must reconstruct exactly.
	u := []float64{1, 2, 3}
	v := []float64{4, 5}
	a := NewMatrix(3, 2)
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			a.Set(i, j, u[i]*v[j])
		}
	}
	res := JacobiSVD(a, 0, 0).Truncate(1)
	if len(res.S) != 1 {
		t.Fatalf("truncate kept %d values", len(res.S))
	}
	if !res.Reconstruct().EqualTol(a, 1e-8) {
		t.Fatal("rank-1 truncation should be exact for a rank-1 matrix")
	}
}

func TestTruncateClamps(t *testing.T) {
	r := rng.New(3)
	a := Random(4, 3, r)
	res := JacobiSVD(a, 0, 0)
	if got := res.Truncate(99); len(got.S) != 3 {
		t.Fatalf("over-truncate kept %d", len(got.S))
	}
	if got := res.Truncate(0); len(got.S) != 1 {
		t.Fatalf("under-truncate kept %d", len(got.S))
	}
}

func TestEigenSVDMatchesJacobi(t *testing.T) {
	r := rng.New(55)
	a := Random(8, 5, r)
	ref := JacobiSVD(a, 0, 0)
	got := EigenSVD(a, a.T().Mul(a), 5, func(g *Matrix) ([]float64, *Matrix, EigenStats) {
		return SymmetricEigen(g, 0, 0)
	})
	for i := range got.S {
		if math.Abs(got.S[i]-ref.S[i]) > 1e-6 {
			t.Fatalf("singular value %d: eigen route %v vs jacobi %v", i, got.S[i], ref.S[i])
		}
	}
	// Reconstruction error of the full-rank EigenSVD should be tiny.
	if diff := got.Reconstruct().Sub(a).FrobeniusNorm(); diff > 1e-6 {
		t.Fatalf("EigenSVD reconstruction error %v", diff)
	}
}

func TestEigenSVDTruncatedError(t *testing.T) {
	// Truncated SVD error must equal sqrt(sum of dropped squared singular values).
	r := rng.New(67)
	a := Random(10, 6, r)
	full := JacobiSVD(a, 0, 0)
	k := 3
	trunc := full.Truncate(k)
	wantErr := 0.0
	for _, s := range full.S[k:] {
		wantErr += s * s
	}
	wantErr = math.Sqrt(wantErr)
	gotErr := trunc.Reconstruct().Sub(a).FrobeniusNorm()
	if math.Abs(gotErr-wantErr) > 1e-8 {
		t.Fatalf("truncation error %v, want %v", gotErr, wantErr)
	}
}
