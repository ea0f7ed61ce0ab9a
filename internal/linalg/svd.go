package linalg

import (
	"math"
	"sort"
)

// SVDResult holds a (possibly truncated) singular value decomposition
// A ≈ U * diag(S) * V^T with singular values in descending order.
type SVDResult struct {
	U *Matrix   // m-by-r
	S []float64 // length r, descending, non-negative
	V *Matrix   // n-by-r
	// Stats reports the iterative work performed so that callers can charge
	// a cost meter.
	Stats EigenStats
}

// JacobiSVD computes the full SVD of an m-by-n matrix (m >= n) using the
// one-sided Jacobi (Hestenes) method: columns of a working copy of A are
// orthogonalised by plane rotations accumulated into V.
func JacobiSVD(a *Matrix, maxSweeps int, tol float64) *SVDResult {
	if a.Rows < a.Cols {
		// Decompose the transpose and swap U/V.
		r := JacobiSVD(a.T(), maxSweeps, tol)
		return &SVDResult{U: r.V, S: r.S, V: r.U, Stats: r.Stats}
	}
	m, n := a.Rows, a.Cols
	// The method works on whole columns, so W and V are held transposed:
	// column j of each is the contiguous row j of wt and vt.
	wt := a.T()
	vt := Identity(n)
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
			wp, vp := wt.Row(p), vt.Row(p)
			for q := p + 1; q < n; q++ {
				wq := wt.Row(q)[:len(wp)]
				// Compute the 2x2 Gram submatrix for columns p, q.
				var app, aqq, apq float64
				for i, wip := range wp {
					wiq := wq[i]
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
				for i, wip := range wp {
					wiq := wq[i]
					wp[i] = c*wip - s*wiq
					wq[i] = s*wip + c*wiq
				}
				vq := vt.Row(q)[:len(vp)]
				for i, vip := range vp {
					viq := vq[i]
					vp[i] = c*vip - s*viq
					vq[i] = s*vip + c*viq
				}
			}
		}
		if converged {
			break
		}
	}
	// Column norms of W are the singular values; normalised columns are U.
	s := make([]float64, n)
	for j := range s {
		nrm := 0.0
		for _, x := range wt.Row(j) {
			nrm += x * x
		}
		s[j] = math.Sqrt(nrm)
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
		nrm := s[oldCol]
		ss[newCol] = nrm
		if nrm > 0 {
			for i, x := range wt.Row(oldCol) {
				us.Set(i, newCol, x/nrm)
			}
		}
		for i, x := range vt.Row(oldCol) {
			vs.Set(i, newCol, x)
		}
	}
	return &SVDResult{U: us, S: ss, V: vs, Stats: st}
}

// Truncate returns a copy of the decomposition keeping only the k leading
// singular triplets (k is clamped to the available rank).
func (r *SVDResult) Truncate(k int) *SVDResult {
	if k >= len(r.S) {
		return r
	}
	if k < 1 {
		k = 1
	}
	u := NewMatrix(r.U.Rows, k)
	v := NewMatrix(r.V.Rows, k)
	for j := 0; j < k; j++ {
		for i := 0; i < r.U.Rows; i++ {
			u.Set(i, j, r.U.At(i, j))
		}
		for i := 0; i < r.V.Rows; i++ {
			v.Set(i, j, r.V.At(i, j))
		}
	}
	return &SVDResult{U: u, S: append([]float64(nil), r.S[:k]...), V: v, Stats: r.Stats}
}

// Reconstruct returns U * diag(S) * V^T.
func (r *SVDResult) Reconstruct() *Matrix {
	out := NewMatrix(r.U.Rows, r.V.Rows)
	for i := 0; i < out.Rows; i++ {
		r.reconstructRow(i, out.Row(i))
	}
	return out
}

// ResidualRMS returns the RMS of U * diag(S) * V^T - a, the same value as
// r.Reconstruct().Sub(a).RMS(), one reconstructed row at a time.
func (r *SVDResult) ResidualRMS(a *Matrix) float64 {
	if a.Rows != r.U.Rows || a.Cols != r.V.Rows {
		panic("linalg: shape mismatch")
	}
	row := make([]float64, a.Cols)
	sum := 0.0
	for i := 0; i < a.Rows; i++ {
		r.reconstructRow(i, row)
		for c, v := range a.Row(i) {
			d := row[c] - v
			sum += d * d
		}
	}
	return math.Sqrt(sum) / math.Sqrt(float64(len(a.Data)))
}

// reconstructRow writes row i of U * diag(S) * V^T into out, adding the
// singular triplets' terms in index order.
func (r *SVDResult) reconstructRow(i int, out []float64) {
	clear(out)
	for j, sj := range r.S {
		if sj == 0 {
			continue
		}
		uij := r.U.At(i, j) * sj
		if uij == 0 {
			continue
		}
		for c := range out {
			out[c] += uij * r.V.At(c, j)
		}
	}
}

// EigenSVD computes a rank-k SVD of an m-by-n matrix via the symmetric
// eigendecomposition of its Gram matrix A^T A (suitable when n is modest),
// using the provided eigensolver function. It exists so the SVD benchmark
// can swap eigen techniques (full Jacobi vs. power iteration) as
// algorithmic choices. The caller supplies gram, so one Gram matrix can
// serve many decompositions of a; EigenSVD never modifies it, and eigen
// must not either.
func EigenSVD(a, gram *Matrix, k int, eigen func(gram *Matrix) ([]float64, *Matrix, EigenStats)) *SVDResult {
	n := a.Cols
	if k > n {
		k = n
	}
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
	col := make([]float64, n)
	av := make([]float64, a.Rows)
	for j := 0; j < kk; j++ {
		for i := 0; i < n; i++ {
			col[i] = v.At(i, j)
		}
		a.mulVecInto(av, col)
		if s[j] > 1e-300 {
			for i := range av {
				u.Set(i, j, av[i]/s[j])
			}
		}
	}
	return &SVDResult{U: u, S: s, V: v, Stats: st}
}
