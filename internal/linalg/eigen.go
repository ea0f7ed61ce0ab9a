package linalg

import (
	"math"
	"sort"
)

// EigenStats reports the work performed by an iterative eigensolver so that
// callers can charge a cost.Meter without the solver depending on the cost
// package.
type EigenStats struct {
	Sweeps    int // full Jacobi sweeps or power-iteration restarts
	Rotations int // individual Jacobi rotations applied
	MatVecs   int // matrix-vector products (power iteration)
}

// SymmetricEigen computes the eigendecomposition of a symmetric matrix
// using the cyclic Jacobi method. It returns eigenvalues in descending
// order, the matching eigenvectors as the columns of V, and work stats.
func SymmetricEigen(a *Matrix, maxSweeps int, tol float64) (vals []float64, vecs *Matrix, st EigenStats) {
	if a.Rows != a.Cols {
		panic("linalg: SymmetricEigen of non-square matrix")
	}
	n := a.Rows
	w := a.Clone()
	wd := w.Data
	// The rotations update whole columns of V, so V is held transposed:
	// column k of V is the contiguous row k of vt.
	vt := Identity(n)
	if maxSweeps <= 0 {
		maxSweeps = 30
	}
	if tol <= 0 {
		tol = 1e-12
	}
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for _, x := range wd[i*n+i+1 : (i+1)*n] {
				off += x * x
			}
		}
		if math.Sqrt(2*off) <= tol*w.FrobeniusNorm() {
			break
		}
		st.Sweeps++
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := wd[p*n+q]
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := wd[p*n+p], wd[q*n+q]
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				st.Rotations++
				// Update columns p and q of W, then rows p and q.
				for kp := p; kp < len(wd); kp += n {
					kq := kp - p + q
					wkp, wkq := wd[kp], wd[kq]
					wd[kp] = c*wkp - s*wkq
					wd[kq] = s*wkp + c*wkq
				}
				rp, rq := w.Row(p), w.Row(q)
				for k, wpk := range rp {
					wqk := rq[k]
					rp[k] = c*wpk - s*wqk
					rq[k] = s*wpk + c*wqk
				}
				// Accumulate eigenvectors.
				vp, vq := vt.Row(p), vt.Row(q)
				for k, vkp := range vp {
					vkq := vq[k]
					vp[k] = c*vkp - s*vkq
					vq[k] = s*vkp + c*vkq
				}
			}
		}
	}
	vals = make([]float64, n)
	for i := range vals {
		vals[i] = wd[i*n+i]
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
		for r, x := range vt.Row(oldCol) {
			sortedVecs.Set(r, newCol, x)
		}
	}
	return sortedVals, sortedVecs, st
}

// PowerIteration approximates the k dominant eigenpairs of the symmetric
// matrix a via power iteration with Hotelling deflation. Each eigenpair is
// refined for at most iters iterations or until the eigenvector rotates by
// less than tol between iterations. Returned eigenvalues are in order of
// extraction (descending |λ| in exact arithmetic).
//
// Each iteration counts two matvecs, W·x for the step and W·x for the
// Rayleigh quotient; the second is exactly the next step's product, so it
// is computed once and carried over.
func PowerIteration(a *Matrix, k, iters int, tol float64, seedVec []float64) (vals []float64, vecs *Matrix, st EigenStats) {
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
	buf := make([]float64, 3*n)
	// x is the current unit vector, wx = W·x and prev the vector before
	// the last step.
	x, wx, prev := buf[:n], buf[n:2*n], buf[2*n:]
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
		work.mulVecInto(wx, x)
		for it := 0; it < iters; it++ {
			copy(prev, x)
			st.MatVecs++ // y = W·x, already in wx
			nrm := Normalize(wx)
			if nrm == 0 {
				break
			}
			x, wx = wx, x
			work.mulVecInto(wx, x)
			lambda = Dot(x, wx)
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
		for i, xi := range x {
			vecs.Data[i*k+e] = xi
		}
		// Deflate: work -= λ x x^T.
		for i := 0; i < n; i++ {
			row := work.Data[i*n : (i+1)*n]
			for j, xj := range x {
				row[j] -= lambda * x[i] * xj
			}
		}
	}
	return vals, vecs, st
}
