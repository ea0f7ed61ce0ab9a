package pde

import "math"

// Grid3D holds an N×N×N interior grid (Dirichlet zero boundary) on the
// unit cube, h = 1/(N+1), for the variable-coefficient Helmholtz problem
//
//	-∇·(a ∇u) + c·u = f
//
// with a sampled at grid nodes and c a non-negative constant.
type Grid3D struct {
	N    int
	Data []float64 // len N³, index (i*N + j)*N + k
}

// NewGrid3D returns a zero grid.
func NewGrid3D(n int) *Grid3D {
	return &Grid3D{N: n, Data: make([]float64, n*n*n)}
}

// At returns u(i,j,k) honouring the zero boundary.
func (g *Grid3D) At(i, j, k int) float64 {
	if i < 0 || j < 0 || k < 0 || i >= g.N || j >= g.N || k >= g.N {
		return 0
	}
	return g.Data[(i*g.N+j)*g.N+k]
}

// Set assigns u(i,j,k).
func (g *Grid3D) Set(i, j, k int, v float64) { g.Data[(i*g.N+j)*g.N+k] = v }

// Clone deep-copies the grid.
func (g *Grid3D) Clone() *Grid3D {
	out := NewGrid3D(g.N)
	copy(out.Data, g.Data)
	return out
}

// RMS returns the root-mean-square of the grid values.
func (g *Grid3D) RMS() float64 { return rmsOf(g.Data) }

// SubRMS returns RMS(g - o).
func (g *Grid3D) SubRMS(o *Grid3D) float64 { return subRMSOf(g.Data, o.Data) }

func (g *Grid3D) h() float64 { return 1.0 / float64(g.N+1) }

// Helmholtz3D bundles the operator data: coefficient field a, constant c.
type Helmholtz3D struct {
	A *Grid3D // coefficient at nodes (boundary faces reuse interior value)
	C float64
}

// edgeStencil3D evaluates (L u) and the operator diagonal at cell
// idx = (i*n+j)*n+k over raw slices, for the boundary cells whose
// seven-point stencil leaves the grid. It is the reference stencil
// (Helmholtz3D.apply in reference.go) restated without accessors: the
// directions run in the reference order +i, -i, +j, -j, +k, -k; an
// out-of-range neighbour contributes face coefficient a = ac and value
// v = 0, and a*v is still formed, so Inf and NaN coefficients propagate
// exactly as they do there. h2 is the caller's hoisted squared spacing.
func edgeStencil3D(ad, ud []float64, n, i, j, k int, h2, c float64) (lu, diag float64) {
	n2 := n * n
	idx := (i*n+j)*n + k
	ac := ad[idx]
	var sumA, flux float64
	a, v := ac, 0.0
	if i < n-1 {
		a, v = 0.5*(ac+ad[idx+n2]), ud[idx+n2]
	}
	sumA += a
	flux += a * v
	a, v = ac, 0.0
	if i > 0 {
		a, v = 0.5*(ac+ad[idx-n2]), ud[idx-n2]
	}
	sumA += a
	flux += a * v
	a, v = ac, 0.0
	if j < n-1 {
		a, v = 0.5*(ac+ad[idx+n]), ud[idx+n]
	}
	sumA += a
	flux += a * v
	a, v = ac, 0.0
	if j > 0 {
		a, v = 0.5*(ac+ad[idx-n]), ud[idx-n]
	}
	sumA += a
	flux += a * v
	a, v = ac, 0.0
	if k < n-1 {
		a, v = 0.5*(ac+ad[idx+1]), ud[idx+1]
	}
	sumA += a
	flux += a * v
	a, v = ac, 0.0
	if k > 0 {
		a, v = 0.5*(ac+ad[idx-1]), ud[idx-1]
	}
	sumA += a
	flux += a * v
	uc := ud[idx]
	diag = sumA/h2 + c
	lu = (sumA*uc-flux)/h2 + c*uc
	return lu, diag
}

// The 3-D Jacobi sweep and residual below are boundary-split like their
// 2-D counterparts: the innermost k-run of every interior (i, j) pencil
// evaluates the seven-point flux stencil over raw slices (face
// coefficients averaged inline, in the reference direction order +i, -i,
// +j, -j, +k, -k), while boundary cells go through edgeStencil3D.
// Expression shapes and accumulation order match the reference kernels
// exactly, so grids stay bit-identical. SOR sweeps instead run on a padded
// copy of the grid (sorPadded3D) and fall back to the boundary-split sweep
// (sorSplit3D) only where that is not exact.

// sorCell3D is the per-cell SOR update for boundary cells.
func sorCell3D(ad, ud, fd []float64, n, i, j, k int, h2, c, omega float64) {
	lu, diag := edgeStencil3D(ad, ud, n, i, j, k, h2, c)
	idx := (i*n+j)*n + k
	uc := ud[idx]
	ud[idx] = uc + omega*(fd[idx]-lu)/diag
}

// SOR3D performs sweeps SOR sweeps (omega = 1 gives Gauss-Seidel),
// bit-identical to that many consecutive reference sweeps. It checks the
// coefficients and allocates the padded scratch on every call; repeated
// solves should sweep through a Hierarchy3D, whose operator chain checks
// each level once and whose scratch is reused.
func SOR3D(op *Helmholtz3D, u, f *Grid3D, omega float64, sweeps int, w *Work) {
	if sweeps <= 0 {
		return
	}
	var pu []float64
	if mirrorExact3D(op.A) {
		p := u.N + 2
		pu = make([]float64, p*p*p)
	}
	sor3D(op, pu, u, f, omega, sweeps, w)
}

// sor3D performs sweeps SOR sweeps of op on u. pu is a zero-ghost scratch
// grid of (u.N+2)³ cells, or nil when op fails mirrorExact3D and must take
// the boundary-split sweep.
func sor3D(op *Helmholtz3D, pu []float64, u, f *Grid3D, omega float64, sweeps int, w *Work) {
	if sweeps <= 0 {
		return
	}
	if pu == nil {
		for s := 0; s < sweeps; s++ {
			sorSplit3D(op, u, f, omega)
		}
	} else {
		sorPadded3D(op, pu, u, f, omega, sweeps)
	}
	n := u.N
	w.Flops += 17 * n * n * n * sweeps
}

// mirrorExact3D reports whether every coefficient v satisfies
// 0.5*(v+v) == v bit for bit, which fails only for a finite |v| above
// MaxFloat64/2, where v+v overflows. The padded sweep averages a boundary
// face with the cell's own coefficient on both sides, as if the
// coefficient field were mirrored across the boundary, so only then does
// it reproduce the reference's face coefficient ac; an operator failing
// the check keeps the boundary-split sweep.
func mirrorExact3D(a *Grid3D) bool {
	for _, v := range a.Data {
		if math.Float64bits(0.5*(v+v)) != math.Float64bits(v) {
			return false
		}
	}
	return true
}

// padInterior3D copies the n³ grid src into the interior of the (n+2)³
// grid dst.
func padInterior3D(dst, src []float64, n int) {
	p := n + 2
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			o := ((i+1)*p+j+1)*p + 1
			copy(dst[o:o+n], src[(i*n+j)*n:(i*n+j)*n+n])
		}
	}
}

// unpadInterior3D copies the interior of the (n+2)³ grid src into the n³
// grid dst.
func unpadInterior3D(dst, src []float64, n int) {
	p := n + 2
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			o := ((i+1)*p+j+1)*p + 1
			copy(dst[(i*n+j)*n:(i*n+j)*n+n], src[o:o+n])
		}
	}
}

// sor3DDepth is how many SOR3D sweeps one wavefront keeps in flight.
const sor3DDepth = 2

// sorPadded3D runs sweeps SOR sweeps of op over the zero-ghost scratch pu:
// u is copied into pu's interior, swept, and copied back. A zero ghost
// contributes a*0 to the flux exactly as the reference's out-of-range
// neighbour does, and a boundary face's coefficient is averaged from the
// cell's own coefficient twice, which op's passing mirrorExact3D makes
// the reference's face coefficient ac, so every cell runs one branch-free
// stencil with the reference expression shapes and accumulation order.
// Sweeps go in pairs, the second trailing the first by two planes, as
// sor2DWave trails rows: when the second reaches plane i, the first has
// finished plane i+1 and is on plane i+2, whose stencil reaches neither
// plane i nor anything else the second writes, so the two planes' cells
// update interleaved with the same results as two sweeps in a row. An odd
// last sweep runs alone.
func sorPadded3D(op *Helmholtz3D, pu []float64, u, f *Grid3D, omega float64, sweeps int) {
	n := u.N
	h2 := u.h() * u.h()
	padInterior3D(pu, u.Data, n)
	var planes [sor3DDepth]int
	for done := 0; done < sweeps; done += sor3DDepth {
		d := min(sor3DDepth, sweeps-done)
		for t := 0; t < n+2*(d-1); t++ {
			m := 0
			for q := 0; q < d; q++ {
				if i := t - 2*q; i >= 0 && i < n {
					planes[m] = i
					m++
				}
			}
			if m > 0 {
				sorPlanes3D(op.A.Data, pu, f.Data, n, planes[:m], h2, op.C, omega)
			}
		}
	}
	unpadInterior3D(u.Data, pu, n)
}

// sorPlanes3D sweeps the given planes (pairwise at least two apart) of the
// padded grid pu, one cell position at a time across all of them; each
// plane's own cells still update in ascending (j, k) order. Coefficients
// and right-hand side are read unpadded; a face on the boundary reads the
// cell's own coefficient (offset 0, faceOffsets).
func sorPlanes3D(ad, pu, fd []float64, n int, planes []int, h2, c, omega float64) {
	p := n + 2
	p2 := p * p
	// Per plane: the ±i coefficient offsets, and the unpadded and padded
	// flat indices of the current pencil's first cell.
	var xp, xm, ab, pb [sor3DDepth]int
	for q, i := range planes {
		xp[q], xm[q] = faceOffsets(i, n, n*n)
	}
	for j := 0; j < n; j++ {
		yp, ym := faceOffsets(j, n, n)
		for q, i := range planes {
			ab[q] = (i*n + j) * n
			pb[q] = ((i+1)*p+j+1)*p + 1
		}
		for k := 0; k < n; k++ {
			zp, zm := faceOffsets(k, n, 1)
			for q := range planes {
				ia, idx := ab[q]+k, pb[q]+k
				ac := ad[ia]
				axp := 0.5 * (ac + ad[ia+xp[q]])
				axm := 0.5 * (ac + ad[ia+xm[q]])
				ayp := 0.5 * (ac + ad[ia+yp])
				aym := 0.5 * (ac + ad[ia+ym])
				azp := 0.5 * (ac + ad[ia+zp])
				azm := 0.5 * (ac + ad[ia+zm])
				sumA := 0.0
				sumA += axp
				sumA += axm
				sumA += ayp
				sumA += aym
				sumA += azp
				sumA += azm
				flux := 0.0
				flux += axp * pu[idx+p2]
				flux += axm * pu[idx-p2]
				flux += ayp * pu[idx+p]
				flux += aym * pu[idx-p]
				flux += azp * pu[idx+1]
				flux += azm * pu[idx-1]
				uc := pu[idx]
				diag := sumA/h2 + c
				lu := (sumA*uc-flux)/h2 + c*uc
				pu[idx] = uc + omega*(fd[ia]-lu)/diag
			}
		}
	}
}

// faceOffsets returns the flat offsets, along an axis of the given stride,
// from a cell at coordinate x to the coefficients across its + and - faces:
// ±stride inside the grid, 0 (the cell itself) on the boundary.
func faceOffsets(x, n, stride int) (plus, minus int) {
	if x < n-1 {
		plus = stride
	}
	if x > 0 {
		minus = -stride
	}
	return plus, minus
}

// sorSplit3D performs one boundary-split SOR sweep: interior pencils
// inline, boundary cells through edgeStencil3D. It is the sweep for
// operators that fail mirrorExact3D; sor3D charges its flops.
func sorSplit3D(op *Helmholtz3D, u, f *Grid3D, omega float64) {
	n := u.N
	h2 := u.h() * u.h()
	n2 := n * n
	ud, fd, ad := u.Data, f.Data, op.A.Data
	cc := op.C
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == 0 || i == n-1 || j == 0 || j == n-1 {
				for k := 0; k < n; k++ {
					sorCell3D(ad, ud, fd, n, i, j, k, h2, cc, omega)
				}
				continue
			}
			sorCell3D(ad, ud, fd, n, i, j, 0, h2, cc, omega)
			base := (i*n + j) * n
			for idx := base + 1; idx < base+n-1; idx++ {
				ac := ad[idx]
				axp := 0.5 * (ac + ad[idx+n2])
				axm := 0.5 * (ac + ad[idx-n2])
				ayp := 0.5 * (ac + ad[idx+n])
				aym := 0.5 * (ac + ad[idx-n])
				azp := 0.5 * (ac + ad[idx+1])
				azm := 0.5 * (ac + ad[idx-1])
				sumA := 0.0
				sumA += axp
				sumA += axm
				sumA += ayp
				sumA += aym
				sumA += azp
				sumA += azm
				flux := 0.0
				flux += axp * ud[idx+n2]
				flux += axm * ud[idx-n2]
				flux += ayp * ud[idx+n]
				flux += aym * ud[idx-n]
				flux += azp * ud[idx+1]
				flux += azm * ud[idx-1]
				uc := ud[idx]
				diag := sumA/h2 + cc
				lu := (sumA*uc-flux)/h2 + cc*uc
				ud[idx] = uc + omega*(fd[idx]-lu)/diag
			}
			sorCell3D(ad, ud, fd, n, i, j, n-1, h2, cc, omega)
		}
	}
}

// jacobiCell3D is the per-cell Jacobi update for boundary cells.
func jacobiCell3D(ad, ud, fd, next []float64, n, i, j, k int, h2, c, omega float64) {
	lu, diag := edgeStencil3D(ad, ud, n, i, j, k, h2, c)
	idx := (i*n+j)*n + k
	uc := ud[idx]
	next[idx] = uc + omega*(fd[idx]-lu)/diag
}

// Jacobi3D performs one weighted Jacobi sweep.
func Jacobi3D(op *Helmholtz3D, u, f *Grid3D, omega float64, w *Work) {
	jacobi3D(op, u, f, omega, make([]float64, u.N*u.N*u.N), w)
}

// jacobi3D is Jacobi3D over a caller-provided scratch buffer (len n³).
func jacobi3D(op *Helmholtz3D, u, f *Grid3D, omega float64, next []float64, w *Work) {
	n := u.N
	h2 := u.h() * u.h()
	n2 := n * n
	ud, fd, ad := u.Data, f.Data, op.A.Data
	cc := op.C
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == 0 || i == n-1 || j == 0 || j == n-1 {
				for k := 0; k < n; k++ {
					jacobiCell3D(ad, ud, fd, next, n, i, j, k, h2, cc, omega)
				}
				continue
			}
			jacobiCell3D(ad, ud, fd, next, n, i, j, 0, h2, cc, omega)
			base := (i*n + j) * n
			for idx := base + 1; idx < base+n-1; idx++ {
				ac := ad[idx]
				axp := 0.5 * (ac + ad[idx+n2])
				axm := 0.5 * (ac + ad[idx-n2])
				ayp := 0.5 * (ac + ad[idx+n])
				aym := 0.5 * (ac + ad[idx-n])
				azp := 0.5 * (ac + ad[idx+1])
				azm := 0.5 * (ac + ad[idx-1])
				sumA := 0.0
				sumA += axp
				sumA += axm
				sumA += ayp
				sumA += aym
				sumA += azp
				sumA += azm
				flux := 0.0
				flux += axp * ud[idx+n2]
				flux += axm * ud[idx-n2]
				flux += ayp * ud[idx+n]
				flux += aym * ud[idx-n]
				flux += azp * ud[idx+1]
				flux += azm * ud[idx-1]
				uc := ud[idx]
				diag := sumA/h2 + cc
				lu := (sumA*uc-flux)/h2 + cc*uc
				next[idx] = uc + omega*(fd[idx]-lu)/diag
			}
			jacobiCell3D(ad, ud, fd, next, n, i, j, n-1, h2, cc, omega)
		}
	}
	copy(ud, next[:n*n*n])
	w.Flops += 17 * n * n * n
}

// residualCell3D is the per-cell residual for boundary cells.
func residualCell3D(ad, ud, fd, rd []float64, n, i, j, k int, h2, c float64) {
	lu, _ := edgeStencil3D(ad, ud, n, i, j, k, h2, c)
	idx := (i*n+j)*n + k
	rd[idx] = fd[idx] - lu
}

// Residual3D computes r = f - L u.
func Residual3D(op *Helmholtz3D, u, f, r *Grid3D, w *Work) {
	n := u.N
	h2 := u.h() * u.h()
	n2 := n * n
	ud, fd, rd, ad := u.Data, f.Data, r.Data, op.A.Data
	cc := op.C
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == 0 || i == n-1 || j == 0 || j == n-1 {
				for k := 0; k < n; k++ {
					residualCell3D(ad, ud, fd, rd, n, i, j, k, h2, cc)
				}
				continue
			}
			residualCell3D(ad, ud, fd, rd, n, i, j, 0, h2, cc)
			base := (i*n + j) * n
			for idx := base + 1; idx < base+n-1; idx++ {
				ac := ad[idx]
				axp := 0.5 * (ac + ad[idx+n2])
				axm := 0.5 * (ac + ad[idx-n2])
				ayp := 0.5 * (ac + ad[idx+n])
				aym := 0.5 * (ac + ad[idx-n])
				azp := 0.5 * (ac + ad[idx+1])
				azm := 0.5 * (ac + ad[idx-1])
				sumA := 0.0
				sumA += axp
				sumA += axm
				sumA += ayp
				sumA += aym
				sumA += azp
				sumA += azm
				flux := 0.0
				flux += axp * ud[idx+n2]
				flux += axm * ud[idx-n2]
				flux += ayp * ud[idx+n]
				flux += aym * ud[idx-n]
				flux += azp * ud[idx+1]
				flux += azm * ud[idx-1]
				uc := ud[idx]
				lu := (sumA*uc-flux)/h2 + cc*uc
				rd[idx] = fd[idx] - lu
			}
			residualCell3D(ad, ud, fd, rd, n, i, j, n-1, h2, cc)
		}
	}
	w.Flops += 15 * n * n * n
}

// Restrict3D full-weights a fine grid to the (n-1)/2 coarse grid using the
// 27-point kernel.
func Restrict3D(fine *Grid3D, w *Work) *Grid3D {
	coarse := NewGrid3D((fine.N - 1) / 2)
	Restrict3DInto(fine, coarse, w)
	return coarse
}

// Restrict3DInto full-weights fine into the caller-provided coarse grid.
// On the multigrid shape fine.N = 2·coarse.N + 1 all 27 taps are in range
// and the kernel runs over precomputed offsets without bounds logic.
func Restrict3DInto(fine, coarse *Grid3D, w *Work) {
	nc := coarse.N
	nf := fine.N
	if nf != 2*nc+1 {
		for i := 0; i < nc; i++ {
			for j := 0; j < nc; j++ {
				for k := 0; k < nc; k++ {
					fi, fj, fk := 2*i+1, 2*j+1, 2*k+1
					sum := 0.0
					for di := -1; di <= 1; di++ {
						for dj := -1; dj <= 1; dj++ {
							for dk := -1; dk <= 1; dk++ {
								wgt := 1.0 / float64(int(1)<<uint(absInt(di)+absInt(dj)+absInt(dk))) / 8.0
								sum += wgt * fine.At(fi+di, fj+dj, fk+dk)
							}
						}
					}
					coarse.Set(i, j, k, sum)
				}
			}
		}
		w.Flops += 30 * nc * nc * nc
		return
	}
	// Tap weights and fine-grid offsets in the reference iteration order
	// (di, dj, dk ascending). The weights are exact dyadic rationals.
	var wgt [27]float64
	var off [27]int
	t := 0
	for di := -1; di <= 1; di++ {
		for dj := -1; dj <= 1; dj++ {
			for dk := -1; dk <= 1; dk++ {
				wgt[t] = 1.0 / float64(int(1)<<uint(absInt(di)+absInt(dj)+absInt(dk))) / 8.0
				off[t] = (di*nf+dj)*nf + dk
				t++
			}
		}
	}
	fd, cd := fine.Data, coarse.Data
	for i := 0; i < nc; i++ {
		for j := 0; j < nc; j++ {
			crow := (i*nc + j) * nc
			c := ((2*i+1)*nf+2*j+1)*nf + 1 // fine index at k = 0
			for k := 0; k < nc; k++ {
				sum := 0.0
				for t := 0; t < 27; t++ {
					sum += wgt[t] * fd[c+off[t]]
				}
				cd[crow+k] = sum
				c += 2
			}
		}
	}
	w.Flops += 30 * nc * nc * nc
}

// trilinear evaluates the coarse-grid interpolant at fine point (i,j,k)
// through the bounds-checked accessor — the guarded path for boundary
// cells and non-multigrid shapes.
func trilinear(coarse *Grid3D, i, j, k int) float64 {
	// Along each axis, an odd fine index coincides with a coarse node; an
	// even index averages the two flanking coarse nodes (boundary = 0).
	type axis struct {
		idx  [2]int
		wgt  [2]float64
		nTap int
	}
	mk := func(x int) axis {
		if x%2 == 1 {
			return axis{idx: [2]int{(x - 1) / 2, 0}, wgt: [2]float64{1, 0}, nTap: 1}
		}
		return axis{idx: [2]int{x/2 - 1, x / 2}, wgt: [2]float64{0.5, 0.5}, nTap: 2}
	}
	ax, ay, az := mk(i), mk(j), mk(k)
	sum := 0.0
	for a := 0; a < ax.nTap; a++ {
		for b := 0; b < ay.nTap; b++ {
			for c := 0; c < az.nTap; c++ {
				sum += ax.wgt[a] * ay.wgt[b] * az.wgt[c] *
					coarse.At(ax.idx[a], ay.idx[b], az.idx[c])
			}
		}
	}
	return sum
}

// Prolong3D trilinearly interpolates the coarse correction onto fine,
// adding in place.
func Prolong3D(coarse, fine *Grid3D, w *Work) {
	nf, nc := fine.N, coarse.N
	if nf != 2*nc+1 || nf < 3 {
		for i := 0; i < nf; i++ {
			for j := 0; j < nf; j++ {
				for k := 0; k < nf; k++ {
					fine.Set(i, j, k, fine.At(i, j, k)+trilinear(coarse, i, j, k))
				}
			}
		}
		w.Flops += 8 * nf * nf * nf
		return
	}
	fd, cd := fine.Data, coarse.Data
	for i := 0; i < nf; i++ {
		if i == 0 || i == nf-1 {
			for j := 0; j < nf; j++ {
				base := (i*nf + j) * nf
				for k := 0; k < nf; k++ {
					fd[base+k] += trilinear(coarse, i, j, k)
				}
			}
			continue
		}
		// i-axis taps (coarse plane index and weight).
		var ia [2]int
		var iw [2]float64
		ni := 1
		if i%2 == 1 {
			ia[0], iw[0] = (i-1)/2, 1
		} else {
			ia[0], iw[0] = i/2-1, 0.5
			ia[1], iw[1] = i/2, 0.5
			ni = 2
		}
		for j := 0; j < nf; j++ {
			base := (i*nf + j) * nf
			if j == 0 || j == nf-1 {
				for k := 0; k < nf; k++ {
					fd[base+k] += trilinear(coarse, i, j, k)
				}
				continue
			}
			var ja [2]int
			var jw [2]float64
			nj := 1
			if j%2 == 1 {
				ja[0], jw[0] = (j-1)/2, 1
			} else {
				ja[0], jw[0] = j/2-1, 0.5
				ja[1], jw[1] = j/2, 0.5
				nj = 2
			}
			// Coarse row bases and combined (i, j) weights, in the
			// reference tap order (i-axis outer, j-axis inner). All weights
			// are exact dyadics, so the products carry no rounding.
			var rb [4]int
			var rw [4]float64
			nr := 0
			for a := 0; a < ni; a++ {
				for b := 0; b < nj; b++ {
					rb[nr] = (ia[a]*nc + ja[b]) * nc
					rw[nr] = iw[a] * jw[b]
					nr++
				}
			}
			fd[base] += trilinear(coarse, i, j, 0)
			for k := 1; k < nf-1; k++ {
				sum := 0.0
				if k%2 == 1 {
					ck := (k - 1) / 2
					for t := 0; t < nr; t++ {
						sum += rw[t] * cd[rb[t]+ck]
					}
				} else {
					c0, c1 := k/2-1, k/2
					for t := 0; t < nr; t++ {
						wz := rw[t] * 0.5
						sum += wz * cd[rb[t]+c0]
						sum += wz * cd[rb[t]+c1]
					}
				}
				fd[base+k] += sum
			}
			fd[base+nf-1] += trilinear(coarse, i, j, nf-1)
		}
	}
	w.Flops += 8 * nf * nf * nf
}

// coarsen builds the coarse-grid operator by injecting the coefficient
// field at odd fine nodes; c carries over unchanged.
func (op *Helmholtz3D) coarsen() *Helmholtz3D {
	nc := (op.A.N - 1) / 2
	ca := NewGrid3D(nc)
	for i := 0; i < nc; i++ {
		for j := 0; j < nc; j++ {
			for k := 0; k < nc; k++ {
				ca.Set(i, j, k, op.A.At(2*i+1, 2*j+1, 2*k+1))
			}
		}
	}
	return &Helmholtz3D{A: ca, C: op.C}
}

// MGOptions3D configures a 3-D multigrid cycle.
type MGOptions3D struct {
	Pre, Post int
	Gamma     int
	Omega     float64
}

// MGCycle3D performs one multigrid cycle on the Helmholtz problem. It
// builds a throwaway Hierarchy3D (including the coarsened operator chain)
// per call; loops over many cycles should construct the hierarchy once and
// call its Cycle method instead.
func MGCycle3D(op *Helmholtz3D, u, f *Grid3D, opt MGOptions3D, w *Work) {
	NewHierarchy3D(op).Cycle(u, f, opt, w)
}

// DirectHelmholtz3D solves the CONSTANT-coefficient surrogate of the
// operator (a replaced by its mean) exactly via 3-D sine transforms. For
// genuinely variable coefficients the result is only an approximation —
// which is precisely the accuracy/speed trade the benchmark's autotuner
// must navigate (see the poisson2d/helmholtz3d DESIGN.md entries).
func DirectHelmholtz3D(op *Helmholtz3D, f *Grid3D, w *Work) *Grid3D {
	n := f.N
	h := f.h()
	abar := 0.0
	for _, v := range op.A.Data {
		abar += v
	}
	abar /= float64(len(op.A.Data))
	basis := sineBasisFor(n, h)
	s, lam := basis.s, basis.lam
	fh := dstApply3D(s, f.Data, n)
	w.Flops += 3 * n * n * n * n
	norm := math.Pow(2.0/float64(n+1), 3)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				den := abar*(lam[i]+lam[j]+lam[k]) + op.C
				fh[(i*n+j)*n+k] *= norm / den
			}
		}
	}
	w.Flops += 3 * n * n * n
	out := NewGrid3D(n)
	out.Data = dstApply3D(s, fh, n)
	w.Flops += 3 * n * n * n * n
	return out
}

// dstApply3D applies the sine matrix along all three axes.
func dstApply3D(s [][]float64, x []float64, n int) []float64 {
	cur := append([]float64(nil), x...)
	next := make([]float64, n*n*n)
	// Axis 0.
	for j := 0; j < n; j++ {
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				sum := 0.0
				for t := 0; t < n; t++ {
					sum += s[i][t] * cur[(t*n+j)*n+k]
				}
				next[(i*n+j)*n+k] = sum
			}
		}
	}
	cur, next = next, cur
	// Axis 1.
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				sum := 0.0
				for t := 0; t < n; t++ {
					sum += s[j][t] * cur[(i*n+t)*n+k]
				}
				next[(i*n+j)*n+k] = sum
			}
		}
	}
	cur, next = next, cur
	// Axis 2.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				sum := 0.0
				for t := 0; t < n; t++ {
					sum += s[k][t] * cur[(i*n+j)*n+t]
				}
				next[(i*n+j)*n+k] = sum
			}
		}
	}
	return next
}
