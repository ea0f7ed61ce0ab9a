package pde

// This file preserves the original (pre-hierarchy) solver implementations
// verbatim. They are the differential-testing reference for the flattened
// kernels and the workspace-based multigrid cycles in grid2d.go, grid3d.go
// and hierarchy.go: differential_test.go proves the production kernels
// produce bit-identical grids and identical op counts against these, the
// same pattern dtree.ReferenceTrain serves for the classifier backbone.
// The reference kernels index exclusively through the bounds-checked At
// accessor and allocate their scratch grids per call, so they stay the
// simplest possible statement of the numerics.

// referenceResidual2D computes r = f + Δu (the residual of -Δu = f) into r.
func referenceResidual2D(u, f, r *Grid2D, w *Work) {
	n := u.N
	inv := 1.0 / (u.h() * u.h())
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			lap := (4*u.At(i, j) - u.At(i-1, j) - u.At(i+1, j) - u.At(i, j-1) - u.At(i, j+1)) * inv
			r.Set(i, j, f.At(i, j)-lap)
		}
	}
	w.Flops += 7 * n * n
}

// referenceJacobi2D performs one weighted Jacobi sweep on -Δu = f.
func referenceJacobi2D(u, f *Grid2D, omega float64, w *Work) {
	n := u.N
	h2 := u.h() * u.h()
	next := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			gs := (u.At(i-1, j) + u.At(i+1, j) + u.At(i, j-1) + u.At(i, j+1) + h2*f.At(i, j)) / 4
			next[i*n+j] = u.At(i, j) + omega*(gs-u.At(i, j))
		}
	}
	copy(u.Data, next)
	w.Flops += 8 * n * n
}

// referenceSOR2D performs one successive-over-relaxation sweep on -Δu = f.
func referenceSOR2D(u, f *Grid2D, omega float64, w *Work) {
	n := u.N
	h2 := u.h() * u.h()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			gs := (u.At(i-1, j) + u.At(i+1, j) + u.At(i, j-1) + u.At(i, j+1) + h2*f.At(i, j)) / 4
			u.Set(i, j, u.At(i, j)+omega*(gs-u.At(i, j)))
		}
	}
	w.Flops += 8 * n * n
}

// referenceRestrict2D full-weights the residual to the (n-1)/2 coarse grid.
func referenceRestrict2D(fine *Grid2D, w *Work) *Grid2D {
	nc := (fine.N - 1) / 2
	coarse := NewGrid2D(nc)
	for i := 0; i < nc; i++ {
		for j := 0; j < nc; j++ {
			fi, fj := 2*i+1, 2*j+1
			v := 0.25*fine.At(fi, fj) +
				0.125*(fine.At(fi-1, fj)+fine.At(fi+1, fj)+fine.At(fi, fj-1)+fine.At(fi, fj+1)) +
				0.0625*(fine.At(fi-1, fj-1)+fine.At(fi-1, fj+1)+fine.At(fi+1, fj-1)+fine.At(fi+1, fj+1))
			coarse.Set(i, j, v)
		}
	}
	w.Flops += 12 * nc * nc
	return coarse
}

// referenceProlong2D bilinearly interpolates the coarse correction onto
// fine, adding in place.
func referenceProlong2D(coarse, fine *Grid2D, w *Work) {
	nf := fine.N
	for i := 0; i < nf; i++ {
		for j := 0; j < nf; j++ {
			fine.Set(i, j, fine.At(i, j)+prolongCell2D(coarse, i, j))
		}
	}
	w.Flops += 4 * nf * nf
}

// ReferenceMGCycle2D performs one multigrid cycle on -Δu = f, allocating
// the residual and coarse grids per level per cycle — the original
// MGCycle2D, retained as the byte-exactness reference for Hierarchy2D.
func ReferenceMGCycle2D(u, f *Grid2D, opt MGOptions2D, w *Work) {
	if opt.Gamma < 1 {
		opt.Gamma = 1
	}
	if opt.Omega <= 0 {
		opt.Omega = 1
	}
	n := u.N
	if n <= 3 {
		// Coarsest level: smooth hard (tiny cost).
		for s := 0; s < 8; s++ {
			referenceSOR2D(u, f, 1.0, w)
		}
		return
	}
	for s := 0; s < opt.Pre; s++ {
		referenceSOR2D(u, f, opt.Omega, w)
	}
	r := NewGrid2D(n)
	referenceResidual2D(u, f, r, w)
	coarseF := referenceRestrict2D(r, w)
	coarseU := NewGrid2D(coarseF.N)
	for g := 0; g < opt.Gamma; g++ {
		ReferenceMGCycle2D(coarseU, coarseF, opt, w)
	}
	referenceProlong2D(coarseU, u, w)
	for s := 0; s < opt.Post; s++ {
		referenceSOR2D(u, f, opt.Omega, w)
	}
}

// referenceDSTApply2D computes S · X · S for the symmetric sine matrix S
// as two triple loops of ascending dot products — the original dense
// transform behind DirectPoisson2D.
func referenceDSTApply2D(s [][]float64, x []float64, n int) []float64 {
	tmp := make([]float64, n*n)
	// tmp = S X
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			sum := 0.0
			for k := 0; k < n; k++ {
				sum += s[i][k] * x[k*n+j]
			}
			tmp[i*n+j] = sum
		}
	}
	// out = tmp S
	out := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			sum := 0.0
			for k := 0; k < n; k++ {
				sum += tmp[i*n+k] * s[k][j]
			}
			out[i*n+j] = sum
		}
	}
	return out
}

// --- 3D -------------------------------------------------------------------

// faceA returns the face coefficient between node (i,j,k) and its
// neighbour in the given direction, as the average of the two node values
// (out-of-range neighbours reuse the interior node's coefficient).
func (op *Helmholtz3D) faceA(i, j, k, di, dj, dk int) float64 {
	ac := op.A.At(i, j, k)
	ni, nj, nk := i+di, j+dj, k+dk
	n := op.A.N
	if ni < 0 || nj < 0 || nk < 0 || ni >= n || nj >= n || nk >= n {
		return ac
	}
	return 0.5 * (ac + op.A.At(ni, nj, nk))
}

// apply computes (L u)(i,j,k) and the operator diagonal through the
// bounds-checked accessors: the reference seven-point stencil. The
// production sweeps evaluate it over raw slices (edgeStencil3D on boundary
// cells, inline on interior pencils) and must match it bit for bit.
func (op *Helmholtz3D) apply(u *Grid3D, i, j, k int) (lu, diag float64) {
	h2 := u.h() * u.h()
	var sumA, flux float64
	dirs := [6][3]int{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}}
	uc := u.At(i, j, k)
	for _, d := range dirs {
		a := op.faceA(i, j, k, d[0], d[1], d[2])
		sumA += a
		flux += a * u.At(i+d[0], j+d[1], k+d[2])
	}
	diag = sumA/h2 + op.C
	lu = (sumA*uc-flux)/h2 + op.C*uc
	return lu, diag
}

// referenceResidual3D computes r = f - L u.
func referenceResidual3D(op *Helmholtz3D, u, f, r *Grid3D, w *Work) {
	n := u.N
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				lu, _ := op.apply(u, i, j, k)
				r.Set(i, j, k, f.At(i, j, k)-lu)
			}
		}
	}
	w.Flops += 15 * n * n * n
}

// referenceJacobi3D performs one weighted Jacobi sweep.
func referenceJacobi3D(op *Helmholtz3D, u, f *Grid3D, omega float64, w *Work) {
	n := u.N
	next := make([]float64, n*n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				lu, diag := op.apply(u, i, j, k)
				uc := u.At(i, j, k)
				next[(i*n+j)*n+k] = uc + omega*(f.At(i, j, k)-lu)/diag
			}
		}
	}
	copy(u.Data, next)
	w.Flops += 17 * n * n * n
}

// referenceSOR3D performs one SOR sweep (omega = 1 gives Gauss-Seidel).
func referenceSOR3D(op *Helmholtz3D, u, f *Grid3D, omega float64, w *Work) {
	n := u.N
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				lu, diag := op.apply(u, i, j, k)
				uc := u.At(i, j, k)
				u.Set(i, j, k, uc+omega*(f.At(i, j, k)-lu)/diag)
			}
		}
	}
	w.Flops += 17 * n * n * n
}

// referenceRestrict3D full-weights a fine grid to the (n-1)/2 coarse grid
// using the 27-point kernel.
func referenceRestrict3D(fine *Grid3D, w *Work) *Grid3D {
	nc := (fine.N - 1) / 2
	coarse := NewGrid3D(nc)
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
	return coarse
}

// referenceProlong3D trilinearly interpolates the coarse correction onto
// fine, adding in place.
func referenceProlong3D(coarse, fine *Grid3D, w *Work) {
	nf := fine.N
	for i := 0; i < nf; i++ {
		for j := 0; j < nf; j++ {
			for k := 0; k < nf; k++ {
				v := trilinear(coarse, i, j, k)
				fine.Set(i, j, k, fine.At(i, j, k)+v)
			}
		}
	}
	w.Flops += 8 * nf * nf * nf
}

// ReferenceMGCycle3D performs one multigrid cycle on the Helmholtz problem,
// re-deriving the coarse operator and allocating the coarse grids per cycle
// — the original MGCycle3D, retained as the byte-exactness reference for
// Hierarchy3D.
func ReferenceMGCycle3D(op *Helmholtz3D, u, f *Grid3D, opt MGOptions3D, w *Work) {
	if opt.Gamma < 1 {
		opt.Gamma = 1
	}
	if opt.Omega <= 0 {
		opt.Omega = 1
	}
	n := u.N
	if n <= 3 {
		for s := 0; s < 8; s++ {
			referenceSOR3D(op, u, f, 1.0, w)
		}
		return
	}
	for s := 0; s < opt.Pre; s++ {
		referenceSOR3D(op, u, f, opt.Omega, w)
	}
	r := NewGrid3D(n)
	referenceResidual3D(op, u, f, r, w)
	coarseF := referenceRestrict3D(r, w)
	coarseU := NewGrid3D(coarseF.N)
	coarseOp := op.coarsen()
	for g := 0; g < opt.Gamma; g++ {
		ReferenceMGCycle3D(coarseOp, coarseU, coarseF, opt, w)
	}
	referenceProlong3D(coarseU, u, w)
	for s := 0; s < opt.Post; s++ {
		referenceSOR3D(op, u, f, opt.Omega, w)
	}
}

// referenceDSTApply3D applies the sine matrix along all three axes as
// triple loops of ascending dot products — the dense transform behind
// DirectHelmholtz3D.
func referenceDSTApply3D(s [][]float64, x []float64, n int) []float64 {
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
