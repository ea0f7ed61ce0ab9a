package pde

// Grid2D holds an N×N interior grid (Dirichlet zero boundary) for
// -Δu = f on the unit square, h = 1/(N+1).
type Grid2D struct {
	N    int
	Data []float64 // row-major N×N
}

// NewGrid2D returns a zero grid. Multigrid requires N = 2^k - 1.
func NewGrid2D(n int) *Grid2D {
	return &Grid2D{N: n, Data: make([]float64, n*n)}
}

// At returns u(i, j) honouring the zero boundary for out-of-range indices.
func (g *Grid2D) At(i, j int) float64 {
	if i < 0 || j < 0 || i >= g.N || j >= g.N {
		return 0
	}
	return g.Data[i*g.N+j]
}

// Set assigns u(i, j).
func (g *Grid2D) Set(i, j int, v float64) { g.Data[i*g.N+j] = v }

// Clone deep-copies the grid.
func (g *Grid2D) Clone() *Grid2D {
	out := NewGrid2D(g.N)
	copy(out.Data, g.Data)
	return out
}

// RMS returns the root-mean-square of the grid values.
func (g *Grid2D) RMS() float64 { return rmsOf(g.Data) }

// SubRMS returns RMS(g - o).
func (g *Grid2D) SubRMS(o *Grid2D) float64 { return subRMSOf(g.Data, o.Data) }

// h returns the mesh width.
func (g *Grid2D) h() float64 { return 1.0 / float64(g.N+1) }

// Work tallies the floating-point work a solver performed.
type Work struct {
	Flops int
}

// The 2-D stencil kernels below are boundary-split: the interior of each
// row runs over raw slices with no At bounds logic, and only the outermost
// rows/columns take the guarded per-cell path. Every kernel preserves the
// reference implementation's floating-point expression shapes and operand
// order exactly, so results are bit-identical to reference.go
// (differential-test enforced), and charges the same per-sweep flop count.

// residualCell2D is the guarded per-cell residual for boundary cells.
func residualCell2D(ud, fd, rd []float64, n, i, j int, inv float64) {
	idx := i*n + j
	var up, down, left, right float64
	if i > 0 {
		up = ud[idx-n]
	}
	if i < n-1 {
		down = ud[idx+n]
	}
	if j > 0 {
		left = ud[idx-1]
	}
	if j < n-1 {
		right = ud[idx+1]
	}
	lap := (4*ud[idx] - up - down - left - right) * inv
	rd[idx] = fd[idx] - lap
}

// Residual2D computes r = f + Δu (the residual of -Δu = f) into r.
func Residual2D(u, f, r *Grid2D, w *Work) {
	n := u.N
	inv := 1.0 / (u.h() * u.h())
	ud, fd, rd := u.Data, f.Data, r.Data
	for i := 0; i < n; i++ {
		if i == 0 || i == n-1 {
			for j := 0; j < n; j++ {
				residualCell2D(ud, fd, rd, n, i, j, inv)
			}
			continue
		}
		residualCell2D(ud, fd, rd, n, i, 0, inv)
		row := i * n
		for idx := row + 1; idx < row+n-1; idx++ {
			lap := (4*ud[idx] - ud[idx-n] - ud[idx+n] - ud[idx-1] - ud[idx+1]) * inv
			rd[idx] = fd[idx] - lap
		}
		residualCell2D(ud, fd, rd, n, i, n-1, inv)
	}
	w.Flops += 7 * n * n
}

// jacobiCell2D is the guarded per-cell Jacobi update for boundary cells.
func jacobiCell2D(ud, fd, next []float64, n, i, j int, h2, omega float64) {
	idx := i*n + j
	var up, down, left, right float64
	if i > 0 {
		up = ud[idx-n]
	}
	if i < n-1 {
		down = ud[idx+n]
	}
	if j > 0 {
		left = ud[idx-1]
	}
	if j < n-1 {
		right = ud[idx+1]
	}
	gs := (up + down + left + right + h2*fd[idx]) / 4
	next[idx] = ud[idx] + omega*(gs-ud[idx])
}

// Jacobi2D performs one weighted Jacobi sweep (weight omega) on -Δu = f.
func Jacobi2D(u, f *Grid2D, omega float64, w *Work) {
	jacobi2D(u, f, omega, make([]float64, u.N*u.N), w)
}

// jacobi2D is Jacobi2D over a caller-provided scratch buffer (len n²), the
// allocation-free path Hierarchy2D.Jacobi uses.
func jacobi2D(u, f *Grid2D, omega float64, next []float64, w *Work) {
	n := u.N
	h2 := u.h() * u.h()
	ud, fd := u.Data, f.Data
	for i := 0; i < n; i++ {
		if i == 0 || i == n-1 {
			for j := 0; j < n; j++ {
				jacobiCell2D(ud, fd, next, n, i, j, h2, omega)
			}
			continue
		}
		jacobiCell2D(ud, fd, next, n, i, 0, h2, omega)
		row := i * n
		for idx := row + 1; idx < row+n-1; idx++ {
			gs := (ud[idx-n] + ud[idx+n] + ud[idx-1] + ud[idx+1] + h2*fd[idx]) / 4
			next[idx] = ud[idx] + omega*(gs-ud[idx])
		}
		jacobiCell2D(ud, fd, next, n, i, n-1, h2, omega)
	}
	copy(ud, next[:n*n])
	w.Flops += 8 * n * n
}

// sorCell2D is the guarded per-cell SOR update for boundary cells.
func sorCell2D(ud, fd []float64, n, i, j int, h2, omega float64) {
	idx := i*n + j
	var up, down, left, right float64
	if i > 0 {
		up = ud[idx-n]
	}
	if i < n-1 {
		down = ud[idx+n]
	}
	if j > 0 {
		left = ud[idx-1]
	}
	if j < n-1 {
		right = ud[idx+1]
	}
	gs := (up + down + left + right + h2*fd[idx]) / 4
	ud[idx] = ud[idx] + omega*(gs-ud[idx])
}

// sor2DDepth is how many SOR2D sweeps one wavefront keeps in flight.
const sor2DDepth = 4

// SOR2D performs sweeps successive-over-relaxation sweeps (omega = 1 gives
// Gauss-Seidel) on -Δu = f. The sweeps run as wavefronts of up to
// sor2DDepth sweeps, sweep s+1 trailing sweep s by two rows (sor2DWave);
// every cell is updated with the same expression, in the same order, from
// the same neighbour values as that many consecutive single sweeps, so the
// grid and the flop charge are bit-identical to them.
func SOR2D(u, f *Grid2D, omega float64, sweeps int, w *Work) {
	if sweeps <= 0 {
		return
	}
	n := u.N
	h2 := u.h() * u.h()
	for done := 0; done < sweeps; done += sor2DDepth {
		sor2DWave(u.Data, f.Data, n, h2, omega, min(sor2DDepth, sweeps-done))
	}
	w.Flops += 8 * n * n * sweeps
}

// sor2DWave runs d ≤ sor2DDepth consecutive sweeps as one wavefront: at
// step t, sweep q updates row t-2q. When sweep q reaches row i it has
// finished row i-1, sweep q-1 has finished row i+1, and sweep q+1 has not
// yet reached row i-1, so the row reads exactly the neighbours a lone
// sweep q would. The rows of one
// step lie at least two apart, so no cell of one is a neighbour of a cell
// of another, and their updates are independent: sorRows2D interleaves
// them column by column, which breaks the left-neighbour dependency chain
// that makes a single sweep latency-bound. (A lag of one row would leave
// each row reading the row below it in the same step.)
func sor2DWave(ud, fd []float64, n int, h2, omega float64, d int) {
	var rows [sor2DDepth]int
	for t := 0; t < n+2*(d-1); t++ {
		m := 0
		for q := 0; q < d; q++ {
			i := t - 2*q
			if i < 0 || i >= n {
				continue
			}
			if i == 0 || i == n-1 {
				for j := 0; j < n; j++ {
					sorCell2D(ud, fd, n, i, j, h2, omega)
				}
				continue
			}
			rows[m] = i * n
			m++
		}
		if m > 0 {
			sorRows2D(ud, fd, n, rows[:m], h2, omega)
		}
	}
}

// sorRows2D sweeps the interior rows starting at the flat offsets in rows
// (pairwise at least two rows apart), one column at a time across all of
// them. Each row's own cells still update in ascending column order.
func sorRows2D(ud, fd []float64, n int, rows []int, h2, omega float64) {
	for _, row := range rows {
		sorCell2D(ud, fd, n, row/n, 0, h2, omega)
	}
	for j := 1; j < n-1; j++ {
		for _, row := range rows {
			idx := row + j
			gs := (ud[idx-n] + ud[idx+n] + ud[idx-1] + ud[idx+1] + h2*fd[idx]) / 4
			ud[idx] = ud[idx] + omega*(gs-ud[idx])
		}
	}
	for _, row := range rows {
		sorCell2D(ud, fd, n, row/n, n-1, h2, omega)
	}
}

// Restrict2D full-weights the residual to the (n-1)/2 coarse grid.
func Restrict2D(fine *Grid2D, w *Work) *Grid2D {
	coarse := NewGrid2D((fine.N - 1) / 2)
	Restrict2DInto(fine, coarse, w)
	return coarse
}

// Restrict2DInto full-weights fine into the caller-provided coarse grid,
// the allocation-free path the multigrid hierarchy uses. When fine.N is
// odd (the multigrid invariant N = 2·coarse.N + 1) every one of the nine
// stencil taps is in range, so the whole restriction runs without bounds
// logic; other shapes take the guarded path.
func Restrict2DInto(fine, coarse *Grid2D, w *Work) {
	nc := coarse.N
	nf := fine.N
	if nf != 2*nc+1 {
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
		return
	}
	fd, cd := fine.Data, coarse.Data
	for i := 0; i < nc; i++ {
		crow := i * nc
		c := (2*i+1)*nf + 1 // fine index of (2i+1, 2j+1) at j = 0
		for j := 0; j < nc; j++ {
			v := 0.25*fd[c] +
				0.125*(fd[c-nf]+fd[c+nf]+fd[c-1]+fd[c+1]) +
				0.0625*(fd[c-nf-1]+fd[c-nf+1]+fd[c+nf-1]+fd[c+nf+1])
			cd[crow+j] = v
			c += 2
		}
	}
	w.Flops += 12 * nc * nc
}

// prolongCell2D evaluates the bilinear coarse-grid interpolant at fine
// point (i, j) through the bounds-checked accessor — the guarded path for
// boundary cells and non-multigrid shapes.
func prolongCell2D(coarse *Grid2D, i, j int) float64 {
	// Coarse coordinates (may be half-integral).
	ci, cj := (i-1)/2, (j-1)/2
	var v float64
	switch {
	case i%2 == 1 && j%2 == 1:
		v = coarse.At(ci, cj)
	case i%2 == 1:
		v = 0.5 * (coarse.At(ci, (j-2)/2+0) + coarse.At(ci, j/2))
	case j%2 == 1:
		v = 0.5 * (coarse.At((i-2)/2+0, cj) + coarse.At(i/2, cj))
	default:
		v = 0.25 * (coarse.At((i-2)/2, (j-2)/2) + coarse.At((i-2)/2, j/2) +
			coarse.At(i/2, (j-2)/2) + coarse.At(i/2, j/2))
	}
	return v
}

// Prolong2D bilinearly interpolates the coarse correction onto fine,
// adding in place.
func Prolong2D(coarse, fine *Grid2D, w *Work) {
	nf, nc := fine.N, coarse.N
	if nf != 2*nc+1 || nf < 3 {
		for i := 0; i < nf; i++ {
			for j := 0; j < nf; j++ {
				fine.Set(i, j, fine.At(i, j)+prolongCell2D(coarse, i, j))
			}
		}
		w.Flops += 4 * nf * nf
		return
	}
	fd, cd := fine.Data, coarse.Data
	for i := 0; i < nf; i++ {
		if i == 0 || i == nf-1 {
			row := i * nf
			for j := 0; j < nf; j++ {
				fd[row+j] += prolongCell2D(coarse, i, j)
			}
			continue
		}
		row := i * nf
		fd[row] += prolongCell2D(coarse, i, 0)
		if i%2 == 1 {
			base := ((i - 1) / 2) * nc
			for j := 1; j < nf-1; j++ {
				var v float64
				if j%2 == 1 {
					v = cd[base+(j-1)/2]
				} else {
					v = 0.5 * (cd[base+j/2-1] + cd[base+j/2])
				}
				fd[row+j] += v
			}
		} else {
			b0 := (i/2 - 1) * nc
			b1 := (i / 2) * nc
			for j := 1; j < nf-1; j++ {
				var v float64
				if j%2 == 1 {
					cj := (j - 1) / 2
					v = 0.5 * (cd[b0+cj] + cd[b1+cj])
				} else {
					v = 0.25 * (cd[b0+j/2-1] + cd[b0+j/2] + cd[b1+j/2-1] + cd[b1+j/2])
				}
				fd[row+j] += v
			}
		}
		fd[row+nf-1] += prolongCell2D(coarse, i, nf-1)
	}
	w.Flops += 4 * nf * nf
}

// MGOptions2D configures a multigrid cycle.
type MGOptions2D struct {
	Pre, Post int     // smoothing sweeps before/after coarse correction
	Gamma     int     // 1 = V-cycle, 2 = W-cycle
	Omega     float64 // smoother relaxation (SOR)
}

// MGCycle2D performs one multigrid cycle on -Δu = f. It builds a
// throwaway Hierarchy2D per call; loops over many cycles should construct
// the hierarchy once and call its Cycle method instead.
func MGCycle2D(u, f *Grid2D, opt MGOptions2D, w *Work) {
	NewHierarchy2D(u.N).Cycle(u, f, opt, w)
}

// DirectPoisson2D solves -Δu = f exactly via the 2-D discrete sine
// transform (the matrix decomposition method): O(N³) with dense 1-D
// transforms, no FFT needed at benchmark sizes. The sine basis and
// eigenvalues come from the per-size cache (util.go), so repeated solves
// at one problem size pay for them once.
func DirectPoisson2D(f *Grid2D, w *Work) *Grid2D {
	n := f.N
	h := f.h()
	basis := sineBasisFor(n, h)
	s, lam := basis.s, basis.lam
	// F̂ = S f S (two dense multiplications).
	fh := dstApply2D(s, f.Data, n)
	w.Flops += 4 * n * n * n
	// Scale by 1/(λi + λj) and the DST normalisation (2/(N+1))².
	norm := 4.0 / (float64(n+1) * float64(n+1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			fh[i*n+j] *= norm / (lam[i] + lam[j])
		}
	}
	w.Flops += 2 * n * n
	// u = S û S.
	out := NewGrid2D(n)
	out.Data = dstApply2D(s, fh, n)
	w.Flops += 4 * n * n * n
	return out
}

// dstApply2D computes S · X · S for the symmetric sine matrix S. Both
// products accumulate a whole output row at a time (row i += coefficient
// k × row k of the right operand, k ascending), so the inner loop streams
// contiguous memory; every output element still sums its n terms in
// ascending k order starting from +0, exactly the dot products of
// referenceDSTApply2D, so the result is bit-identical.
func dstApply2D(s [][]float64, x []float64, n int) []float64 {
	tmp := make([]float64, n*n)
	// tmp = S X
	for i := 0; i < n; i++ {
		row := tmp[i*n : i*n+n]
		for k, sik := range s[i][:n] {
			xk := x[k*n : k*n+n][:len(row)]
			for j := range row {
				row[j] += sik * xk[j]
			}
		}
	}
	// out = tmp S
	out := make([]float64, n*n)
	for i := 0; i < n; i++ {
		row := out[i*n : i*n+n]
		for k, tik := range tmp[i*n : i*n+n] {
			sk := s[k][:len(row)]
			for j := range row {
				row[j] += tik * sk[j]
			}
		}
	}
	return out
}
