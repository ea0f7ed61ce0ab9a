package pde

import "fmt"

// This file is the multigrid workspace engine. A Hierarchy owns the full
// restriction ladder of a problem size — residual scratch, coarse
// right-hand sides and coarse corrections at every level, plus (in 3-D)
// the coarsened operator chain — allocated once, so repeated cycles run
// allocation-free. Cycle results are bit-identical to the Reference
// implementations in reference.go: the hierarchy only changes WHERE the
// scratch lives, never the arithmetic performed on it.

// gridLadder returns the level sizes for a fine grid of n points:
// n, (n-1)/2, … down to the first size ≤ 3 (the coarsest level, solved by
// smoothing alone).
func gridLadder(n int) []int {
	sizes := []int{n}
	for sz := n; sz > 3; {
		sz = (sz - 1) / 2
		sizes = append(sizes, sz)
	}
	return sizes
}

// Hierarchy2D is the per-problem-size multigrid workspace for -Δu = f:
// the residual/correction ladder MGCycle2D used to allocate once per cycle
// per level, hoisted to one allocation per hierarchy. A hierarchy is not
// safe for concurrent use; callers that solve one problem from several
// goroutines pool hierarchies instead of sharing one.
type Hierarchy2D struct {
	sizes []int
	res   []*Grid2D // res[l]: residual scratch at level l
	cu    []*Grid2D // cu[l], l ≥ 1: coarse correction at level l
	cf    []*Grid2D // cf[l], l ≥ 1: restricted right-hand side at level l
	next  []float64 // finest-size Jacobi scratch, allocated on first use
}

// NewHierarchy2D allocates the restriction ladder for an n×n fine grid.
func NewHierarchy2D(n int) *Hierarchy2D {
	sizes := gridLadder(n)
	h := &Hierarchy2D{sizes: sizes}
	h.res = make([]*Grid2D, len(sizes))
	h.cu = make([]*Grid2D, len(sizes))
	h.cf = make([]*Grid2D, len(sizes))
	for l, sz := range sizes {
		h.res[l] = NewGrid2D(sz)
		if l > 0 {
			h.cu[l] = NewGrid2D(sz)
			h.cf[l] = NewGrid2D(sz)
		}
	}
	return h
}

// N returns the fine-grid size the hierarchy was built for.
func (h *Hierarchy2D) N() int { return h.sizes[0] }

// Cycle performs one multigrid cycle on -Δu = f, bit-identical to
// ReferenceMGCycle2D. u and f must be h.N()×h.N() grids.
func (h *Hierarchy2D) Cycle(u, f *Grid2D, opt MGOptions2D, w *Work) {
	if u.N != h.sizes[0] {
		panic(fmt.Sprintf("pde: Hierarchy2D built for N=%d used with N=%d", h.sizes[0], u.N))
	}
	if opt.Gamma < 1 {
		opt.Gamma = 1
	}
	if opt.Omega <= 0 {
		opt.Omega = 1
	}
	h.cycle(0, u, f, opt, w)
}

func (h *Hierarchy2D) cycle(l int, u, f *Grid2D, opt MGOptions2D, w *Work) {
	n := u.N
	if n <= 3 {
		// Coarsest level: smooth hard (tiny cost).
		SOR2D(u, f, 1.0, 8, w)
		return
	}
	SOR2D(u, f, opt.Omega, opt.Pre, w)
	r := h.res[l]
	Residual2D(u, f, r, w)
	cu, cf := h.cu[l+1], h.cf[l+1]
	Restrict2DInto(r, cf, w)
	zeroFloats(cu.Data)
	for g := 0; g < opt.Gamma; g++ {
		h.cycle(l+1, cu, cf, opt, w)
	}
	Prolong2D(cu, u, w)
	SOR2D(u, f, opt.Omega, opt.Post, w)
}

// Jacobi performs one weighted Jacobi sweep on the fine grid using the
// hierarchy's scratch buffer instead of allocating one per sweep.
func (h *Hierarchy2D) Jacobi(u, f *Grid2D, omega float64, w *Work) {
	if u.N != h.sizes[0] {
		panic(fmt.Sprintf("pde: Hierarchy2D built for N=%d used with N=%d", h.sizes[0], u.N))
	}
	if h.next == nil {
		h.next = make([]float64, u.N*u.N)
	}
	jacobi2D(u, f, omega, h.next, w)
}

// OpChain3D is the coarsened-operator ladder of one Helmholtz problem:
// ops[0] is the fine operator and ops[l+1] = ops[l].coarsen(). The chain
// is immutable once built, so it is computed once per problem and shared
// by every hierarchy (and every goroutine) solving that problem —
// MGCycle3D used to re-derive it on every cycle at every level. padded[l]
// reports whether level l's SOR sweeps run padded (mirrorExact3D), decided
// once per level; a level that fails keeps the boundary-split sweep.
type OpChain3D struct {
	ops    []*Helmholtz3D
	padded []bool
}

// NewOpChain3D coarsens op down the same ladder gridLadder yields.
func NewOpChain3D(op *Helmholtz3D) *OpChain3D {
	c := &OpChain3D{ops: []*Helmholtz3D{op}}
	for last := op; last.A.N > 3; {
		last = last.coarsen()
		c.ops = append(c.ops, last)
	}
	c.padded = make([]bool, len(c.ops))
	for l, o := range c.ops {
		c.padded[l] = mirrorExact3D(o.A)
	}
	return c
}

// N returns the fine-grid size of the chain.
func (c *OpChain3D) N() int { return c.ops[0].A.N }

// Hierarchy3D is the per-problem multigrid workspace for the Helmholtz
// operator: the shared coarsened operator chain plus this hierarchy's own
// residual/correction ladder. Not safe for concurrent use (the chain is;
// pool hierarchies around one chain for concurrent solves).
type Hierarchy3D struct {
	chain *OpChain3D
	sizes []int
	res   []*Grid3D
	cu    []*Grid3D
	cf    []*Grid3D
	next  []float64
	// pad[l] is level l's padded SOR scratch, allocated on first use.
	// Sweeps write only its interior, so its ghosts stay zero; each level
	// keeps its own because a buffer shared across sizes would turn one
	// size's interior cells into another's ghosts.
	pad [][]float64
}

// NewHierarchy3D builds the operator chain for op and allocates a
// hierarchy over it.
func NewHierarchy3D(op *Helmholtz3D) *Hierarchy3D {
	return NewHierarchy3DFromChain(NewOpChain3D(op))
}

// NewHierarchy3DFromChain allocates a fresh scratch ladder over an
// existing (shareable) operator chain.
func NewHierarchy3DFromChain(chain *OpChain3D) *Hierarchy3D {
	sizes := gridLadder(chain.N())
	h := &Hierarchy3D{chain: chain, sizes: sizes}
	h.res = make([]*Grid3D, len(sizes))
	h.cu = make([]*Grid3D, len(sizes))
	h.cf = make([]*Grid3D, len(sizes))
	h.pad = make([][]float64, len(sizes))
	for l, sz := range sizes {
		h.res[l] = NewGrid3D(sz)
		if l > 0 {
			h.cu[l] = NewGrid3D(sz)
			h.cf[l] = NewGrid3D(sz)
		}
	}
	return h
}

// sor performs sweeps SOR sweeps with level l's operator.
func (h *Hierarchy3D) sor(l int, u, f *Grid3D, omega float64, sweeps int, w *Work) {
	if h.chain.padded[l] && h.pad[l] == nil {
		p := h.sizes[l] + 2
		h.pad[l] = make([]float64, p*p*p)
	}
	sor3D(h.chain.ops[l], h.pad[l], u, f, omega, sweeps, w)
}

// N returns the fine-grid size the hierarchy was built for.
func (h *Hierarchy3D) N() int { return h.sizes[0] }

// Cycle performs one multigrid cycle on the Helmholtz problem,
// bit-identical to ReferenceMGCycle3D on the chain's fine operator.
func (h *Hierarchy3D) Cycle(u, f *Grid3D, opt MGOptions3D, w *Work) {
	if u.N != h.sizes[0] {
		panic(fmt.Sprintf("pde: Hierarchy3D built for N=%d used with N=%d", h.sizes[0], u.N))
	}
	if opt.Gamma < 1 {
		opt.Gamma = 1
	}
	if opt.Omega <= 0 {
		opt.Omega = 1
	}
	h.cycle(0, u, f, opt, w)
}

func (h *Hierarchy3D) cycle(l int, u, f *Grid3D, opt MGOptions3D, w *Work) {
	op := h.chain.ops[l]
	n := u.N
	if n <= 3 {
		h.sor(l, u, f, 1.0, 8, w)
		return
	}
	h.sor(l, u, f, opt.Omega, opt.Pre, w)
	r := h.res[l]
	Residual3D(op, u, f, r, w)
	cu, cf := h.cu[l+1], h.cf[l+1]
	Restrict3DInto(r, cf, w)
	zeroFloats(cu.Data)
	for g := 0; g < opt.Gamma; g++ {
		h.cycle(l+1, cu, cf, opt, w)
	}
	Prolong3D(cu, u, w)
	h.sor(l, u, f, opt.Omega, opt.Post, w)
}

// CoarseCorrect performs the coarse-grid correction phase of one fine-
// level cycle — residual, restrict, Gamma recursive coarse cycles,
// prolong — without the fine-level pre/post smooths. A full cycle on a
// fine grid larger than the coarsest level decomposes bitwise as
//
//	Pre × SOR(omega);  CoarseCorrect;  Post × SOR(omega)
//
// which is what lets callers checkpoint and share the intermediate
// states (the phases run the same arithmetic Cycle runs, in the same
// order, on the same scratch). Requires N() > 3: on a coarsest-size fine
// grid Cycle is pure smoothing and has no correction phase to split out.
func (h *Hierarchy3D) CoarseCorrect(u, f *Grid3D, opt MGOptions3D, w *Work) {
	if u.N != h.sizes[0] {
		panic(fmt.Sprintf("pde: Hierarchy3D built for N=%d used with N=%d", h.sizes[0], u.N))
	}
	if u.N <= 3 {
		panic("pde: CoarseCorrect on a coarsest-level grid (Cycle is pure smoothing there)")
	}
	if opt.Gamma < 1 {
		opt.Gamma = 1
	}
	if opt.Omega <= 0 {
		opt.Omega = 1
	}
	r := h.res[0]
	Residual3D(h.chain.ops[0], u, f, r, w)
	cu, cf := h.cu[1], h.cf[1]
	Restrict3DInto(r, cf, w)
	zeroFloats(cu.Data)
	for g := 0; g < opt.Gamma; g++ {
		h.cycle(1, cu, cf, opt, w)
	}
	Prolong3D(cu, u, w)
}

// Jacobi performs one weighted Jacobi sweep with the chain's fine operator
// using the hierarchy's scratch buffer.
func (h *Hierarchy3D) Jacobi(u, f *Grid3D, omega float64, w *Work) {
	if u.N != h.sizes[0] {
		panic(fmt.Sprintf("pde: Hierarchy3D built for N=%d used with N=%d", h.sizes[0], u.N))
	}
	if h.next == nil {
		h.next = make([]float64, u.N*u.N*u.N)
	}
	jacobi3D(h.chain.ops[0], u, f, omega, h.next, w)
}

// SOR performs sweeps SOR sweeps with the chain's fine operator, over the
// hierarchy's padded scratch.
func (h *Hierarchy3D) SOR(u, f *Grid3D, omega float64, sweeps int, w *Work) {
	if u.N != h.sizes[0] {
		panic(fmt.Sprintf("pde: Hierarchy3D built for N=%d used with N=%d", h.sizes[0], u.N))
	}
	h.sor(0, u, f, omega, sweeps, w)
}
