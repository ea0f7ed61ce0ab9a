// Package pde is the numerical substrate of the Poisson 2D and Helmholtz
// 3D benchmarks: finite-difference grids with Dirichlet zero boundaries,
// pointwise smoothers (weighted Jacobi, Gauss-Seidel, SOR), geometric
// multigrid with tunable cycle shape, and the dense sine-transform direct
// solvers DirectPoisson2D and DirectHelmholtz3D (O(N³) and O(N⁴) per solve;
// one cached sine basis per problem size).
// All solvers report their flop work through a Work tally so the
// benchmarks can charge a cost.Meter in one batch per run.
//
// # Kernel layers
//
// Each stencil operation exists in two forms:
//
//   - The production kernels (Residual2D/3D, Jacobi2D/3D, SOR2D/3D,
//     Restrict2DInto/3DInto, Prolong2D/3D) are boundary-split: interior
//     cells run over raw slices with no bounds logic, boundary cells take
//     a guarded per-cell path, and non-multigrid grid shapes fall back to
//     the fully guarded loop. The 3-D guarded path is edgeStencil3D, a
//     raw-slice stencil whose out-of-range neighbours contribute a = ac
//     and v = 0 (a*v still formed, so Inf and NaN behave as in the
//     reference). The dense transform behind DirectPoisson2D accumulates
//     a row at a time, each element summing in ascending order from +0.
//   - The reference kernels (reference.go) are the original At-indexed,
//     allocate-per-call implementations — the simplest statement of the
//     numerics, retained as the differential-testing baseline. The
//     At-indexed stencil Helmholtz3D.apply and the triple-loop dense
//     transforms referenceDSTApply2D/3D live there and only there.
//
// The two layers are bit-identical: the production kernels preserve the
// reference floating-point expression shapes and operand order exactly,
// and differential_test.go enforces equality of every grid value (by bit
// pattern) and every op count on randomized inputs and on a table of
// degenerate values (±0, subnormals, ±Inf, NaN).
//
// # Multigrid workspace engine
//
// Hierarchy2D and Hierarchy3D (hierarchy.go) own a problem's full
// restriction ladder — residual scratch, coarse right-hand sides and
// corrections at every level, plus the coarsened Helmholtz operator chain
// (OpChain3D) — allocated once per problem instead of once per cycle, so
// Cycle is an allocation-free inner loop. ReferenceMGCycle2D/3D retain
// the original allocate-per-cycle recursion as the baseline. OpChain3D is
// immutable and shareable across goroutines; hierarchies themselves are
// single-threaded and meant to be pooled.
package pde
