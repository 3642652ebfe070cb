package tensor

// FMA backend of the axpy micro-kernel (the fast tiers' vector path). Unlike
// the AVX kernels of kernel_amd64.go, each lane here contracts every
// multiply-add into one VFMADD231PD — acc = fma(a, b, acc), rounded once —
// matching the math.FMA chain the fast tiers' scalar loops evaluate, so the
// fma and f32 tiers are bit-deterministic across the vector/scalar dispatch
// boundary even though they are not bit-identical to the exact tier. The F32
// variants take float32 B panels and widen each lane to f64 on load
// (VCVTPS2PD); accumulation stays f64 throughout. Every kernel loads C and
// accumulates into it; assign-mode callers zero the C tile first. Detection
// is at process start via CPUID; non-FMA hosts stay on the math.FMA scalar
// loops.

// useFMA gates the fused vector kernels; overridable in tests to pin the
// vector/scalar determinism of the fast tiers.
var useFMA = cpuHasFMA()

// cpuHasFMA reports whether the CPU supports FMA3 alongside AVX and the OS
// saves YMM state.
func cpuHasFMA() bool

// axpyQuad2FMA computes, for j in [0, len(c0)):
//
//	c0[j] = fma(a0[3],b3[j], fma(a0[2],b2[j], fma(a0[1],b1[j], fma(a0[0],b0[j], c0[j]))))
//	c1[j] = fma(a1[3],b3[j], fma(a1[2],b2[j], fma(a1[1],b1[j], fma(a1[0],b0[j], c1[j]))))
//
// b0..b3 and c1 must hold at least len(c0) elements, a0 and a1 at least 4.
//
//go:noescape
func axpyQuad2FMA(c0, c1, b0, b1, b2, b3, a0, a1 []float64)

// axpyQuad1FMA is the one-row form of axpyQuad2FMA.
//
//go:noescape
func axpyQuad1FMA(c0, b0, b1, b2, b3, a0 []float64)

// fmaDot4x8 is the C-resident 4×8 dot micro-kernel: it computes, for four C
// row slices c0..c3 (each at least 8 wide) against four A row slices a0..a3
// (each at least kcb long) and a B panel with row stride ldb,
//
//	cr[j] = fma(ar[kcb-1],b[kcb-1][j], ... fma(ar[1],b[1][j], fma(ar[0],b[0][j], cr[j])))
//
// for r in 0..3 and j in 0..7 — the same ascending-k fused chain as the
// axpyQuad kernels and math.FMA, carried in registers across the whole kcb
// panel instead of spilling to C every four k steps. b must hold at least
// (kcb-1)·ldb + 8 elements.
//
//go:noescape
func fmaDot4x8(kcb int, a0, a1, a2, a3, b []float64, ldb int, c0, c1, c2, c3 []float64)

// fmaDot4x8B32 is fmaDot4x8 over a float32 B panel: B lanes widen to f64 on
// load (VCVTPS2PD, exact), so the arithmetic — and the result, given equal
// inputs — is identical to fmaDot4x8 on pre-widened operands. A PackedMat32
// scale is folded into a0..a3 by the caller.
//
//go:noescape
func fmaDot4x8B32(kcb int, a0, a1, a2, a3 []float64, b []float32, ldb int, c0, c1, c2, c3 []float64)

// cvtPD2PS narrows dst[i] = float32(src[i]) for i in [0, len(src)) with
// round-to-nearest-even — bit-identical to Go's conversion, ~4 lanes per
// cycle instead of the scalar loop's one. len(dst) must be ≥ len(src).
//
//go:noescape
func cvtPD2PS(dst []float32, src []float64)

// axpyQuad2F32 is axpyQuad2FMA over float32 B panels: each B lane is widened
// to f64 (exact) before the fused multiply-add, so the arithmetic — and the
// result, given equal inputs — is identical to axpyQuad2FMA on pre-widened
// operands. The per-panel scale of a PackedMat32 is folded into a0/a1 by the
// caller. These serve the f32 row and column tails the 4×8 dot kernel
// cannot cover (fewer than 4 C rows, or fewer than 8 columns).
//
//go:noescape
func axpyQuad2F32(c0, c1 []float64, b0, b1, b2, b3 []float32, a0, a1 []float64)

// axpyQuad1F32 is the one-row form of axpyQuad2F32.
//
//go:noescape
func axpyQuad1F32(c0 []float64, b0, b1, b2, b3 []float32, a0 []float64)
