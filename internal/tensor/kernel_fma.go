package tensor

import "math"

// Fast-tier panel loops. Every multiply-add here is contracted — acc =
// fma(a, b, acc), one rounding per step, chain strictly in ascending k order.
// That chain is what the VFMADD asm kernels and math.FMA both evaluate, so
// unlike the exact tier (where the vector kernel must copy the scalar
// expression tree verbatim), the fast tiers are bit-identical across every
// dispatch boundary by construction: a fused chain has no grouping freedom.
//
// The main body of each panel runs on the C-resident 4×8 dot kernel
// (fmaDot4x8 of kernel_fma_amd64.s): eight YMM accumulators carry four C
// rows × eight columns across the whole kcb panel, so C is touched once per
// panel instead of once per k-quad and each B row streams once per four C
// rows. Row tails (rows % 4) and column tails (ncb % 8) fall back to the
// 2×4 quad-axpy kernels, and the scalar fallbacks walk k one step at a time
// with math.FMA — all three produce the same bits, because per element they
// evaluate the same ascending fused chain. (The scalar fallbacks are also
// slow: math.FMA without FMA hardware goes through a software double-double
// path. TierFromEnv refuses to default to a fast tier on such hosts;
// explicit SetTier callers get correct, slower results.)
//
// Every loop here accumulates into C. Assign mode zeroes the C tile first,
// and fma(a, b, +0) rounds exactly like a·b (bar a −0 product, which comes
// out +0), so a chain seeded from zero needs no kernel of its own.
//
// The F32 panel loops consume float32 operands: values are widened to f64
// (exact) on load and the pack's per-panel scale is folded into the
// broadcast operand with one f64 multiply before the chain, so the
// accumulation arithmetic is identical to the f64 FMA path on pre-scaled
// operands. For the 4×8 kernel the fold happens once per four A rows, into
// stack panels reused across the whole ncb sweep.

// gemmPanelFMA is the fast-tier form of gemmPanel: C[rows×ncb] +=
// A[rows×kcb] · B[kcb×ncb] with fused multiply-adds.
func gemmPanelFMA(rows, ncb, kcb int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	if !(useFMA && ncb >= vecMinCols) {
		gemmPanelFMAScalar(rows, ncb, kcb, a, lda, b, ldb, c, ldc)
		return
	}
	i := 0
	for ; i+4 <= rows; i += 4 {
		a0 := a[i*lda : i*lda+kcb]
		a1 := a[(i+1)*lda : (i+1)*lda+kcb]
		a2 := a[(i+2)*lda : (i+2)*lda+kcb]
		a3 := a[(i+3)*lda : (i+3)*lda+kcb]
		ci := i * ldc
		j := 0
		for ; j+8 <= ncb; j += 8 {
			fmaDot4x8(kcb, a0, a1, a2, a3, b[j:], ldb,
				c[ci+j:ci+j+8], c[ci+ldc+j:ci+ldc+j+8],
				c[ci+2*ldc+j:ci+2*ldc+j+8], c[ci+3*ldc+j:ci+3*ldc+j+8])
		}
		if j < ncb {
			gemmPanelFMAAxpy(4, ncb-j, kcb, a[i*lda:], lda, b[j:], ldb, c[ci+j:], ldc)
		}
	}
	if i < rows {
		gemmPanelFMAAxpy(rows-i, ncb, kcb, a[i*lda:], lda, b, ldb, c[i*ldc:], ldc)
	}
}

// gemmPanelFMAAxpy is the quad-axpy tail path of gemmPanelFMA: the 2×4
// kernels of the original fast-tier loop, serving the row and column ranges
// the 4×8 dot kernel cannot tile. Same ascending-k fused chain per element,
// so mixing the two inside one panel keeps every element bit-identical.
func gemmPanelFMAAxpy(rows, ncb, kcb int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	i := 0
	for ; i+2 <= rows; i += 2 {
		ai0 := a[i*lda : i*lda+kcb]
		ai1 := a[(i+1)*lda : (i+1)*lda+kcb]
		ci0 := c[i*ldc : i*ldc+ncb]
		ci1 := c[(i+1)*ldc : (i+1)*ldc+ncb]
		p := 0
		for ; p+4 <= kcb; p += 4 {
			axpyQuad2FMA(ci0, ci1,
				b[p*ldb:p*ldb+ncb], b[(p+1)*ldb:(p+1)*ldb+ncb],
				b[(p+2)*ldb:(p+2)*ldb+ncb], b[(p+3)*ldb:(p+3)*ldb+ncb],
				ai0[p:p+4], ai1[p:p+4])
		}
		for ; p < kcb; p++ {
			a0v, a1v := ai0[p], ai1[p]
			bp := b[p*ldb : p*ldb+ncb]
			for j, bv := range bp {
				ci0[j] = math.FMA(a0v, bv, ci0[j])
				ci1[j] = math.FMA(a1v, bv, ci1[j])
			}
		}
	}
	if i < rows {
		ai := a[i*lda : i*lda+kcb]
		ci := c[i*ldc : i*ldc+ncb]
		p := 0
		for ; p+4 <= kcb; p += 4 {
			axpyQuad1FMA(ci,
				b[p*ldb:p*ldb+ncb], b[(p+1)*ldb:(p+1)*ldb+ncb],
				b[(p+2)*ldb:(p+2)*ldb+ncb], b[(p+3)*ldb:(p+3)*ldb+ncb],
				ai[p:p+4])
		}
		for ; p < kcb; p++ {
			av := ai[p]
			bp := b[p*ldb : p*ldb+ncb]
			for j, bv := range bp {
				ci[j] = math.FMA(av, bv, ci[j])
			}
		}
	}
}

// gemmPanelFMAScalar is the pure-Go fallback of gemmPanelFMA: the same fused
// ascending-k chain per element, via math.FMA.
func gemmPanelFMAScalar(rows, ncb, kcb int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	for i := 0; i < rows; i++ {
		ai := a[i*lda : i*lda+kcb]
		ci := c[i*ldc : i*ldc+ncb]
		for p, av := range ai {
			bp := b[p*ldb : p*ldb+ncb]
			for j, bv := range bp {
				ci[j] = math.FMA(av, bv, ci[j])
			}
		}
	}
}

// scaleRow writes dst[p] = src[p] · s — the fold of a PackedMat32 tile scale
// into the f64 broadcast operand, hoisted out of the kernel loop.
func scaleRow(dst, src []float64, s float64) {
	for p, v := range src {
		dst[p] = v * s
	}
}

// widenScaleRow is scaleRow from a float32 source: dst[p] = float64(src[p])·s.
// The widening is exact; the one rounding is the multiply, matching the
// scalar loops.
func widenScaleRow(dst []float64, src []float32, s float64) {
	for p, v := range src {
		dst[p] = float64(v) * s
	}
}

// --- f32 B-layout panels (dense orientation: PackedMat32 right operand) ---

// gemmPanelF32B computes C[rows×ncb] += A[rows×kcb] · (scale · B32[kcb×ncb])
// over a float32 B tile. The scale folds into the A values (one f64 multiply
// each, hoisted into stack panels for the 4×8 kernel); B lanes widen to f64
// on load. Counts its own kernel dispatch under TierF32.
func gemmPanelF32B(rows, ncb, kcb int, a []float64, lda int, scale float64, b []float32, ldb int, c []float64, ldc int) {
	if !(useFMA && ncb >= vecMinCols) {
		kernelScalarCount[TierF32].Add(1)
		for i := 0; i < rows; i++ {
			ai := a[i*lda : i*lda+kcb]
			ci := c[i*ldc : i*ldc+ncb]
			for p, av := range ai {
				avs := av * scale
				bp := b[p*ldb : p*ldb+ncb]
				for j, bv := range bp {
					ci[j] = math.FMA(avs, float64(bv), ci[j])
				}
			}
		}
		return
	}
	kernelVectorCount[TierF32].Add(1)
	i := 0
	if rows >= 4 {
		var as0, as1, as2, as3 [kcBlock]float64
		for ; i+4 <= rows; i += 4 {
			scaleRow(as0[:kcb], a[i*lda:i*lda+kcb], scale)
			scaleRow(as1[:kcb], a[(i+1)*lda:(i+1)*lda+kcb], scale)
			scaleRow(as2[:kcb], a[(i+2)*lda:(i+2)*lda+kcb], scale)
			scaleRow(as3[:kcb], a[(i+3)*lda:(i+3)*lda+kcb], scale)
			ci := i * ldc
			j := 0
			for ; j+8 <= ncb; j += 8 {
				fmaDot4x8B32(kcb, as0[:kcb], as1[:kcb], as2[:kcb], as3[:kcb], b[j:], ldb,
					c[ci+j:ci+j+8], c[ci+ldc+j:ci+ldc+j+8],
					c[ci+2*ldc+j:ci+2*ldc+j+8], c[ci+3*ldc+j:ci+3*ldc+j+8])
			}
			if j < ncb {
				gemmPanelF32BAxpy(4, ncb-j, kcb, a[i*lda:], lda, scale, b[j:], ldb, c[ci+j:], ldc)
			}
		}
	}
	if i < rows {
		gemmPanelF32BAxpy(rows-i, ncb, kcb, a[i*lda:], lda, scale, b, ldb, c[i*ldc:], ldc)
	}
}

// gemmPanelF32BAxpy is the quad-axpy tail path of gemmPanelF32B, folding the
// scale into per-quad broadcast buffers.
func gemmPanelF32BAxpy(rows, ncb, kcb int, a []float64, lda int, scale float64, b []float32, ldb int, c []float64, ldc int) {
	var a0s, a1s [4]float64
	i := 0
	for ; i+2 <= rows; i += 2 {
		ai0 := a[i*lda : i*lda+kcb]
		ai1 := a[(i+1)*lda : (i+1)*lda+kcb]
		ci0 := c[i*ldc : i*ldc+ncb]
		ci1 := c[(i+1)*ldc : (i+1)*ldc+ncb]
		p := 0
		for ; p+4 <= kcb; p += 4 {
			for q := 0; q < 4; q++ {
				a0s[q] = ai0[p+q] * scale
				a1s[q] = ai1[p+q] * scale
			}
			axpyQuad2F32(ci0, ci1,
				b[p*ldb:p*ldb+ncb], b[(p+1)*ldb:(p+1)*ldb+ncb],
				b[(p+2)*ldb:(p+2)*ldb+ncb], b[(p+3)*ldb:(p+3)*ldb+ncb],
				a0s[:], a1s[:])
		}
		for ; p < kcb; p++ {
			a0v, a1v := ai0[p]*scale, ai1[p]*scale
			bp := b[p*ldb : p*ldb+ncb]
			for j, bv := range bp {
				bw := float64(bv)
				ci0[j] = math.FMA(a0v, bw, ci0[j])
				ci1[j] = math.FMA(a1v, bw, ci1[j])
			}
		}
	}
	if i < rows {
		ai := a[i*lda : i*lda+kcb]
		ci := c[i*ldc : i*ldc+ncb]
		p := 0
		for ; p+4 <= kcb; p += 4 {
			for q := 0; q < 4; q++ {
				a0s[q] = ai[p+q] * scale
			}
			axpyQuad1F32(ci,
				b[p*ldb:p*ldb+ncb], b[(p+1)*ldb:(p+1)*ldb+ncb],
				b[(p+2)*ldb:(p+2)*ldb+ncb], b[(p+3)*ldb:(p+3)*ldb+ncb],
				a0s[:])
		}
		for ; p < kcb; p++ {
			av := ai[p] * scale
			bp := b[p*ldb : p*ldb+ncb]
			for j, bv := range bp {
				ci[j] = math.FMA(av, float64(bv), ci[j])
			}
		}
	}
}

// --- f32 A-layout panels (conv orientation: PackedMat32 left operand) ---

// gemmPanelF32A computes C[rows×ncb] += (scale · A32[rows×kcb]) · B32[kcb×ncb]
// — both operands float32: the pre-packed weight panel and the B tile the
// blocked driver cast once per tile (gemmBlockedPackedA32). Each A value is
// widened (exact) and scaled with one f64 multiply — hoisted into stack
// panels for the 4×8 kernel — and B lanes widen on load, so the kernel
// streams half the bytes of the f64 path on both operands. Counts its own
// kernel dispatch under TierF32.
func gemmPanelF32A(rows, ncb, kcb int, a []float32, lda int, scale float64, b []float32, ldb int, c []float64, ldc int) {
	if !(useFMA && ncb >= vecMinCols) {
		kernelScalarCount[TierF32].Add(1)
		for i := 0; i < rows; i++ {
			ai := a[i*lda : i*lda+kcb]
			ci := c[i*ldc : i*ldc+ncb]
			for p, av := range ai {
				avs := float64(av) * scale
				bp := b[p*ldb : p*ldb+ncb]
				for j, bv := range bp {
					ci[j] = math.FMA(avs, float64(bv), ci[j])
				}
			}
		}
		return
	}
	kernelVectorCount[TierF32].Add(1)
	i := 0
	if rows >= 4 {
		var as0, as1, as2, as3 [kcBlock]float64
		for ; i+4 <= rows; i += 4 {
			widenScaleRow(as0[:kcb], a[i*lda:i*lda+kcb], scale)
			widenScaleRow(as1[:kcb], a[(i+1)*lda:(i+1)*lda+kcb], scale)
			widenScaleRow(as2[:kcb], a[(i+2)*lda:(i+2)*lda+kcb], scale)
			widenScaleRow(as3[:kcb], a[(i+3)*lda:(i+3)*lda+kcb], scale)
			ci := i * ldc
			j := 0
			for ; j+8 <= ncb; j += 8 {
				fmaDot4x8B32(kcb, as0[:kcb], as1[:kcb], as2[:kcb], as3[:kcb], b[j:], ldb,
					c[ci+j:ci+j+8], c[ci+ldc+j:ci+ldc+j+8],
					c[ci+2*ldc+j:ci+2*ldc+j+8], c[ci+3*ldc+j:ci+3*ldc+j+8])
			}
			if j < ncb {
				gemmPanelF32AAxpy(4, ncb-j, kcb, a[i*lda:], lda, scale, b[j:], ldb, c[ci+j:], ldc)
			}
		}
	}
	if i < rows {
		gemmPanelF32AAxpy(rows-i, ncb, kcb, a[i*lda:], lda, scale, b, ldb, c[i*ldc:], ldc)
	}
}

// gemmPanelF32AAxpy is the quad-axpy tail path of gemmPanelF32A, widening
// and scaling A quads into broadcast buffers.
func gemmPanelF32AAxpy(rows, ncb, kcb int, a []float32, lda int, scale float64, b []float32, ldb int, c []float64, ldc int) {
	var a0s, a1s [4]float64
	i := 0
	for ; i+2 <= rows; i += 2 {
		ai0 := a[i*lda : i*lda+kcb]
		ai1 := a[(i+1)*lda : (i+1)*lda+kcb]
		ci0 := c[i*ldc : i*ldc+ncb]
		ci1 := c[(i+1)*ldc : (i+1)*ldc+ncb]
		p := 0
		for ; p+4 <= kcb; p += 4 {
			for q := 0; q < 4; q++ {
				a0s[q] = float64(ai0[p+q]) * scale
				a1s[q] = float64(ai1[p+q]) * scale
			}
			axpyQuad2F32(ci0, ci1,
				b[p*ldb:p*ldb+ncb], b[(p+1)*ldb:(p+1)*ldb+ncb],
				b[(p+2)*ldb:(p+2)*ldb+ncb], b[(p+3)*ldb:(p+3)*ldb+ncb],
				a0s[:], a1s[:])
		}
		for ; p < kcb; p++ {
			a0v, a1v := float64(ai0[p])*scale, float64(ai1[p])*scale
			bp := b[p*ldb : p*ldb+ncb]
			for j, bv := range bp {
				bw := float64(bv)
				ci0[j] = math.FMA(a0v, bw, ci0[j])
				ci1[j] = math.FMA(a1v, bw, ci1[j])
			}
		}
	}
	if i < rows {
		ai := a[i*lda : i*lda+kcb]
		ci := c[i*ldc : i*ldc+ncb]
		p := 0
		for ; p+4 <= kcb; p += 4 {
			for q := 0; q < 4; q++ {
				a0s[q] = float64(ai[p+q]) * scale
			}
			axpyQuad1F32(ci,
				b[p*ldb:p*ldb+ncb], b[(p+1)*ldb:(p+1)*ldb+ncb],
				b[(p+2)*ldb:(p+2)*ldb+ncb], b[(p+3)*ldb:(p+3)*ldb+ncb],
				a0s[:])
		}
		for ; p < kcb; p++ {
			av := float64(ai[p]) * scale
			bp := b[p*ldb : p*ldb+ncb]
			for j, bv := range bp {
				ci[j] = math.FMA(av, float64(bv), ci[j])
			}
		}
	}
}
