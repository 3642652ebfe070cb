package tensor

import (
	"fmt"
	"math"
	"sync"
)

// Persistent pre-packed operand panels. The blocked engine (gemm.go) packs
// transposed operands into cache-sized scratch panels on every call, and the
// straight operands it streams still pay strided reads when the caller hands
// in a prefix slice of a wider weight buffer. At inference time the weight
// operand of every GEMM is immutable, so that packing is pure waste after the
// first query: a PackedMat performs it exactly once, laying the operand out in
// the micro-panel order the blocked loops consume, and the GemmPackedEx /
// GemmTBPackedEx entry points stream those panels directly.
//
// The panel geometry matches the engine's blocking (kcBlock × ncBlock), so a
// packed product visits memory in the same order as an unpacked one and the
// per-element accumulation order is unchanged — packed results are
// bit-identical to the unpacked blocked engine. (A wider 4×4 / 2×8 scalar
// micro-kernel over the packed panels was measured and rejected: Go's scalar
// codegen spills its sixteen live multipliers and loses 20-40% to the 2×4
// kernel at every serving shape; the kernel win comes instead from the
// vectorized quad-axpy of kernel.go, which both packed and unpacked paths
// share.)
//
// A PackedMat is immutable after construction and safe for any number of
// concurrent readers; parallel fan-out shares the one pack across workers
// instead of re-packing per worker.

// PackedMat is an operand repacked into the blocked engine's micro-panel
// layout. Two layouts exist, chosen by the constructor:
//
//   - A-layout (PackA): the m×k left operand, stored as one m×kcb row-major
//     panel (ld = kcb) per kc block, panels concatenated in k order. Row i of
//     k-panel pc starts at m·pc + i·kcb.
//   - B-layout (PackTB): the k×n right operand, stored as kcb×ncb
//     row-major tiles (ld = ncb), k-major then n: the tile covering
//     (pc, jc) starts at pc·n + kcb·jc.
//
// Both layouts hold exactly rows·cols elements — edge panels are stored at
// their ragged size, not padded — so a pack costs the same memory as the
// operand it shadows.
type PackedMat struct {
	rows, cols int // logical operand shape: A[m×k] or B[k×n]
	aLayout    bool
	data       []float64
}

// Packed is the interface over the pack variants the engine consumes: the
// f64 PackedMat (exact and fma tiers) and the float32 PackedMat32 (f32
// tier). The packed GEMM entry points type-switch on the concrete type; the
// interface exists so pack caches can hold either variant uniformly.
type Packed interface {
	// Dims returns the logical (rows, cols) of the packed operand: (m, k)
	// for an A-layout pack, (k, n) for a B-layout pack.
	Dims() (rows, cols int)
	// Bytes reports the resident size of the pack's panel storage.
	Bytes() int
	// packedALayout distinguishes the two panel layouts and seals the
	// interface to this package's pack types.
	packedALayout() bool
}

// Dims returns the logical (rows, cols) of the packed operand: (m, k) for an
// A-layout pack, (k, n) for a B-layout pack.
func (p *PackedMat) Dims() (rows, cols int) { return p.rows, p.cols }

// Bytes reports the resident size of the pack's panel storage.
func (p *PackedMat) Bytes() int { return len(p.data) * 8 }

func (p *PackedMat) packedALayout() bool { return p.aLayout }

// PackedMat32 is the f32 tier's pack variant: the same micro-panel layouts
// as PackedMat, but each value is stored as a float32 quotient against one
// f64 scale per panel (A-layout: per kc panel; B-layout: per kcb×ncb tile).
// The scale is the panel's max |value| — it maps the panel into [-1, 1],
// where float32 quantization error is a uniform ≤2⁻²⁴ relative, independent
// of the panel's magnitude — and panels of zeros take scale 1 so the
// quotient stays finite. Kernels widen values back to f64 on load and fold
// the scale into the opposite operand's broadcast, so accumulation stays f64
// end to end and the only accuracy loss is the one f32 rounding per stored
// weight. Pack bytes are half of PackedMat (plus a handful of scales).
//
// Like PackedMat, a PackedMat32 is immutable after construction and safe for
// any number of concurrent readers.
type PackedMat32 struct {
	rows, cols int
	aLayout    bool
	data       []float32
	scales     []float64
}

// Dims returns the logical (rows, cols) of the packed operand.
func (p *PackedMat32) Dims() (rows, cols int) { return p.rows, p.cols }

// Bytes reports the resident size of the pack's panel and scale storage.
func (p *PackedMat32) Bytes() int { return len(p.data)*4 + len(p.scales)*8 }

func (p *PackedMat32) packedALayout() bool { return p.aLayout }

// packScale returns the f32 quantization scale for one panel: its max
// absolute value, or 1 for an all-zero panel.
func packScale(max float64) float64 {
	if max == 0 {
		return 1
	}
	return max
}

// PackA packs the straight left operand A[m×k] (row stride lda) into A-layout
// panels for GemmPackedEx.
func PackA(m, k int, a []float64, lda int) *PackedMat {
	checkMat("PackA A", m, k, lda, len(a))
	p := &PackedMat{rows: m, cols: k, aLayout: true, data: make([]float64, m*k)}
	for pc := 0; pc < k; pc += kcBlock {
		kcb := min(kcBlock, k-pc)
		dst := p.data[m*pc:]
		for i := 0; i < m; i++ {
			copy(dst[i*kcb:(i+1)*kcb], a[i*lda+pc:i*lda+pc+kcb])
		}
	}
	return p
}

// PackTB packs a transposed right operand — B stored [n×k] with row stride
// ldb, consumed as Bᵀ[k×n] (the GemmTB orientation: a dense layer's
// [Out × In] weight) — into B-layout tiles.
func PackTB(n, k int, b []float64, ldb int) *PackedMat {
	checkMat("PackTB B", n, k, ldb, len(b))
	p := &PackedMat{rows: k, cols: n, data: make([]float64, k*n)}
	for pc := 0; pc < k; pc += kcBlock {
		kcb := min(kcBlock, k-pc)
		for jc := 0; jc < n; jc += ncBlock {
			ncb := min(ncBlock, n-jc)
			// tile[p×ncb] = B[jc:jc+ncb, pc:pc+kcb]ᵀ, exactly the panel the
			// unpacked engine re-packs per call.
			packTrans(p.data[pc*n+kcb*jc:], kcb, ncb, b, ldb, jc, pc)
		}
	}
	return p
}

// PackA32 packs the straight left operand A[m×k] into the f32 tier's
// A-layout panels: PackA's geometry with float32 storage and one scale per
// kc panel.
func PackA32(m, k int, a []float64, lda int) *PackedMat32 {
	checkMat("PackA32 A", m, k, lda, len(a))
	p := &PackedMat32{rows: m, cols: k, aLayout: true, data: make([]float32, m*k),
		scales: make([]float64, (k+kcBlock-1)/kcBlock)}
	for pc := 0; pc < k; pc += kcBlock {
		kcb := min(kcBlock, k-pc)
		max := 0.0
		for i := 0; i < m; i++ {
			for _, v := range a[i*lda+pc : i*lda+pc+kcb] {
				max = math.Max(max, math.Abs(v))
			}
		}
		s := packScale(max)
		p.scales[pc/kcBlock] = s
		dst := p.data[m*pc:]
		for i := 0; i < m; i++ {
			row := a[i*lda+pc : i*lda+pc+kcb]
			for j, v := range row {
				dst[i*kcb+j] = float32(v / s)
			}
		}
	}
	return p
}

// PackTB32 packs a transposed right operand (the PackTB orientation: a dense
// layer's [Out × In] weight consumed as Bᵀ[k×n]) into the f32 tier's
// B-layout tiles: PackTB's geometry with float32 storage and one scale per
// kcb×ncb tile.
func PackTB32(n, k int, b []float64, ldb int) *PackedMat32 {
	checkMat("PackTB32 B", n, k, ldb, len(b))
	nJc := (n + ncBlock - 1) / ncBlock
	nPc := (k + kcBlock - 1) / kcBlock
	p := &PackedMat32{rows: k, cols: n, data: make([]float32, k*n),
		scales: make([]float64, nPc*nJc)}
	for pc := 0; pc < k; pc += kcBlock {
		kcb := min(kcBlock, k-pc)
		for jc := 0; jc < n; jc += ncBlock {
			ncb := min(ncBlock, n-jc)
			max := 0.0
			for jj := 0; jj < ncb; jj++ {
				for _, v := range b[(jc+jj)*ldb+pc : (jc+jj)*ldb+pc+kcb] {
					max = math.Max(max, math.Abs(v))
				}
			}
			s := packScale(max)
			p.scales[(pc/kcBlock)*nJc+jc/ncBlock] = s
			// tile[p×ncb] = B[jc:jc+ncb, pc:pc+kcb]ᵀ / s.
			dst := p.data[pc*n+kcb*jc:]
			for jj := 0; jj < ncb; jj++ {
				src := b[(jc+jj)*ldb+pc : (jc+jj)*ldb+pc+kcb]
				for pp, v := range src {
					dst[pp*ncb+jj] = float32(v / s)
				}
			}
		}
	}
	return p
}

// GemmTBPrefersPacked reports whether a C[m×n] = A·Bᵀ product of the given
// shape runs on the blocked engine, where the persistent packed path is
// faster and bit-identical to the unpacked one. Below the small-product
// threshold GemmTB/GemmTBEx use the strided dot-product kernel instead —
// there the pack would change the accumulation order and save nothing, so
// callers skip packing for those widths.
func GemmTBPrefersPacked(m, n, k int) bool { return m*n*k >= smallGemmFlops }

// GemmPackedEx computes C[m×n] = epilogue(A · B) with a pre-packed A operand
// (PackA) and a streamed B — assign mode, like GemmEx. This is the
// convolution orientation: the immutable weight matrix is A, the per-call
// im2col matrix is B. Results are bit-identical to GemmEx on the same
// operands, at any GOMAXPROCS: the packed panels preserve the blocked
// engine's per-element accumulation order, and a parallel split shares the
// one pack across workers instead of re-packing per worker.
func GemmPackedEx(m, n, k int, pa Packed, b []float64, ldb int, c []float64, ldc int, ep *Epilogue) {
	GemmPackedExT(TierExact, m, n, k, pa, b, ldb, c, ldc, ep)
}

// GemmPackedExT is GemmPackedEx on an explicit engine tier. The pack's
// concrete type picks the data path: a *PackedMat runs the tier's f64
// kernels (TierF32 degrades to TierFMA semantics — there is no f32 data to
// widen), while a *PackedMat32 always runs the f32 widen-on-load kernels
// regardless of the requested tier, since the stored weights have already
// been quantized.
func GemmPackedExT(tier EngineTier, m, n, k int, pa Packed, b []float64, ldb int, c []float64, ldc int, ep *Epilogue) {
	pm, _ := pa.(*PackedMat)
	p32, _ := pa.(*PackedMat32)
	if (pm == nil || !pm.aLayout) && (p32 == nil || !p32.aLayout) {
		panic("tensor: GemmPackedEx: A operand is not an A-layout pack (PackA/PackA32)")
	}
	pr, pc := pa.Dims()
	if pr != m || pc != k {
		panic(fmt.Sprintf("tensor: GemmPackedEx: packed A is %d×%d, product wants %d×%d", pr, pc, m, k))
	}
	checkMat("GemmPackedEx B", k, n, ldb, len(b))
	checkMat("GemmPackedEx C", m, n, ldc, len(c))
	ep.check(m, n)
	if ep.empty() {
		ep = nil
	}
	if k == 0 {
		gemmAssignEmptyK(m, n, c, ldc, ep)
		return
	}
	rowW, colW, ok := gemmShouldFanout(m, n, k)
	if !ok {
		if p32 != nil {
			gemmBlockedPackedA32(m, 0, n, k, p32, b, ldb, c, ldc, ep, 0)
		} else {
			gemmBlockedPackedA(tier, m, 0, n, k, pm, b, ldb, c, ldc, ep, 0)
		}
		return
	}
	if rowW >= colW {
		// Row split: each worker reads its row range of the shared pack
		// (row lo of a k-panel sits at lo·kcb inside the panel).
		gemmFanoutRun(m, (m+rowW-1)/rowW, ep, func(lo, hi int, wep *Epilogue) {
			if p32 != nil {
				gemmBlockedPackedA32(hi-lo, lo, n, k, p32, b, ldb, c[lo*ldc:], ldc, wep, 0)
			} else {
				gemmBlockedPackedA(tier, hi-lo, lo, n, k, pm, b, ldb, c[lo*ldc:], ldc, wep, 0)
			}
		})
		return
	}
	// Column split: B and C are offset per worker; the A pack needs no
	// offset at all — every worker streams the same panels.
	gemmFanoutRun(n, (n+colW-1)/colW, ep, func(lo, hi int, wep *Epilogue) {
		if p32 != nil {
			gemmBlockedPackedA32(m, 0, hi-lo, k, p32, b[lo:], ldb, c[lo:], ldc, wep, lo)
		} else {
			gemmBlockedPackedA(tier, m, 0, hi-lo, k, pm, b[lo:], ldb, c[lo:], ldc, wep, lo)
		}
	})
}

// GemmTBPackedEx computes C[m×n] = epilogue(A · Bᵀ) with B pre-packed
// (PackTB of the [n×k]-stored operand) and a streamed A — assign mode, like
// GemmTBEx. This is the dense-layer orientation: the immutable [Out × In]
// weight is Bᵀ, the activations are A.
// Results are bit-identical to the unpacked blocked engine (the gemmParallel
// path GemmTBEx takes above its small-product threshold) on the same
// operands, at any GOMAXPROCS.
func GemmTBPackedEx(m, n, k int, a []float64, lda int, pb Packed, c []float64, ldc int, ep *Epilogue) {
	GemmTBPackedExT(TierExact, m, n, k, a, lda, pb, c, ldc, ep)
}

// GemmTBPackedExT is GemmTBPackedEx on an explicit engine tier; the pack's
// concrete type picks the data path exactly as in GemmPackedExT.
func GemmTBPackedExT(tier EngineTier, m, n, k int, a []float64, lda int, pb Packed, c []float64, ldc int, ep *Epilogue) {
	pm, _ := pb.(*PackedMat)
	p32, _ := pb.(*PackedMat32)
	if (pm == nil || pm.aLayout) && (p32 == nil || p32.aLayout) {
		panic("tensor: GemmTBPackedEx: B operand is not a B-layout pack (PackTB/PackTB32)")
	}
	pr, pc := pb.Dims()
	if pr != k || pc != n {
		panic(fmt.Sprintf("tensor: GemmTBPackedEx: packed B is %d×%d, product wants %d×%d", pr, pc, k, n))
	}
	checkMat("GemmTBPackedEx A", m, k, lda, len(a))
	checkMat("GemmTBPackedEx C", m, n, ldc, len(c))
	ep.check(m, n)
	if ep.empty() {
		ep = nil
	}
	if k == 0 {
		gemmAssignEmptyK(m, n, c, ldc, ep)
		return
	}
	rowW, colW, ok := gemmShouldFanout(m, n, k)
	if !ok {
		if p32 != nil {
			gemmBlockedPackedB32(m, n, 0, k, a, lda, p32, c, ldc, ep, 0)
		} else {
			gemmBlockedPackedB(tier, m, n, 0, k, a, lda, pm, c, ldc, ep, 0)
		}
		return
	}
	if rowW >= colW {
		gemmFanoutRun(m, (m+rowW-1)/rowW, ep, func(lo, hi int, wep *Epilogue) {
			if p32 != nil {
				gemmBlockedPackedB32(hi-lo, n, 0, k, a[lo*lda:], lda, p32, c[lo*ldc:], ldc, wep, lo)
			} else {
				gemmBlockedPackedB(tier, hi-lo, n, 0, k, a[lo*lda:], lda, pm, c[lo*ldc:], ldc, wep, lo)
			}
		})
		return
	}
	// Column split aligned to the pack's nc tiles, so every worker's jc
	// loop lands on tile starts of the shared pack.
	chunk := (n + colW - 1) / colW
	chunk = (chunk + ncBlock - 1) / ncBlock * ncBlock
	gemmFanoutRun(n, chunk, ep, func(lo, hi int, wep *Epilogue) {
		if p32 != nil {
			gemmBlockedPackedB32(m, hi-lo, lo, k, a, lda, p32, c[lo:], ldc, wep, 0)
		} else {
			gemmBlockedPackedB(tier, m, hi-lo, lo, k, a, lda, pm, c[lo:], ldc, wep, 0)
		}
	})
}

// gemmBlockedPackedA is the serial blocked engine over a packed A: C[rows×n]
// = A[rowLo:rowLo+rows, :]·B under the epilogue, with c pointing at the
// window's top-left element. A row split passes its row offset as rowLo; a
// column split passes rowLo = 0 with b and c already offset and colOff
// locating the window in the epilogue's column vectors. Each C tile is zeroed
// just before its first k-panel (assign mode). Loop structure and
// per-element accumulation order match gemmBlocked with a streamed
// non-transposed A exactly; only the A addressing differs (contiguous
// panels, ld = kcb).
func gemmBlockedPackedA(tier EngineTier, rows, rowLo, n, k int, pa *PackedMat, b []float64, ldb int, c []float64, ldc int, ep *Epilogue, colOff int) {
	m := pa.rows
	for pc := 0; pc < k; pc += kcBlock {
		kcb := min(kcBlock, k-pc)
		first := pc == 0
		last := pc+kcb == k
		ablk := pa.data[m*pc+rowLo*kcb:]
		for jc := 0; jc < n; jc += ncBlock {
			ncb := min(ncBlock, n-jc)
			if first {
				zeroTile(rows, ncb, c[jc:], ldc)
			}
			gemmPanelT(tier, rows, ncb, kcb, ablk, kcb, b[pc*ldb+jc:], ldb, c[jc:], ldc)
			if last && ep != nil {
				applyEpilogue(rows, ncb, c[jc:], ldc, ep, rowLo, colOff+jc)
			}
		}
	}
}

// castPool recycles the f32 B-tile scratch of the packed-A32 driver: one
// kcBlock×ncBlock tile per concurrent caller (a row-split fan-out casts the
// same tile once per worker, like the per-worker packTrans of the unpacked
// engine — redundant work traded for zero coordination).
var castPool = sync.Pool{
	New: func() any {
		buf := make([]float32, kcBlock*ncBlock)
		return &buf
	},
}

// castTile narrows a rows×cols f64 tile (row stride ld) into a contiguous
// f32 tile (row stride cols). One rounding per element — VCVTPD2PS and Go's
// float32(float64) conversion both round to nearest even, so vector and
// scalar paths see identical B values. The cast must be vectorized to pay
// for itself: a scalar loop here costs nearly as much as the half-width
// kernel loads save.
func castTile(dst []float32, rows, cols int, src []float64, ld int) {
	if useFMA {
		for i := 0; i < rows; i++ {
			cvtPD2PS(dst[i*cols:i*cols+cols], src[i*ld:i*ld+cols])
		}
		return
	}
	for i := 0; i < rows; i++ {
		d := dst[i*cols : i*cols+cols]
		for j, v := range src[i*ld : i*ld+cols] {
			d[j] = float32(v)
		}
	}
}

// gemmBlockedPackedA32 is gemmBlockedPackedA over an f32 A pack: identical
// loop structure, with each k-panel's scale folded into the widen-on-load
// kernels. The streamed f64 B operand is narrowed one kcb×ncb tile at a time
// into pooled f32 scratch — the cast is amortized over the rows/4 kernel
// sweeps that consume the tile, halves the bytes those sweeps stream, and
// makes the tile contiguous. The extra f32 rounding on B is ≤2⁻²⁴ relative,
// far inside the tier's quantization budget from the A pack itself.
func gemmBlockedPackedA32(rows, rowLo, n, k int, pa *PackedMat32, b []float64, ldb int, c []float64, ldc int, ep *Epilogue, colOff int) {
	m := pa.rows
	buf := castPool.Get().(*[]float32)
	defer castPool.Put(buf)
	b32 := *buf
	for pc := 0; pc < k; pc += kcBlock {
		kcb := min(kcBlock, k-pc)
		first := pc == 0
		last := pc+kcb == k
		ablk := pa.data[m*pc+rowLo*kcb:]
		s := pa.scales[pc/kcBlock]
		for jc := 0; jc < n; jc += ncBlock {
			ncb := min(ncBlock, n-jc)
			castTile(b32, kcb, ncb, b[pc*ldb+jc:], ldb)
			if first {
				zeroTile(rows, ncb, c[jc:], ldc)
			}
			gemmPanelF32A(rows, ncb, kcb, ablk, kcb, s, b32, ncb, c[jc:], ldc)
			if last && ep != nil {
				applyEpilogue(rows, ncb, c[jc:], ldc, ep, rowLo, colOff+jc)
			}
		}
	}
}

// gemmBlockedPackedB is the serial blocked engine over a packed B: C[m×cols]
// = A·B[:, colLo:colLo+cols] under the epilogue, with c pointing at the
// window's top-left element and rowOff locating it in the epilogue's row
// vectors. colLo must be a multiple of ncBlock (or 0) so the jc loop lands on
// the pack's tile starts; the serial caller passes 0 and the parallel caller
// aligns its split. Each C tile is zeroed just before its first k-panel.
func gemmBlockedPackedB(tier EngineTier, m, cols, colLo, k int, a []float64, lda int, pb *PackedMat, c []float64, ldc int, ep *Epilogue, rowOff int) {
	n := pb.cols
	for pc := 0; pc < k; pc += kcBlock {
		kcb := min(kcBlock, k-pc)
		first := pc == 0
		last := pc+kcb == k
		for jcl := 0; jcl < cols; jcl += ncBlock {
			jc := colLo + jcl
			ncb := min(ncBlock, cols-jcl)
			bp := pb.data[pc*n+kcb*jc:]
			if first {
				zeroTile(m, ncb, c[jcl:], ldc)
			}
			gemmPanelT(tier, m, ncb, kcb, a[pc:], lda, bp, ncb, c[jcl:], ldc)
			if last && ep != nil {
				applyEpilogue(m, ncb, c[jcl:], ldc, ep, rowOff, jc)
			}
		}
	}
}

// gemmBlockedPackedB32 is gemmBlockedPackedB over an f32 B pack: identical
// loop structure, with each kcb×ncb tile's scale folded into the
// widen-on-load kernels.
func gemmBlockedPackedB32(m, cols, colLo, k int, a []float64, lda int, pb *PackedMat32, c []float64, ldc int, ep *Epilogue, rowOff int) {
	n := pb.cols
	nJc := (n + ncBlock - 1) / ncBlock
	for pc := 0; pc < k; pc += kcBlock {
		kcb := min(kcBlock, k-pc)
		first := pc == 0
		last := pc+kcb == k
		for jcl := 0; jcl < cols; jcl += ncBlock {
			jc := colLo + jcl
			ncb := min(ncBlock, cols-jcl)
			bp := pb.data[pc*n+kcb*jc:]
			s := pb.scales[(pc/kcBlock)*nJc+jc/ncBlock]
			if first {
				zeroTile(m, ncb, c[jcl:], ldc)
			}
			gemmPanelF32B(m, ncb, kcb, a[pc:], lda, s, bp, ncb, c[jcl:], ldc)
			if last && ep != nil {
				applyEpilogue(m, ncb, c[jcl:], ldc, ep, rowOff, jc)
			}
		}
	}
}
