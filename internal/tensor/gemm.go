package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Every matrix product in the repository goes through one entry point,
// Gemm, which takes a small descriptor (GemmOp): the engine tier, whether A
// and/or B are stored transposed, whether C is overwritten (assign mode,
// β=0) or accumulated into, a fused epilogue, and an optional persistent
// pack for one operand. Operands are raw row-major slices, so layers can
// address sliced (prefix) sub-matrices of larger weight buffers without
// copying: ld* are leading dimensions (row strides) of the underlying
// buffers, which may exceed the logical number of columns when a prefix
// slice of a wider matrix is being used.
//
// Behind the prologue sit one fan-out split (gemmParallel) and one
// cache-blocked driver (gemmBlocked) built around a 2×4 axpy micro-kernel:
// four rows of B are fused into each pass over a pair of C rows, so every
// loaded value feeds multiple multiply-adds and no accumulator dependency
// chain forms — the pattern Go's scalar codegen schedules best (a
// register-tiled dot-product micro-kernel loses here because its sixteen
// live accumulators spill). On AVX hosts the quad-axpy inner loop dispatches
// to a vector kernel that evaluates the same expression tree per lane,
// bit-identically (kernel.go). B panels are blocked to stay L2-resident
// across the row sweep. The driver fetches each A block and B tile from one
// of four sources: the caller's slice streamed in place, a transposed slice
// packed into a pooled scratch panel, a persistent PackedMat, or a
// PackedMat32 with its per-panel scale (pack.go). Assign mode zeroes each C
// tile just before its first k-panel and runs the same accumulate kernels;
// the row or column range fans out across goroutines once the problem is
// big enough to amortize the spawns.

// Blocking parameters.
const (
	// kcBlock × ncBlock bounds the B panel kept hot across the row sweep
	// (256·256·8 B = 512 KiB, inside a server-class L2); mcBlock bounds the
	// packed Aᵀ block of a TransA product to the same pool buffer size.
	kcBlock = 256
	ncBlock = 256
	mcBlock = 256

	// smallGemmFlops gates the blocked driver for unpacked transposed
	// products: below this m·n·k the transpose-copy overhead dominates and
	// the simple strided loops win.
	smallGemmFlops = 48 * 48 * 48
	// parallelGemmFlops gates goroutine fan-out of the row range.
	parallelGemmFlops = 96 * 96 * 96
	// minRowsPerWorker keeps fan-out from shredding tiny row counts.
	minRowsPerWorker = 8
	// minColsPerWorker keeps the column fan-out (used when the row count is
	// too small to split, e.g. a conv product with few output channels and a
	// whole batch of im2col columns) from shredding tiny column counts.
	minColsPerWorker = 64
)

// Epilogue describes a fused transform applied to every element of C while
// its panel is still cache-hot, immediately after the final k-panel of an
// assign-mode (β=0) GEMM. Each element goes through, in order:
//
//	v = Alpha · acc                      (Alpha 0 is treated as 1)
//	v = RowScale[i] · v                  (when RowScale is non-nil)
//	v = v + RowShift[i]                  (when RowShift is non-nil)
//	v = v · ColScale[j]                  (when ColScale is non-nil)
//	v = v + ColShift[j]                  (when ColShift is non-nil)
//	v = max(v, 0)                        (when ReLU is set; NaN clamps to 0,
//	                                      matching a standalone v > 0 ReLU)
//
// Row vectors index the C row (a convolution's output channel: folded
// BatchNorm scale/shift, conv bias); column vectors index the C column (a
// dense layer's output unit: bias); Alpha is a uniform multiplier (output
// rescaling). Fusing these into the GEMM turns a Conv→BN→ReLU or
// Dense→ReLU chain into a single pass over the output instead of one extra
// full memory sweep per post-op.
//
// Epilogues need GemmOp.Assign: applying an affine or clamp step to an
// accumulating C would also transform whatever the caller had accumulated
// so far.
type Epilogue struct {
	Alpha              float64
	RowScale, RowShift []float64
	ColScale, ColShift []float64
	ReLU               bool
}

// empty reports whether the epilogue would leave C untouched.
func (ep *Epilogue) empty() bool {
	return ep == nil || (ep.Alpha == 0 || ep.Alpha == 1) && ep.RowScale == nil && ep.RowShift == nil &&
		ep.ColScale == nil && ep.ColShift == nil && !ep.ReLU
}

// check validates the epilogue vector lengths against the product shape.
func (ep *Epilogue) check(m, n int) {
	if ep == nil {
		return
	}
	if ep.RowScale != nil {
		checkVec("Epilogue RowScale", m, len(ep.RowScale))
	}
	if ep.RowShift != nil {
		checkVec("Epilogue RowShift", m, len(ep.RowShift))
	}
	if ep.ColScale != nil {
		checkVec("Epilogue ColScale", n, len(ep.ColScale))
	}
	if ep.ColShift != nil {
		checkVec("Epilogue ColShift", n, len(ep.ColShift))
	}
}

// GemmOp describes one product for Gemm. The zero value is the plain
// exact-tier C += A·B.
type GemmOp struct {
	// Tier selects the kernel family (tier.go). Tier selection is per call —
	// no global state — so exact and fast products can interleave freely.
	Tier EngineTier
	// TransA says A is stored [k×m] and read as Aᵀ; TransB says B is stored
	// [n×k] and read as Bᵀ (a dense layer's [Out × In] weight).
	TransA, TransB bool
	// Assign overwrites C (β=0) instead of accumulating into it, so callers
	// may pass uninitialized storage (Arena.GetUninit). Each C tile is
	// zeroed just before its first k-panel, so the result is bit-identical
	// to accumulating into a +0 C.
	Assign bool
	// Ep is applied to each C tile after its final k-panel; it needs Assign.
	// Nil or empty epilogues cost nothing.
	Ep *Epilogue
	// PackA replaces A with a persistent A-layout pack (PackA, PackA32) of
	// the straight operand, so TransA must be false; PackB replaces B with a
	// B-layout pack (PackTB, PackTB32) of the transposed operand, so TransB
	// must be true. The replaced slice argument is ignored. At most one
	// operand may be packed. A *PackedMat runs the tier's f64 kernels
	// (TierF32 falls back to fma semantics, there is no f32 data to widen);
	// a *PackedMat32 runs the f32 widen-on-load kernels whatever the tier,
	// since its weights are already quantized.
	PackA, PackB Packed
}

// Gemm computes C[m×n] = op(A)·op(B) into C (Assign) or onto it, as op
// describes. A is [m×k] (or [k×m] with TransA), B is [k×n] (or [n×k] with
// TransB). Unpacked transposed products below the small-product threshold
// run on simple strided loops that are exact on every tier: there is no
// bandwidth or FLOP win to buy accuracy with at those sizes. Everything else
// runs on the blocked driver, whose packed and unpacked sources produce the
// same bits at any GOMAXPROCS: the packs preserve the driver's per-element
// accumulation order, and a parallel split shares one pack across workers.
func Gemm(op GemmOp, m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	if op.Ep != nil && !op.Assign {
		panic("tensor: Gemm: an epilogue needs Assign")
	}
	if op.PackA != nil && op.PackB != nil {
		panic("tensor: Gemm: at most one operand may be packed")
	}
	ao := gemmOperandOf(true, op.TransA, m, k, a, lda, op.PackA)
	bo := gemmOperandOf(false, op.TransB, k, n, b, ldb, op.PackB)
	checkMat("Gemm C", m, n, ldc, len(c))
	ep := op.Ep
	ep.check(m, n)
	if ep.empty() {
		ep = nil
	}
	if op.Assign && k == 0 {
		gemmAssignEmptyK(m, n, c, ldc, ep)
		return
	}
	if op.PackA == nil && op.PackB == nil && op.TransA != op.TransB && m*n*k < smallGemmFlops {
		if op.Assign {
			zeroTile(m, n, c, ldc)
		}
		if op.TransA {
			gemmTASimple(m, n, k, a, lda, b, ldb, c, ldc)
		} else {
			gemmTBSimple(m, n, k, a, lda, b, ldb, c, ldc)
		}
		if ep != nil {
			applyEpilogue(m, n, c, ldc, ep, 0, 0)
		}
		return
	}
	gemmParallel(op.Tier, m, n, k, ao, bo, c, ldc, op.Assign, ep)
}

// Operand sources of the blocked driver.
const (
	srcSlice  = iota // caller slice, streamed in place
	srcTrans         // caller slice stored transposed, packed per tile into pooled scratch
	srcPack          // PackedMat panels
	srcPack32        // PackedMat32 panels with one scale per panel
)

// gemmOperand is one input of the blocked driver as Gemm's prologue
// resolved it. It holds the slices themselves rather than the pack pointer:
// fan-out workers capture operands, and a pointer taken from the descriptor
// would drag the caller's epilogue to the heap with it (escape analysis does
// not tell a struct's fields apart).
type gemmOperand struct {
	src    int
	s      []float64 // the caller's slice, or the PackedMat panels
	ld     int       // row stride of a caller slice
	s32    []float32 // the PackedMat32 panels
	scales []float64 // the PackedMat32 panel scales
}

// gemmOperandOf validates one operand of a rows×cols logical matrix (A is
// m×k, B is k×n) and resolves its source: the pack when one is given, its
// layout and dims checked against the product, else the slice, stored
// rows×cols or, transposed, cols×rows.
func gemmOperandOf(aSide, trans bool, rows, cols int, s []float64, ld int, p Packed) gemmOperand {
	if p == nil {
		name := "Gemm B"
		if aSide {
			name = "Gemm A"
		}
		if trans {
			checkMat(name, cols, rows, ld, len(s))
			return gemmOperand{src: srcTrans, s: s, ld: ld}
		}
		checkMat(name, rows, cols, ld, len(s))
		return gemmOperand{src: srcSlice, s: s, ld: ld}
	}
	// A type switch rather than Packed's methods: an interface call would
	// leak the descriptor, and the caller's epilogue with it, to the heap.
	var o gemmOperand
	var aLayout bool
	var pr, pc int
	switch q := p.(type) {
	case *PackedMat:
		if q != nil {
			o, aLayout, pr, pc = gemmOperand{src: srcPack, s: q.data}, q.aLayout, q.rows, q.cols
		}
	case *PackedMat32:
		if q != nil {
			o, aLayout, pr, pc = gemmOperand{src: srcPack32, s32: q.data, scales: q.scales}, q.aLayout, q.rows, q.cols
		}
	}
	if o.src == srcSlice || aLayout != aSide {
		if aSide {
			panic("tensor: Gemm: A operand is not an A-layout pack (PackA/PackA32)")
		}
		panic("tensor: Gemm: B operand is not a B-layout pack (PackTB/PackTB32)")
	}
	if pr != rows || pc != cols {
		side := "B"
		if aSide {
			side = "A"
		}
		panic(fmt.Sprintf("tensor: Gemm: packed %s is %d×%d, product wants %d×%d", side, pr, pc, rows, cols))
	}
	if trans == aSide {
		if aSide {
			panic("tensor: Gemm: PackA holds a straight A, so TransA must be false")
		}
		panic("tensor: Gemm: PackB holds a transposed B (PackTB), so TransB must be true")
	}
	return o
}

// gemmShouldFanout is the fan-out policy of gemmParallel and
// GemmWillParallelize: it returns how many workers the row and column splits
// each admit under the current GOMAXPROCS, and admits a split only when some
// dimension yields more than one worker and the arithmetic amortizes the
// spawns.
func gemmShouldFanout(m, n, k int) (rowW, colW int, ok bool) {
	workers := runtime.GOMAXPROCS(0)
	rowW, colW = min(workers, m/minRowsPerWorker), min(workers, n/minColsPerWorker)
	return rowW, colW, (rowW > 1 || colW > 1) && m*n*k >= parallelGemmFlops
}

// GemmWillParallelize reports whether a product of the given shape clears
// the fan-out thresholds under the current GOMAXPROCS — i.e. whether the
// engine would split it across goroutines (by rows or columns). Callers with
// a choice of lowering (a convolution can run one wide whole-batch GEMM or a
// cache-hotter per-sample sequence) use this to pick: the wide layout only
// pays for its extra memory traffic when the fan-out actually engages.
func GemmWillParallelize(m, n, k int) bool {
	_, _, ok := gemmShouldFanout(m, n, k)
	return ok
}

// gemmFanoutCount / gemmFanoutWorkers count the products the engine split
// across goroutines and the worker goroutines spawned for them — exported
// through GemmStats so the serving layer can report how often the elastic
// widths actually engage the fan-out path.
var (
	gemmFanoutCount   atomic.Int64
	gemmFanoutWorkers atomic.Int64
)

// GemmCounters is a snapshot of the engine's global fan-out and kernel
// dispatch counters.
type GemmCounters struct {
	// Fanouts counts GEMM calls that split across goroutines.
	Fanouts int64
	// FanoutWorkers counts the worker goroutines those calls spawned.
	FanoutWorkers int64
	// Kernels counts micro-panel kernel dispatches per tier (indexed by
	// EngineTier), split by whether the vector kernel or the scalar
	// fallback ran — the serving layer surfaces these as
	// msserver_gemm_kernel_total{tier,kernel}.
	Kernels [NumTiers]KernelCounters
}

// GemmStats returns the process-wide GEMM fan-out and dispatch counters.
func GemmStats() GemmCounters {
	gc := GemmCounters{
		Fanouts:       gemmFanoutCount.Load(),
		FanoutWorkers: gemmFanoutWorkers.Load(),
	}
	for t := 0; t < NumTiers; t++ {
		gc.Kernels[t] = KernelCounters{
			Vector: kernelVectorCount[t].Load(),
			Scalar: kernelScalarCount[t].Load(),
		}
	}
	return gc
}

// gemmParallel runs the blocked driver over the whole product, or fans it
// out across goroutines when the problem is large enough. Each worker owns
// a disjoint C window and packs its own transposed panels, so no
// synchronization beyond the final wait is needed; a persistent pack is
// shared by every worker instead of re-packed.
//
// The split dimension is whichever of rows and columns admits more workers:
// a dense product (large m) splits rows, while a whole-batch conv lowering
// (m = output channels, often < 2·minRowsPerWorker, with n = batch ×
// spatial columns) splits columns. A column split over a packed B is
// aligned to the pack's nc tiles, so every worker's jc loop lands on tile
// starts.
//
// The epilogue reaches the workers by value: a go-closure over the caller's
// pointer would force every caller's stack epilogue to the heap even on the
// serial path, so each worker receives its own copy.
func gemmParallel(tier EngineTier, m, n, k int, a, b gemmOperand, c []float64, ldc int, assign bool, ep *Epilogue) {
	rowW, colW, ok := gemmShouldFanout(m, n, k)
	if !ok {
		gemmBlocked(tier, m, n, k, a, b, c, ldc, assign, ep, 0, m, 0, n)
		return
	}
	byCols := colW > rowW
	total, split := m, rowW
	if byCols {
		total, split = n, colW
	}
	chunk := (total + split - 1) / split
	if byCols && (b.src == srcPack || b.src == srcPack32) {
		chunk = (chunk + ncBlock - 1) / ncBlock * ncBlock
	}
	var epv Epilogue
	hasEp := ep != nil
	if hasEp {
		epv = *ep
	}
	var wg sync.WaitGroup
	workers := 0
	for lo := 0; lo < total; lo += chunk {
		hi := min(lo+chunk, total)
		workers++
		wg.Add(1)
		go func(lo, hi int, epv Epilogue) {
			defer wg.Done()
			var wep *Epilogue
			if hasEp {
				wep = &epv
			}
			if byCols {
				gemmBlocked(tier, m, n, k, a, b, c, ldc, assign, wep, 0, m, lo, hi)
			} else {
				gemmBlocked(tier, m, n, k, a, b, c, ldc, assign, wep, lo, hi, 0, n)
			}
		}(lo, hi, epv)
	}
	gemmFanoutCount.Add(1)
	gemmFanoutWorkers.Add(int64(workers))
	wg.Wait()
}

// packPool recycles transpose-packing panels (kcBlock×ncBlock floats) so
// steady-state GEMM calls allocate nothing.
var packPool = sync.Pool{
	New: func() any {
		buf := make([]float64, kcBlock*ncBlock)
		return &buf
	},
}

// gemmBlocked runs the rows [r0, r1) × columns [c0, c1) window of the m×n
// product C (+)= A·B one (kc × nc) B tile at a time, in pc → ic → jc order:
// the tile stays L2-resident while the window's rows sweep across it, and C
// is revisited only k/kc times. The ic loop subdivides the rows only when a
// transposed A block must fit the pool buffer; otherwise it runs once.
//
// Each A block and B tile comes from its operand's source (see gemmOperand)
// and feeds the tier's f64 kernel, or an f32 widen-on-load kernel when a
// PackedMat32 supplies it. A streamed B tile meeting an f32 A pack is first
// narrowed into pooled f32 scratch: the cast is amortized over the rows/4
// kernel sweeps that consume the tile, halves the bytes those sweeps
// stream, and costs ≤2⁻²⁴ relative, far inside the tier's quantization
// budget from the A pack itself.
//
// With assign set (β=0), each C tile is zeroed just before its first
// k-panel accumulates into it. A non-nil epilogue is applied to each C tile
// right after its final k-panel, while the tile is still cache-hot, at the
// tile's offsets in the full product. Per-element accumulation order does
// not depend on the source or the window, so every source and every split
// gives the same bits.
func gemmBlocked(tier EngineTier, m, n, k int, a, b gemmOperand, c []float64, ldc int, assign bool, ep *Epilogue, r0, r1, c0, c1 int) {
	var aPack, bPack []float64
	var bCast []float32
	if a.src == srcTrans {
		buf := packPool.Get().(*[]float64)
		defer packPool.Put(buf)
		aPack = *buf
	}
	if b.src == srcTrans {
		buf := packPool.Get().(*[]float64)
		defer packPool.Put(buf)
		bPack = *buf
	}
	if a.src == srcPack32 {
		buf := castPool.Get().(*[]float32)
		defer castPool.Put(buf)
		bCast = *buf
	}
	icStep := r1 - r0
	if a.src == srcTrans {
		icStep = mcBlock
	}
	nJc := (n + ncBlock - 1) / ncBlock
	for pc := 0; pc < k; pc += kcBlock {
		kcb := min(kcBlock, k-pc)
		first := pc == 0
		last := pc+kcb == k
		for i0 := r0; i0 < r1; i0 += icStep {
			mcb := min(icStep, r1-i0)
			// The A block: rows [i0, i0+mcb) of k-panel pc, row stride lda.
			var ablk []float64
			var a32 []float32
			lda, sa := kcb, 0.0
			switch a.src {
			case srcSlice:
				ablk, lda = a.s[i0*a.ld+pc:], a.ld
			case srcTrans:
				// ablk[i×kcb] = A[pc:pc+kcb, i0:i0+mcb]ᵀ.
				packTrans(aPack, mcb, kcb, a.s, a.ld, pc, i0)
				ablk = aPack
			case srcPack:
				ablk = a.s[m*pc+i0*kcb:]
			case srcPack32:
				a32, sa = a.s32[m*pc+i0*kcb:], a.scales[pc/kcBlock]
			}
			for j0 := c0; j0 < c1; j0 += ncBlock {
				ncb := min(ncBlock, c1-j0)
				// The B tile: k-panel pc of columns [j0, j0+ncb), row stride ldb.
				var bt []float64
				var b32 []float32
				ldb, sb := ncb, 0.0
				switch b.src {
				case srcSlice:
					bt, ldb = b.s[pc*b.ld+j0:], b.ld
				case srcTrans:
					// bt[p×ncb] = B[j0:j0+ncb, pc:pc+kcb]ᵀ.
					packTrans(bPack, kcb, ncb, b.s, b.ld, j0, pc)
					bt = bPack
				case srcPack:
					bt = b.s[pc*n+kcb*j0:]
				case srcPack32:
					b32, sb = b.s32[pc*n+kcb*j0:], b.scales[(pc/kcBlock)*nJc+j0/ncBlock]
				}
				ct := c[i0*ldc+j0:]
				if assign && first {
					zeroTile(mcb, ncb, ct, ldc)
				}
				switch {
				case a.src == srcPack32:
					castTile(bCast, kcb, ncb, bt, ldb)
					gemmPanelF32A(mcb, ncb, kcb, a32, kcb, sa, bCast, ncb, ct, ldc)
				case b.src == srcPack32:
					gemmPanelF32B(mcb, ncb, kcb, ablk, lda, sb, b32, ncb, ct, ldc)
				default:
					gemmPanelT(tier, mcb, ncb, kcb, ablk, lda, bt, ldb, ct, ldc)
				}
				if last && ep != nil {
					applyEpilogue(mcb, ncb, ct, ldc, ep, i0, j0)
				}
			}
		}
	}
}

// --- simple strided paths for small transposed products ---

func gemmTASimple(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	for p := 0; p < k; p++ {
		ap := a[p*lda : p*lda+m]
		bp := b[p*ldb : p*ldb+n]
		for i, av := range ap {
			if av == 0 {
				// Gradients arriving through ReLU/dropout masks are often
				// exactly zero; skipping whole axpy rows is a real win on
				// this backward-path kernel (unlike the forward Gemm, where
				// the same branch was pure inner-loop cost and is gone).
				continue
			}
			ci := c[i*ldc : i*ldc+n]
			for j, bv := range bp {
				ci[j] += av * bv
			}
		}
	}
}

func gemmTBSimple(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	for i := 0; i < m; i++ {
		ai := a[i*lda : i*lda+k]
		ci := c[i*ldc : i*ldc+n]
		for j := 0; j < n; j++ {
			bj := b[j*ldb : j*ldb+k]
			// Four partial sums break the serial dependence on a single
			// accumulator.
			var s0, s1, s2, s3 float64
			p := 0
			for ; p+3 < k; p += 4 {
				s0 += ai[p] * bj[p]
				s1 += ai[p+1] * bj[p+1]
				s2 += ai[p+2] * bj[p+2]
				s3 += ai[p+3] * bj[p+3]
			}
			for ; p < k; p++ {
				s0 += ai[p] * bj[p]
			}
			ci[j] += s0 + s1 + s2 + s3
		}
	}
}

// gemmPanelT routes one micro-panel to the requested tier's kernel family:
// the exact tier's AVX/scalar pair (gemmPanel) or the fast tiers' fused
// FMA/math.FMA pair (gemmPanelFMA — TierF32 lands here too when its operands
// are plain f64, i.e. any unpacked product, where f32 adds nothing over fma).
// It also counts the vector-vs-scalar decision per tier; both kernel
// families share the vecMinCols narrow-panel threshold, so the counters
// mirror the dispatch exactly.
func gemmPanelT(tier EngineTier, rows, ncb, kcb int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	if tier == TierExact {
		if useAVX && ncb >= vecMinCols {
			kernelVectorCount[TierExact].Add(1)
		} else {
			kernelScalarCount[TierExact].Add(1)
		}
		gemmPanel(rows, ncb, kcb, a, lda, b, ldb, c, ldc)
		return
	}
	if useFMA && ncb >= vecMinCols {
		kernelVectorCount[tier].Add(1)
	} else {
		kernelScalarCount[tier].Add(1)
	}
	gemmPanelFMA(rows, ncb, kcb, a, lda, b, ldb, c, ldc)
}

// gemmPanel is the 2×4 axpy micro-kernel: C[rows×ncb] += A[rows×kcb] ·
// B[kcb×ncb], walking two C rows per pass over four B rows, so each loaded
// B value feeds four independent multiply-adds (sixteen flops per four B
// loads) and the B panel is streamed only ⌈rows/2⌉ times. Per-element
// accumulation order is the same as a one-row sweep — k-quads ascending —
// so results are bit-identical to the rank-4 kernel this replaces.
func gemmPanel(rows, ncb, kcb int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	if useAVX && ncb >= vecMinCols {
		gemmPanelAVX(rows, ncb, kcb, a, lda, b, ldb, c, ldc)
		return
	}
	i := 0
	for ; i+2 <= rows; i += 2 {
		ai0 := a[i*lda : i*lda+kcb]
		ai1 := a[(i+1)*lda : (i+1)*lda+kcb]
		ci0 := c[i*ldc : i*ldc+ncb]
		ci1 := c[(i+1)*ldc : (i+1)*ldc+ncb]
		p := 0
		for ; p+4 <= kcb; p += 4 {
			a00, a01, a02, a03 := ai0[p], ai0[p+1], ai0[p+2], ai0[p+3]
			a10, a11, a12, a13 := ai1[p], ai1[p+1], ai1[p+2], ai1[p+3]
			b0 := b[p*ldb : p*ldb+ncb]
			b1 := b[(p+1)*ldb : (p+1)*ldb+ncb]
			b2 := b[(p+2)*ldb : (p+2)*ldb+ncb]
			b3 := b[(p+3)*ldb : (p+3)*ldb+ncb]
			for j, bv := range b0 {
				b1v, b2v, b3v := b1[j], b2[j], b3[j]
				ci0[j] += a00*bv + a01*b1v + a02*b2v + a03*b3v
				ci1[j] += a10*bv + a11*b1v + a12*b2v + a13*b3v
			}
		}
		for ; p < kcb; p++ {
			a0v, a1v := ai0[p], ai1[p]
			bp := b[p*ldb : p*ldb+ncb]
			for j, bv := range bp {
				ci0[j] += a0v * bv
				ci1[j] += a1v * bv
			}
		}
	}
	if i < rows {
		gemmPanelRow(ncb, kcb, a[i*lda:i*lda+kcb], b, ldb, c[i*ldc:i*ldc+ncb])
	}
}

// gemmPanelRow is the single-row tail of gemmPanel (the original rank-4
// sweep over one C row).
func gemmPanelRow(ncb, kcb int, ai []float64, b []float64, ldb int, ci []float64) {
	p := 0
	for ; p+4 <= kcb; p += 4 {
		a0, a1, a2, a3 := ai[p], ai[p+1], ai[p+2], ai[p+3]
		b0 := b[p*ldb : p*ldb+ncb]
		b1 := b[(p+1)*ldb : (p+1)*ldb+ncb]
		b2 := b[(p+2)*ldb : (p+2)*ldb+ncb]
		b3 := b[(p+3)*ldb : (p+3)*ldb+ncb]
		for j, bv := range b0 {
			ci[j] += a0*bv + a1*b1[j] + a2*b2[j] + a3*b3[j]
		}
	}
	for ; p < kcb; p++ {
		av := ai[p]
		bp := b[p*ldb : p*ldb+ncb]
		for j, bv := range bp {
			ci[j] += av * bv
		}
	}
}

// zeroTile clears a rows×cols C window (row stride ldc): the β=0 step of
// every assign-mode driver, run on each tile just before its first k-panel so
// the one accumulate kernel per tier serves both modes.
func zeroTile(rows, cols int, c []float64, ldc int) {
	for i := 0; i < rows; i++ {
		clear(c[i*ldc : i*ldc+cols])
	}
}

// gemmAssignEmptyK fulfils the assign-mode contract for k = 0: the empty sum
// overwrites the product region with zeros, then the epilogue runs.
func gemmAssignEmptyK(m, n int, c []float64, ldc int, ep *Epilogue) {
	zeroTile(m, n, c, ldc)
	if ep != nil {
		applyEpilogue(m, n, c, ldc, ep, 0, 0)
	}
}

// applyEpilogue runs the fused post-GEMM transform over a rows×cols C tile
// whose top-left element sits at (rowOff, colOff) of the full product. The
// row affine is folded into one (scale, shift) pair per row; the common
// row-only cases get dedicated inner loops so conv epilogues never test
// per-element flags.
func applyEpilogue(rows, cols int, c []float64, ldc int, ep *Epilogue, rowOff, colOff int) {
	alpha := ep.Alpha
	if alpha == 0 {
		alpha = 1
	}
	var colScale, colShift []float64
	if ep.ColScale != nil {
		colScale = ep.ColScale[colOff : colOff+cols]
	}
	if ep.ColShift != nil {
		colShift = ep.ColShift[colOff : colOff+cols]
	}
	for i := 0; i < rows; i++ {
		scale, shift := alpha, 0.0
		if ep.RowScale != nil {
			scale *= ep.RowScale[rowOff+i]
		}
		if ep.RowShift != nil {
			shift = ep.RowShift[rowOff+i]
		}
		ci := c[i*ldc : i*ldc+cols]
		switch {
		case colScale == nil && colShift == nil && ep.ReLU:
			for j, v := range ci {
				v = scale*v + shift
				// !(v > 0) rather than v < 0 so NaN clamps to 0 exactly
				// like the standalone ReLU layer's v > 0 test.
				if !(v > 0) {
					v = 0
				}
				ci[j] = v
			}
		case colScale == nil && colShift == nil:
			if scale == 1 && shift == 0 {
				continue
			}
			for j, v := range ci {
				ci[j] = scale*v + shift
			}
		default:
			for j, v := range ci {
				v = scale*v + shift
				if colScale != nil {
					v *= colScale[j]
				}
				if colShift != nil {
					v += colShift[j]
				}
				if ep.ReLU && !(v > 0) {
					v = 0
				}
				ci[j] = v
			}
		}
	}
}

// packTrans writes dst[rows×cols] = src[r0:r0+cols, c0:c0+rows]ᵀ for a
// row-major src with stride ld, i.e. dst[i·cols+j] = src[(r0+j)·ld + c0+i].
// Reads run along src rows (contiguous); writes stride by cols, which the
// blocked caller keeps cache-sized.
func packTrans(dst []float64, rows, cols int, src []float64, ld, r0, c0 int) {
	for j := 0; j < cols; j++ {
		s := src[(r0+j)*ld+c0 : (r0+j)*ld+c0+rows]
		for i, v := range s {
			dst[i*cols+j] = v
		}
	}
}

// checkMat validates that a rows×cols matrix with leading dimension ld fits
// inside a buffer of the given length.
func checkMat(name string, rows, cols, ld, length int) {
	if ld < cols {
		panic(fmt.Sprintf("tensor: %s leading dimension %d < cols %d", name, ld, cols))
	}
	if rows > 0 && (rows-1)*ld+cols > length {
		panic(fmt.Sprintf("tensor: %s buffer too short: need %d, have %d", name, (rows-1)*ld+cols, length))
	}
}

// checkVec validates that a vector operand holds at least n elements,
// reporting failures in the same style as checkMat.
func checkVec(name string, n, length int) {
	if n > length {
		panic(fmt.Sprintf("tensor: %s buffer too short: need %d, have %d", name, n, length))
	}
}
