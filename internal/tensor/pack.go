package tensor

import (
	"math"
	"sync"
)

// Persistent pre-packed operand panels. The blocked driver (gemm.go) packs
// transposed operands into cache-sized scratch panels on every call, and the
// straight operands it streams still pay strided reads when the caller hands
// in a prefix slice of a wider weight buffer. At inference time the weight
// operand of every GEMM is immutable, so that packing is pure waste after the
// first query: a PackedMat performs it exactly once, laying the operand out in
// the micro-panel order the blocked loops consume, and a Gemm call whose
// GemmOp sets PackA or PackB streams those panels directly.
//
// The panel geometry matches the driver's blocking (kcBlock × ncBlock), so a
// packed product visits memory in the same order as an unpacked one and the
// per-element accumulation order is unchanged — packed results are
// bit-identical to the unpacked blocked driver. (A wider 4×4 / 2×8 scalar
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
// tier). Gemm type-switches on the concrete type; the interface exists so
// GemmOp and the pack caches can hold either variant uniformly.
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
// panels for GemmOp.PackA.
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
// ldb, consumed as Bᵀ[k×n] (the TransB orientation: a dense layer's
// [Out × In] weight) — into B-layout tiles for GemmOp.PackB.
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
// shape runs on the blocked driver, where the persistent packed path is
// faster and bit-identical to the unpacked one. Below the small-product
// threshold an unpacked TransB product uses the strided dot-product loop
// instead — there the pack would change the accumulation order and save
// nothing, so callers skip packing for those widths.
func GemmTBPrefersPacked(m, n, k int) bool { return m*n*k >= smallGemmFlops }

// castPool recycles the f32 B-tile scratch the blocked driver narrows a
// streamed B into when A is a PackedMat32: one kcBlock×ncBlock tile per
// concurrent caller (a row-split fan-out casts the same tile once per
// worker, like the per-worker packTrans of a transposed operand — redundant
// work traded for zero coordination).
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
