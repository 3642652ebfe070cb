package tensor

// Im2Col unrolls one image of shape [channels, h, w] (row-major in src) into
// a column matrix col of shape [(channels*kh*kw) × (outH*outW)], so that a
// convolution becomes a single GEMM with the kernel matrix
// [outChannels × (channels*kh*kw)].
//
// Slicing-aware layers pass only the active prefix of channels; src must hold
// at least channels*h*w values and col at least channels*kh*kw*outH*outW.
func Im2Col(src []float64, channels, h, w, kh, kw, stride, pad int, col []float64) (outH, outW int) {
	outH = (h+2*pad-kh)/stride + 1
	outW = (w+2*pad-kw)/stride + 1
	Im2ColInto(src, channels, h, w, kh, kw, stride, pad, col, outH*outW, 0)
	return outH, outW
}

// Im2ColInto unrolls one image into columns [colOff, colOff+outH·outW) of a
// wider column matrix whose row stride is ldcol. Packing a whole batch side
// by side (one sample per column band, ldcol = batch·outH·outW) turns the
// per-sample convolution GEMMs into a single wide product over
// [channels·kh·kw × batch·outH·outW] — wide enough for the blocked engine's
// panel reuse and goroutine fan-out to engage on shapes whose per-sample
// spatial extent is too small. Every element of the band is written
// (padding taps included), so the destination may be uninitialized.
func Im2ColInto(src []float64, channels, h, w, kh, kw, stride, pad int, col []float64, ldcol, colOff int) {
	outH := (h+2*pad-kh)/stride + 1
	outW := (w+2*pad-kw)/stride + 1
	if stride == 1 && outW == w {
		im2colBands(src, channels, h, w, kh, kw, pad, col, ldcol, colOff, outH)
		return
	}
	// For a fixed kernel tap kj, the in-range output columns are those with
	// 0 ≤ ox·stride − pad + kj < w; hoisting that interval out of the inner
	// loop replaces the per-element bounds test with two zero fills and one
	// contiguous copy (stride 1) or a branch-free gather (stride > 1).
	idx := 0
	for c := 0; c < channels; c++ {
		plane := src[c*h*w : (c+1)*h*w]
		for ki := 0; ki < kh; ki++ {
			for kj := 0; kj < kw; kj++ {
				// ox ∈ [lo, hi) reads inside the row; outside is padding.
				// Both bounds clamp to outW: a kernel tap whose reach
				// exceeds the padded row (kw > w+pad) is padding at every
				// output column.
				lo := 0
				if pad > kj {
					lo = min((pad-kj+stride-1)/stride, outW)
				}
				hi := 0
				if last := w - 1 + pad - kj; last >= 0 {
					hi = min(last/stride, outW-1) + 1
				}
				if hi < lo {
					hi = lo
				}
				for oy := 0; oy < outH; oy++ {
					iy := oy*stride - pad + ki
					rowBase := idx*ldcol + colOff + oy*outW
					dst := col[rowBase : rowBase+outW]
					if iy < 0 || iy >= h {
						for j := range dst {
							dst[j] = 0
						}
						continue
					}
					srcRow := plane[iy*w : (iy+1)*w]
					for ox := 0; ox < lo; ox++ {
						dst[ox] = 0
					}
					if hi <= lo {
						// No in-range columns for this tap (kernel reach
						// beyond the padded row): nothing to copy, and
						// lo-pad+kj may be negative.
					} else if stride == 1 {
						ix0 := lo - pad + kj
						copy(dst[lo:hi], srcRow[ix0:ix0+hi-lo])
					} else {
						for ox := lo; ox < hi; ox++ {
							dst[ox] = srcRow[ox*stride-pad+kj]
						}
					}
					for ox := hi; ox < outW; ox++ {
						dst[ox] = 0
					}
				}
				idx++
			}
		}
	}
}

// im2colBands is Im2ColInto for stride 1 and outW == w, the shape of every
// 3×3, pad-1 convolution. Output position p = oy·w + ox of tap (ki, kj)
// reads input position p + (ki−pad)·w + (kj−pad), so over the output rows
// whose input row is in range a tap's whole band is the input plane shifted
// by one constant: one contiguous copy writes it. The copy wraps across row
// ends at the columns whose input column is out of range; those edge
// columns and the out-of-range rows are then zeroed, so every element of
// the band is written.
func im2colBands(src []float64, channels, h, w, kh, kw, pad int, col []float64, ldcol, colOff, outH int) {
	spatial := outH * w
	idx := 0
	for c := 0; c < channels; c++ {
		plane := src[c*h*w : (c+1)*h*w]
		for ki := 0; ki < kh; ki++ {
			// Output rows [oy0, oy1) read input rows in [0, h).
			oy0 := min(max(pad-ki, 0), outH)
			oy1 := max(min(h+pad-ki, outH), oy0)
			for kj := 0; kj < kw; kj++ {
				band := col[idx*ldcol+colOff : idx*ldcol+colOff+spatial]
				idx++
				// Output columns [lo, hi) read input columns in [0, w).
				lo := min(max(pad-kj, 0), w)
				hi := max(min(w+pad-kj, w), lo)
				clear(band[:oy0*w])
				clear(band[oy1*w:])
				if oy0 == oy1 || lo == hi {
					clear(band[oy0*w : oy1*w])
					continue
				}
				// Positions whose shifted source falls outside the plane are
				// edge columns of the first or last row; the edge clears
				// below cover them.
				shift := (ki-pad)*w + (kj - pad)
				p0 := max(oy0*w, -shift)
				p1 := min(oy1*w, h*w-shift)
				copy(band[p0:p1], plane[p0+shift:p1+shift])
				// Edge runs are a few elements: plain stores beat clear's
				// call into memclr.
				for r := oy0 * w; r < oy1*w; r += w {
					for j := r; j < r+lo; j++ {
						band[j] = 0
					}
					for j := r + hi; j < r+w; j++ {
						band[j] = 0
					}
				}
			}
		}
	}
}

// Col2Im is the adjoint of Im2Col: it scatter-adds the column matrix back
// into an image gradient of shape [channels, h, w]. dst is accumulated into,
// not overwritten.
func Col2Im(col []float64, channels, h, w, kh, kw, stride, pad int, dst []float64) {
	outH := (h+2*pad-kh)/stride + 1
	outW := (w+2*pad-kw)/stride + 1
	spatial := outH * outW
	idx := 0
	for c := 0; c < channels; c++ {
		plane := dst[c*h*w : (c+1)*h*w]
		for ki := 0; ki < kh; ki++ {
			for kj := 0; kj < kw; kj++ {
				for oy := 0; oy < outH; oy++ {
					iy := oy*stride - pad + ki
					if iy < 0 || iy >= h {
						continue
					}
					rowBase := idx*spatial + oy*outW
					dstRow := plane[iy*w : (iy+1)*w]
					for ox := 0; ox < outW; ox++ {
						ix := ox*stride - pad + kj
						if ix < 0 || ix >= w {
							continue
						}
						dstRow[ix] += col[rowBase+ox]
					}
				}
				idx++
			}
		}
	}
}

// ConvOutSize returns the spatial output size of a convolution/pooling with
// the given input size, kernel, stride and padding.
func ConvOutSize(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}
