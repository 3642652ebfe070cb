package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// refConv2D is a direct (nested loop) convolution used as the reference for
// the im2col+GEMM path.
func refConv2D(src []float64, c, h, w int, kernel []float64, outC, kh, kw, stride, pad int) ([]float64, int, int) {
	outH := ConvOutSize(h, kh, stride, pad)
	outW := ConvOutSize(w, kw, stride, pad)
	dst := make([]float64, outC*outH*outW)
	for oc := 0; oc < outC; oc++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				s := 0.0
				for ic := 0; ic < c; ic++ {
					for ki := 0; ki < kh; ki++ {
						for kj := 0; kj < kw; kj++ {
							iy := oy*stride - pad + ki
							ix := ox*stride - pad + kj
							if iy < 0 || iy >= h || ix < 0 || ix >= w {
								continue
							}
							s += kernel[((oc*c+ic)*kh+ki)*kw+kj] * src[(ic*h+iy)*w+ix]
						}
					}
				}
				dst[(oc*outH+oy)*outW+ox] = s
			}
		}
	}
	return dst, outH, outW
}

func TestConvOutSize(t *testing.T) {
	if ConvOutSize(32, 3, 1, 1) != 32 {
		t.Fatal("same-padding 3x3 should preserve size")
	}
	if ConvOutSize(32, 2, 2, 0) != 16 {
		t.Fatal("2x2 stride-2 should halve size")
	}
	if ConvOutSize(7, 7, 1, 0) != 1 {
		t.Fatal("full-size kernel should give 1")
	}
}

func TestIm2ColGemmMatchesDirectConv(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	cases := []struct{ c, h, w, outC, kh, kw, stride, pad int }{
		{1, 4, 4, 1, 3, 3, 1, 1},
		{3, 8, 8, 4, 3, 3, 1, 1},
		{2, 5, 7, 3, 3, 3, 2, 1},
		{4, 6, 6, 2, 1, 1, 1, 0},
		{2, 6, 6, 3, 2, 2, 2, 0},
	}
	for _, tc := range cases {
		src := randSlice(tc.c*tc.h*tc.w, rng)
		kernel := randSlice(tc.outC*tc.c*tc.kh*tc.kw, rng)
		want, outH, outW := refConv2D(src, tc.c, tc.h, tc.w, kernel, tc.outC, tc.kh, tc.kw, tc.stride, tc.pad)
		colRows := tc.c * tc.kh * tc.kw
		col := make([]float64, colRows*outH*outW)
		gotH, gotW := Im2Col(src, tc.c, tc.h, tc.w, tc.kh, tc.kw, tc.stride, tc.pad, col)
		if gotH != outH || gotW != outW {
			t.Fatalf("Im2Col out size (%d,%d), want (%d,%d)", gotH, gotW, outH, outW)
		}
		got := make([]float64, tc.outC*outH*outW)
		Gemm(GemmOp{}, tc.outC, outH*outW, colRows, kernel, colRows, col, outH*outW, got, outH*outW)
		for i := range got {
			if !almostEqual(got[i], want[i], 1e-10) {
				t.Fatalf("case %+v: im2col conv[%d] = %v, want %v", tc, i, got[i], want[i])
			}
		}
	}
}

// Property: Col2Im is the adjoint of Im2Col, i.e. for all x, y:
// <Im2Col(x), y> == <x, Col2Im(y)>. This is exactly the identity backprop
// relies on.
func TestQuickCol2ImAdjoint(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c, h, w := 1+r.Intn(3), 3+r.Intn(4), 3+r.Intn(4)
		kh, kw := 1+r.Intn(3), 1+r.Intn(3)
		stride := 1 + r.Intn(2)
		pad := r.Intn(2)
		outH := ConvOutSize(h, kh, stride, pad)
		outW := ConvOutSize(w, kw, stride, pad)
		if outH <= 0 || outW <= 0 {
			return true
		}
		rows := c * kh * kw
		x := randSlice(c*h*w, r)
		y := randSlice(rows*outH*outW, r)
		cx := make([]float64, rows*outH*outW)
		Im2Col(x, c, h, w, kh, kw, stride, pad, cx)
		lhs := 0.0
		for i := range cx {
			lhs += cx[i] * y[i]
		}
		xg := make([]float64, c*h*w)
		Col2Im(y, c, h, w, kh, kw, stride, pad, xg)
		rhs := 0.0
		for i := range xg {
			rhs += xg[i] * x[i]
		}
		return almostEqual(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCol2ImAccumulates(t *testing.T) {
	c, h, w := 1, 3, 3
	kh, kw, stride, pad := 3, 3, 1, 1
	outH := ConvOutSize(h, kh, stride, pad)
	outW := ConvOutSize(w, kw, stride, pad)
	col := make([]float64, c*kh*kw*outH*outW)
	for i := range col {
		col[i] = 1
	}
	dst := make([]float64, c*h*w)
	dst[0] = 100
	Col2Im(col, c, h, w, kh, kw, stride, pad, dst)
	if dst[0] <= 100 {
		t.Fatalf("Col2Im must accumulate, got dst[0]=%v", dst[0])
	}
}

func TestIm2ColSlicedChannelsPrefix(t *testing.T) {
	// Unrolling only the first 2 of 4 channels must match unrolling a
	// 2-channel image — the foundation of channel slicing in Conv2D.
	rng := rand.New(rand.NewSource(11))
	h, w, kh, kw := 5, 5, 3, 3
	full := randSlice(4*h*w, rng)
	outH := ConvOutSize(h, kh, 1, 1)
	outW := ConvOutSize(w, kw, 1, 1)
	colSliced := make([]float64, 2*kh*kw*outH*outW)
	Im2Col(full, 2, h, w, kh, kw, 1, 1, colSliced)
	colSmall := make([]float64, 2*kh*kw*outH*outW)
	Im2Col(full[:2*h*w], 2, h, w, kh, kw, 1, 1, colSmall)
	for i := range colSliced {
		if colSliced[i] != colSmall[i] {
			t.Fatal("prefix-channel Im2Col mismatch")
		}
	}
}

func TestInitializers(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := New(1000)
	InitUniform(x, 0.5, rng)
	if x.MaxAbs() > 0.5 {
		t.Fatal("InitUniform exceeded bound")
	}
	InitNormal(x, 1.0, rng)
	m := x.Mean()
	if m > 0.15 || m < -0.15 {
		t.Fatalf("InitNormal mean too far from 0: %v", m)
	}
	InitXavier(x, 100, 100, rng)
	if x.MaxAbs() > 0.2449490 {
		t.Fatalf("InitXavier exceeded bound sqrt(6/200): %v", x.MaxAbs())
	}
	InitHe(x, 50, rng)
	if !x.AllFinite() {
		t.Fatal("InitHe produced non-finite values")
	}
}

// gatherIm2Col is the im2col oracle: one element at a time, every input
// position bounds-tested, padding written as +0.
func gatherIm2Col(src []float64, c, h, w, kh, kw, stride, pad int, col []float64, ldcol, colOff int) {
	outH := ConvOutSize(h, kh, stride, pad)
	outW := ConvOutSize(w, kw, stride, pad)
	for ci := 0; ci < c; ci++ {
		for ki := 0; ki < kh; ki++ {
			for kj := 0; kj < kw; kj++ {
				row := (ci*kh+ki)*kw + kj
				for oy := 0; oy < outH; oy++ {
					for ox := 0; ox < outW; ox++ {
						iy, ix := oy*stride-pad+ki, ox*stride-pad+kj
						v := 0.0
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							v = src[(ci*h+iy)*w+ix]
						}
						col[row*ldcol+colOff+oy*outW+ox] = v
					}
				}
			}
		}
	}
}

// TestIm2ColIntoMatchesPerSample pins the whole-batch packing against the
// gather oracle, bit for bit: B samples unrolled side by side into one wide
// column matrix must each hold, in their own column band, exactly the
// oracle's columns. The shapes, listed and random, cover the stride-1
// band-copy path (outW == w) and the general loop. The matrix is
// NaN-prefilled and has spare columns past the last band, so an element
// left unwritten, or a write outside the band, shows.
func TestIm2ColIntoMatchesPerSample(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	type shape struct{ c, h, w, kh, kw, stride, pad int }
	cases := []shape{
		{2, 6, 6, 3, 3, 1, 1},   // VGG 3×3 pad 1: band path
		{3, 16, 16, 3, 3, 1, 1}, // band path at VGG13Mini's input size
		{4, 6, 6, 5, 5, 1, 2},   // band path, 5×5 pad 2
		{2, 8, 8, 1, 1, 1, 0},   // band path, 1×1
		{2, 5, 6, 3, 1, 1, 0},   // band path, kh ≠ kw
		{1, 1, 1, 3, 3, 1, 1},   // h = w = 1: every tap but the centre is padding
		{1, 1, 1, 7, 7, 1, 3},   // band path with kw > w + pad
		{3, 5, 7, 3, 3, 2, 1},   // stride 2
		{1, 4, 4, 2, 2, 2, 0},   // stride 2, no padding
		{2, 6, 6, 3, 3, 1, 0},   // outW ≠ w
		{2, 3, 3, 3, 3, 1, 3},   // outW ≠ w, pad past the kernel reach: all-padding edge rows
		{1, 1, 1, 6, 6, 1, 3},   // outW ≠ w, kernel reach exceeds w + pad
		{1, 2, 2, 5, 5, 2, 2},   // strided with taps past the padded row
	}
	for len(cases) < 300 {
		s := shape{
			c: 1 + rng.Intn(3), h: 1 + rng.Intn(9), w: 1 + rng.Intn(9),
			kh: 1 + rng.Intn(5), kw: 1 + rng.Intn(5), stride: 1 + rng.Intn(3), pad: rng.Intn(4),
		}
		if len(cases)%2 == 0 { // steer half onto the band path
			s.stride, s.kw = 1, 2*s.pad+1
		}
		cases = append(cases, s)
	}
	var banded, general int
	for _, tc := range cases {
		outH := ConvOutSize(tc.h, tc.kh, tc.stride, tc.pad)
		outW := ConvOutSize(tc.w, tc.kw, tc.stride, tc.pad)
		if outH <= 0 || outW <= 0 {
			continue
		}
		if tc.stride == 1 && outW == tc.w {
			banded++
		} else {
			general++
		}
		const batch, spare = 3, 5
		spatial := outH * outW
		rows := tc.c * tc.kh * tc.kw
		ldcol := batch*spatial + spare
		got := make([]float64, rows*ldcol)
		want := make([]float64, rows*ldcol)
		for i := range got {
			got[i], want[i] = math.NaN(), math.NaN()
		}
		for b := 0; b < batch; b++ {
			src := randSlice(tc.c*tc.h*tc.w, rng)
			Im2ColInto(src, tc.c, tc.h, tc.w, tc.kh, tc.kw, tc.stride, tc.pad, got, ldcol, b*spatial)
			gatherIm2Col(src, tc.c, tc.h, tc.w, tc.kh, tc.kw, tc.stride, tc.pad, want, ldcol, b*spatial)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%+v: col[%d,%d] = %g, want %g", tc, i/ldcol, i%ldcol, got[i], want[i])
			}
		}
	}
	if banded < 100 || general < 100 {
		t.Fatalf("coverage: %d band-path and %d general shapes, want ≥100 of each", banded, general)
	}
}
