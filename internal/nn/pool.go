package nn

import (
	"fmt"
	"math"

	"modelslicing/internal/tensor"
)

// MaxPool2D is max pooling over [B, C, H, W] tensors.
type MaxPool2D struct {
	K, Stride int

	argmax     []int
	inShape    []int
	outH, outW int
}

// NewMaxPool2D constructs a k×k max-pool with the given stride.
func NewMaxPool2D(k, stride int) *MaxPool2D { return &MaxPool2D{K: k, Stride: stride} }

// Forward computes the pooled output and caches argmax positions.
func (m *MaxPool2D) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: MaxPool2D input %v, want rank 4", x.Shape))
	}
	b, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	m.inShape = append([]int(nil), x.Shape...)
	m.outH = tensor.ConvOutSize(h, m.K, m.Stride, 0)
	m.outW = tensor.ConvOutSize(w, m.K, m.Stride, 0)
	y := tensor.New(b, c, m.outH, m.outW)
	if cap(m.argmax) < y.Size() {
		m.argmax = make([]int, y.Size())
	}
	m.argmax = m.argmax[:y.Size()]
	for s := 0; s < b; s++ {
		for ch := 0; ch < c; ch++ {
			plane := x.Data[(s*c+ch)*h*w : (s*c+ch+1)*h*w]
			outBase := (s*c + ch) * m.outH * m.outW
			for oy := 0; oy < m.outH; oy++ {
				for ox := 0; ox < m.outW; ox++ {
					best := math.Inf(-1)
					bestIdx := 0
					for ky := 0; ky < m.K; ky++ {
						for kx := 0; kx < m.K; kx++ {
							iy := oy*m.Stride + ky
							ix := ox*m.Stride + kx
							if iy >= h || ix >= w {
								continue
							}
							v := plane[iy*w+ix]
							if v > best {
								best = v
								bestIdx = iy*w + ix
							}
						}
					}
					o := outBase + oy*m.outW + ox
					y.Data[o] = best
					m.argmax[o] = (s*c+ch)*h*w + bestIdx
				}
			}
		}
	}
	return y
}

// Infer computes the pooled output without caching argmax positions.
func (m *MaxPool2D) Infer(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: MaxPool2D input %v, want rank 4", x.Shape))
	}
	b, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	outH := tensor.ConvOutSize(h, m.K, m.Stride, 0)
	outW := tensor.ConvOutSize(w, m.K, m.Stride, 0)
	y := arenaOf(ctx).GetUninit(b, c, outH, outW)
	if m.K == 2 && m.Stride == 2 && h%2 == 0 && w%2 == 0 {
		maxPool2x2(y.Data, x.Data, b*c*h/2, w)
		return y
	}
	for s := 0; s < b; s++ {
		for ch := 0; ch < c; ch++ {
			plane := x.Data[(s*c+ch)*h*w : (s*c+ch+1)*h*w]
			outBase := (s*c + ch) * outH * outW
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					best := math.Inf(-1)
					for ky := 0; ky < m.K; ky++ {
						for kx := 0; kx < m.K; kx++ {
							iy := oy*m.Stride + ky
							ix := ox*m.Stride + kx
							if iy >= h || ix >= w {
								continue
							}
							if v := plane[iy*w+ix]; v > best {
								best = v
							}
						}
					}
					y.Data[outBase+oy*outW+ox] = best
				}
			}
		}
	}
	return y
}

// maxPool2x2 is the 2×2, stride-2 pool over rowPairs pairs of input rows of
// width w (even). With even plane heights the pairs never straddle two
// planes, so output row p is simply input rows 2p and 2p+1, and no tap needs
// a bounds test. The taps are visited in the generic loop's order, each
// through maxTap starting from −Inf, so the result is the same bits: NaN
// never wins, an all-NaN window gives −Inf, and a tie between ±0 keeps the
// first.
func maxPool2x2(dst, src []float64, rowPairs, w int) {
	ow := w / 2
	for p := 0; p < rowPairs; p++ {
		out := dst[p*ow : (p+1)*ow]
		r0 := src[2*p*w : (2*p+1)*w][:2*len(out)]
		r1 := src[(2*p+1)*w : (2*p+2)*w][:2*len(out)]
		for ox := range out {
			best := maxTap(math.Inf(-1), r0[2*ox])
			best = maxTap(best, r0[2*ox+1])
			best = maxTap(best, r1[2*ox])
			out[ox] = maxTap(best, r1[2*ox+1])
		}
	}
}

// maxTap returns v when v > best and best otherwise. The select runs on the
// bit patterns, which the compiler turns into a conditional move; a float
// compare-and-jump would mispredict on about half the taps of random data.
func maxTap(best, v float64) float64 {
	b, u := math.Float64bits(best), math.Float64bits(v)
	if v > best {
		b = u
	}
	return math.Float64frombits(b)
}

// Backward routes each gradient to its argmax position.
func (m *MaxPool2D) Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(m.inShape...)
	for i, v := range dy.Data {
		dx.Data[m.argmax[i]] += v
	}
	return dx
}

// Params returns nil; pooling has no parameters.
func (m *MaxPool2D) Params() []*Param { return nil }

// GlobalAvgPool reduces [B, C, H, W] to [B, C] by spatial averaging.
type GlobalAvgPool struct {
	inShape []int
}

// NewGlobalAvgPool constructs a global average pooling layer.
func NewGlobalAvgPool() *GlobalAvgPool { return &GlobalAvgPool{} }

// Forward averages each channel plane.
func (g *GlobalAvgPool) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: GlobalAvgPool input %v, want rank 4", x.Shape))
	}
	b, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	g.inShape = append([]int(nil), x.Shape...)
	y := tensor.New(b, c)
	hw := h * w
	for s := 0; s < b; s++ {
		for ch := 0; ch < c; ch++ {
			seg := x.Data[(s*c+ch)*hw : (s*c+ch+1)*hw]
			sum := 0.0
			for _, v := range seg {
				sum += v
			}
			y.Data[s*c+ch] = sum / float64(hw)
		}
	}
	return y
}

// Infer averages each channel plane without caching the input shape.
func (g *GlobalAvgPool) Infer(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: GlobalAvgPool input %v, want rank 4", x.Shape))
	}
	b, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	y := arenaOf(ctx).GetUninit(b, c)
	hw := h * w
	for s := 0; s < b; s++ {
		for ch := 0; ch < c; ch++ {
			seg := x.Data[(s*c+ch)*hw : (s*c+ch+1)*hw]
			sum := 0.0
			for _, v := range seg {
				sum += v
			}
			y.Data[s*c+ch] = sum / float64(hw)
		}
	}
	return y
}

// Backward distributes each gradient uniformly over the pooled plane.
func (g *GlobalAvgPool) Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor {
	b, c, h, w := g.inShape[0], g.inShape[1], g.inShape[2], g.inShape[3]
	dx := tensor.New(g.inShape...)
	hw := h * w
	inv := 1 / float64(hw)
	for s := 0; s < b; s++ {
		for ch := 0; ch < c; ch++ {
			v := dy.Data[s*c+ch] * inv
			seg := dx.Data[(s*c+ch)*hw : (s*c+ch+1)*hw]
			for i := range seg {
				seg[i] = v
			}
		}
	}
	return dx
}

// Params returns nil; pooling has no parameters.
func (g *GlobalAvgPool) Params() []*Param { return nil }

// Flatten reshapes [B, ...] to [B, features].
type Flatten struct {
	inShape []int
}

// NewFlatten constructs a flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward flattens all trailing dimensions into one.
func (f *Flatten) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	f.inShape = append([]int(nil), x.Shape...)
	return x.Reshape(x.Dim(0), x.Size()/x.Dim(0))
}

// Infer flattens via an arena-recycled header view (no data copy, no cached
// shape).
func (f *Flatten) Infer(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	return arenaOf(ctx).Wrap(x.Data, x.Dim(0), x.Size()/x.Dim(0))
}

// Backward restores the original shape.
func (f *Flatten) Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor {
	return dy.Reshape(f.inShape...)
}

// Params returns nil; Flatten has no parameters.
func (f *Flatten) Params() []*Param { return nil }
