package nn

import (
	"fmt"
	"math"
	"math/rand"

	"modelslicing/internal/tensor"
)

// RNN is a vanilla (Elman) recurrent layer h_t = tanh(Wx·x_t + Wh·h_{t-1} + b)
// over sequences shaped [T, B, In] (Equation 7 of the paper). Both the input
// and the hidden dimension support prefix slicing.
type RNN struct {
	In, Hidden      int
	InSpec, HidSpec SliceSpec
	Rescale         bool

	Wx *Param // [H, In]
	Wh *Param // [H, H]
	B  *Param // [H]

	seqT, batch    int
	aIn, aH        int
	xs             *tensor.Tensor
	hs             []*tensor.Tensor // length T+1; hs[0] is the zero state
	scaleX, scaleH float64
}

// NewRNN constructs a vanilla recurrent layer with uniform 1/sqrt(H) init.
func NewRNN(in, hidden int, inSpec, hidSpec SliceSpec, rescale bool, rng *rand.Rand) *RNN {
	inSpec.Validate("RNN.In", in)
	hidSpec.Validate("RNN.Hidden", hidden)
	r := &RNN{
		In: in, Hidden: hidden,
		InSpec: inSpec, HidSpec: hidSpec, Rescale: rescale,
		Wx: NewParam("rnn.Wx", true, hidden, in),
		Wh: NewParam("rnn.Wh", true, hidden, hidden),
		B:  NewParam("rnn.B", false, hidden),
	}
	bound := 1 / math.Sqrt(float64(hidden))
	tensor.InitUniform(r.Wx.Value, bound, rng)
	tensor.InitUniform(r.Wh.Value, bound, rng)
	return r
}

// Active returns the active (input, hidden) widths at slice rate r.
func (r *RNN) Active(rate float64) (aIn, aH int) {
	return r.InSpec.Active(rate, r.In), r.HidSpec.Active(rate, r.Hidden)
}

// Forward runs the sequence and returns hidden states [T, B, aH].
func (r *RNN) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	rate := ctx.EffRate()
	r.aIn, r.aH = r.Active(rate)
	if x.Rank() != 3 || x.Dim(2) != r.aIn {
		panic(fmt.Sprintf("nn: RNN.Forward input %v, want [T B %d] at rate %v", x.Shape, r.aIn, rate))
	}
	r.seqT, r.batch = x.Dim(0), x.Dim(1)
	r.xs = x
	r.scaleX, r.scaleH = 1, 1
	if r.Rescale {
		if r.aIn < r.In {
			r.scaleX = float64(r.In) / float64(r.aIn)
		}
		if r.aH < r.Hidden {
			r.scaleH = float64(r.Hidden) / float64(r.aH)
		}
	}
	r.hs = make([]*tensor.Tensor, r.seqT+1)
	r.hs[0] = tensor.New(r.batch, r.aH)
	out := tensor.New(r.seqT, r.batch, r.aH)
	frame := r.batch * r.aIn
	for t := 0; t < r.seqT; t++ {
		xt := x.Data[t*frame : (t+1)*frame]
		z := tensor.New(r.batch, r.aH)
		if r.scaleX == 1 && r.scaleH == 1 {
			tensor.Gemm(tensor.GemmOp{TransB: true}, r.batch, r.aH, r.aIn, xt, r.aIn, r.Wx.Value.Data, r.In, z.Data, r.aH)
			tensor.Gemm(tensor.GemmOp{TransB: true}, r.batch, r.aH, r.aH, r.hs[t].Data, r.aH, r.Wh.Value.Data, r.Hidden, z.Data, r.aH)
		} else {
			zx := tensor.New(r.batch, r.aH)
			zh := tensor.New(r.batch, r.aH)
			tensor.Gemm(tensor.GemmOp{TransB: true}, r.batch, r.aH, r.aIn, xt, r.aIn, r.Wx.Value.Data, r.In, zx.Data, r.aH)
			tensor.Gemm(tensor.GemmOp{TransB: true}, r.batch, r.aH, r.aH, r.hs[t].Data, r.aH, r.Wh.Value.Data, r.Hidden, zh.Data, r.aH)
			z.AddScaled(r.scaleX, zx)
			z.AddScaled(r.scaleH, zh)
		}
		h := tensor.New(r.batch, r.aH)
		for s := 0; s < r.batch; s++ {
			zr, hr := z.Row(s), h.Row(s)
			for j := 0; j < r.aH; j++ {
				hr[j] = math.Tanh(zr[j] + r.B.Value.Data[j])
			}
		}
		r.hs[t+1] = h
		copy(out.Data[t*r.batch*r.aH:(t+1)*r.batch*r.aH], h.Data)
	}
	return out
}

// Infer runs the sequence on the read-only inference path: hidden states are
// written straight into the output tensor (the previous frame doubles as
// h_{t-1}), the pre-activation buffer is reused across steps, and no
// backward state is kept.
func (r *RNN) Infer(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	rate := ctx.EffRate()
	aIn, aH := r.Active(rate)
	if x.Rank() != 3 || x.Dim(2) != aIn {
		panic(fmt.Sprintf("nn: RNN.Infer input %v, want [T B %d] at rate %v", x.Shape, aIn, rate))
	}
	seqT, batch := x.Dim(0), x.Dim(1)
	scaleX, scaleH := 1.0, 1.0
	if r.Rescale {
		if aIn < r.In {
			scaleX = float64(r.In) / float64(aIn)
		}
		if aH < r.Hidden {
			scaleH = float64(r.Hidden) / float64(aH)
		}
	}
	arena := arenaOf(ctx)
	out := arena.Get(seqT, batch, aH)
	h0 := arena.Get(batch, aH) // zero initial state
	z := arena.Get(batch, aH)
	zx := z
	var zh *tensor.Tensor
	if scaleX != 1 || scaleH != 1 {
		zx = arena.Get(batch, aH)
		zh = arena.Get(batch, aH)
	}
	frame := batch * aIn
	outFrame := batch * aH
	hPrev := h0.Data
	b := r.B.Value.Data
	for t := 0; t < seqT; t++ {
		xt := x.Data[t*frame : (t+1)*frame]
		if zh == nil {
			clear(z.Data)
			tensor.Gemm(tensor.GemmOp{TransB: true}, batch, aH, aIn, xt, aIn, r.Wx.Value.Data, r.In, z.Data, aH)
			tensor.Gemm(tensor.GemmOp{TransB: true}, batch, aH, aH, hPrev, aH, r.Wh.Value.Data, r.Hidden, z.Data, aH)
		} else {
			clear(zx.Data)
			clear(zh.Data)
			tensor.Gemm(tensor.GemmOp{TransB: true}, batch, aH, aIn, xt, aIn, r.Wx.Value.Data, r.In, zx.Data, aH)
			tensor.Gemm(tensor.GemmOp{TransB: true}, batch, aH, aH, hPrev, aH, r.Wh.Value.Data, r.Hidden, zh.Data, aH)
			for i := range z.Data {
				z.Data[i] = scaleX*zx.Data[i] + scaleH*zh.Data[i]
			}
		}
		hCur := out.Data[t*outFrame : (t+1)*outFrame]
		for s := 0; s < batch; s++ {
			zr := z.Data[s*aH : (s+1)*aH]
			hr := hCur[s*aH : (s+1)*aH]
			for j := 0; j < aH; j++ {
				hr[j] = math.Tanh(zr[j] + b[j])
			}
		}
		hPrev = hCur
	}
	return out
}

// Backward propagates through time and returns dx [T, B, aIn].
func (r *RNN) Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor {
	if dy.Rank() != 3 || dy.Dim(0) != r.seqT || dy.Dim(1) != r.batch || dy.Dim(2) != r.aH {
		panic(fmt.Sprintf("nn: RNN.Backward grad %v, want [%d %d %d]", dy.Shape, r.seqT, r.batch, r.aH))
	}
	dx := tensor.New(r.seqT, r.batch, r.aIn)
	dhNext := tensor.New(r.batch, r.aH)
	frame := r.batch * r.aIn
	outFrame := r.batch * r.aH
	db := r.B.Grad.Data
	for t := r.seqT - 1; t >= 0; t-- {
		h := r.hs[t+1]
		dz := tensor.New(r.batch, r.aH)
		for s := 0; s < r.batch; s++ {
			hr := h.Row(s)
			dzr := dz.Row(s)
			dhn := dhNext.Row(s)
			gRow := dy.Data[t*outFrame+s*r.aH : t*outFrame+(s+1)*r.aH]
			for j := 0; j < r.aH; j++ {
				dh := gRow[j] + dhn[j]
				dzr[j] = dh * (1 - hr[j]*hr[j])
				db[j] += dzr[j]
			}
		}
		dzx, dzh := dz, dz
		if r.scaleX != 1 {
			dzx = dz.Clone()
			dzx.Scale(r.scaleX)
		}
		if r.scaleH != 1 {
			dzh = dz.Clone()
			dzh.Scale(r.scaleH)
		}
		xt := r.xs.Data[t*frame : (t+1)*frame]
		tensor.Gemm(tensor.GemmOp{TransA: true}, r.aH, r.aIn, r.batch, dzx.Data, r.aH, xt, r.aIn, r.Wx.Grad.Data, r.In)
		tensor.Gemm(tensor.GemmOp{TransA: true}, r.aH, r.aH, r.batch, dzh.Data, r.aH, r.hs[t].Data, r.aH, r.Wh.Grad.Data, r.Hidden)
		tensor.Gemm(tensor.GemmOp{}, r.batch, r.aIn, r.aH, dzx.Data, r.aH, r.Wx.Value.Data, r.In, dx.Data[t*frame:(t+1)*frame], r.aIn)
		dhNext.Zero()
		tensor.Gemm(tensor.GemmOp{}, r.batch, r.aH, r.aH, dzh.Data, r.aH, r.Wh.Value.Data, r.Hidden, dhNext.Data, r.aH)
	}
	return dx
}

// Params returns Wx, Wh and the bias.
func (r *RNN) Params() []*Param { return []*Param{r.Wx, r.Wh, r.B} }
