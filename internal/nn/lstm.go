package nn

import (
	"fmt"
	"math"
	"math/rand"

	"modelslicing/internal/tensor"
)

// LSTM is a single Long Short-Term Memory layer over sequences shaped
// [T, B, In], producing hidden states [T, B, H]. Model slicing applies to
// the input dimension and to the hidden/memory state: at slice rate r only
// the leading aIn inputs and aH hidden units of every gate participate
// (Section 3.3 — "dynamic slicing is applied to all input and output sets,
// including hidden/memory states and various gates, regulated by one single
// parameter slice rate").
//
// The four gates are stored stacked along the row dimension of Wx [4H × In]
// and Wh [4H × H], in the order input, forget, cell, output; the leading aH
// rows *of each gate block* form the sliced sub-layer.
type LSTM struct {
	In, Hidden      int
	InSpec, HidSpec SliceSpec
	// Rescale stabilizes the pre-activation scale by In/aIn (input term)
	// and H/aH (recurrent term) when the layer runs without normalization,
	// mirroring the output rescaling the paper uses for NNLM.
	Rescale bool

	Wx *Param // [4H, In]
	Wh *Param // [4H, H]
	B  *Param // [4H]

	// cached forward state
	seqT, batch    int
	aIn, aH        int
	xs             *tensor.Tensor
	hs, cs         []*tensor.Tensor // length T+1; index 0 is the zero state
	gates          []*tensor.Tensor // per t: [B, 4aH] activated (i,f,g,o)
	tanhC          []*tensor.Tensor // per t: [B, aH]
	scaleX, scaleH float64
}

// NewLSTM constructs an LSTM with uniform initialization 1/sqrt(H) and the
// customary forget-gate bias of 1.
func NewLSTM(in, hidden int, inSpec, hidSpec SliceSpec, rescale bool, rng *rand.Rand) *LSTM {
	inSpec.Validate("LSTM.In", in)
	hidSpec.Validate("LSTM.Hidden", hidden)
	l := &LSTM{
		In: in, Hidden: hidden,
		InSpec: inSpec, HidSpec: hidSpec, Rescale: rescale,
		Wx: NewParam("lstm.Wx", true, 4*hidden, in),
		Wh: NewParam("lstm.Wh", true, 4*hidden, hidden),
		B:  NewParam("lstm.B", false, 4*hidden),
	}
	bound := 1 / math.Sqrt(float64(hidden))
	tensor.InitUniform(l.Wx.Value, bound, rng)
	tensor.InitUniform(l.Wh.Value, bound, rng)
	for i := hidden; i < 2*hidden; i++ {
		l.B.Value.Data[i] = 1 // forget gate
	}
	return l
}

// Active returns the active (input, hidden) widths at slice rate r.
func (l *LSTM) Active(r float64) (aIn, aH int) {
	return l.InSpec.Active(r, l.In), l.HidSpec.Active(r, l.Hidden)
}

// gateRows returns the weight sub-matrix rows for gate k (0..3) sliced to aH
// rows, as an offset into a [4H × ld] buffer.
func gateOffset(k, hidden, ld int) int { return k * hidden * ld }

// Forward runs the sequence and returns hidden states [T, B, aH].
func (l *LSTM) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	r := ctx.EffRate()
	l.aIn, l.aH = l.Active(r)
	if x.Rank() != 3 || x.Dim(2) != l.aIn {
		panic(fmt.Sprintf("nn: LSTM.Forward input %v, want [T B %d] at rate %v", x.Shape, l.aIn, r))
	}
	l.seqT, l.batch = x.Dim(0), x.Dim(1)
	l.xs = x
	l.scaleX, l.scaleH = 1, 1
	if l.Rescale {
		if l.aIn < l.In {
			l.scaleX = float64(l.In) / float64(l.aIn)
		}
		if l.aH < l.Hidden {
			l.scaleH = float64(l.Hidden) / float64(l.aH)
		}
	}

	l.hs = make([]*tensor.Tensor, l.seqT+1)
	l.cs = make([]*tensor.Tensor, l.seqT+1)
	l.gates = make([]*tensor.Tensor, l.seqT)
	l.tanhC = make([]*tensor.Tensor, l.seqT)
	l.hs[0] = tensor.New(l.batch, l.aH)
	l.cs[0] = tensor.New(l.batch, l.aH)

	out := tensor.New(l.seqT, l.batch, l.aH)
	frame := l.batch * l.aIn
	for t := 0; t < l.seqT; t++ {
		xt := x.Data[t*frame : (t+1)*frame] // [B, aIn]
		z := tensor.New(l.batch, 4*l.aH)
		l.stepPreact(xt, l.hs[t], z)
		h := tensor.New(l.batch, l.aH)
		c := tensor.New(l.batch, l.aH)
		th := tensor.New(l.batch, l.aH)
		cPrev := l.cs[t]
		for s := 0; s < l.batch; s++ {
			zr := z.Row(s)
			hr, cr, tr := h.Row(s), c.Row(s), th.Row(s)
			cp := cPrev.Row(s)
			for j := 0; j < l.aH; j++ {
				iv := sigmoid(zr[j])
				fv := sigmoid(zr[l.aH+j])
				gv := math.Tanh(zr[2*l.aH+j])
				ov := sigmoid(zr[3*l.aH+j])
				zr[j], zr[l.aH+j], zr[2*l.aH+j], zr[3*l.aH+j] = iv, fv, gv, ov
				cv := fv*cp[j] + iv*gv
				tv := math.Tanh(cv)
				cr[j] = cv
				tr[j] = tv
				hr[j] = ov * tv
			}
		}
		l.gates[t] = z
		l.tanhC[t] = th
		l.hs[t+1] = h
		l.cs[t+1] = c
		copy(out.Data[t*l.batch*l.aH:(t+1)*l.batch*l.aH], h.Data)
	}
	return out
}

// stepPreact computes z[B × 4aH] = scaleX·x·Wxᵀ + scaleH·h·Whᵀ + b for the
// four sliced gate blocks.
func (l *LSTM) stepPreact(xt []float64, hPrev *tensor.Tensor, z *tensor.Tensor) {
	if l.scaleX == 1 && l.scaleH == 1 {
		for k := 0; k < 4; k++ {
			wx := l.Wx.Value.Data[gateOffset(k, l.Hidden, l.In):]
			wh := l.Wh.Value.Data[gateOffset(k, l.Hidden, l.Hidden):]
			tensor.Gemm(tensor.GemmOp{TransB: true}, l.batch, l.aH, l.aIn, xt, l.aIn, wx, l.In, z.Data[k*l.aH:], 4*l.aH)
			tensor.Gemm(tensor.GemmOp{TransB: true}, l.batch, l.aH, l.aH, hPrev.Data, l.aH, wh, l.Hidden, z.Data[k*l.aH:], 4*l.aH)
		}
	} else {
		// The two terms carry different rescale factors, so they are
		// accumulated separately and combined scaled.
		zx := tensor.New(l.batch, 4*l.aH)
		zh := tensor.New(l.batch, 4*l.aH)
		for k := 0; k < 4; k++ {
			wx := l.Wx.Value.Data[gateOffset(k, l.Hidden, l.In):]
			wh := l.Wh.Value.Data[gateOffset(k, l.Hidden, l.Hidden):]
			tensor.Gemm(tensor.GemmOp{TransB: true}, l.batch, l.aH, l.aIn, xt, l.aIn, wx, l.In, zx.Data[k*l.aH:], 4*l.aH)
			tensor.Gemm(tensor.GemmOp{TransB: true}, l.batch, l.aH, l.aH, hPrev.Data, l.aH, wh, l.Hidden, zh.Data[k*l.aH:], 4*l.aH)
		}
		z.AddScaled(l.scaleX, zx)
		z.AddScaled(l.scaleH, zh)
	}
	b := l.B.Value.Data
	for s := 0; s < l.batch; s++ {
		zr := z.Row(s)
		for k := 0; k < 4; k++ {
			bk := b[k*l.Hidden : k*l.Hidden+l.aH]
			for j := 0; j < l.aH; j++ {
				zr[k*l.aH+j] += bk[j]
			}
		}
	}
}

// Infer runs the sequence on the read-only inference path: hidden frames
// live in the output tensor, the cell state ping-pongs between two arena
// buffers, and the gate pre-activation buffer is reused across steps.
func (l *LSTM) Infer(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	r := ctx.EffRate()
	aIn, aH := l.Active(r)
	if x.Rank() != 3 || x.Dim(2) != aIn {
		panic(fmt.Sprintf("nn: LSTM.Infer input %v, want [T B %d] at rate %v", x.Shape, aIn, r))
	}
	seqT, batch := x.Dim(0), x.Dim(1)
	scaleX, scaleH := 1.0, 1.0
	if l.Rescale {
		if aIn < l.In {
			scaleX = float64(l.In) / float64(aIn)
		}
		if aH < l.Hidden {
			scaleH = float64(l.Hidden) / float64(aH)
		}
	}
	arena := arenaOf(ctx)
	out := arena.Get(seqT, batch, aH)
	h0 := arena.Get(batch, aH)
	cPrev := arena.Get(batch, aH)
	cCur := arena.Get(batch, aH)
	z := arena.Get(batch, 4*aH)
	var zx, zh *tensor.Tensor
	if scaleX != 1 || scaleH != 1 {
		zx = arena.Get(batch, 4*aH)
		zh = arena.Get(batch, 4*aH)
	}
	frame := batch * aIn
	outFrame := batch * aH
	hPrev := h0.Data
	b := l.B.Value.Data
	for t := 0; t < seqT; t++ {
		xt := x.Data[t*frame : (t+1)*frame]
		if zx == nil {
			clear(z.Data)
			for k := 0; k < 4; k++ {
				wx := l.Wx.Value.Data[gateOffset(k, l.Hidden, l.In):]
				wh := l.Wh.Value.Data[gateOffset(k, l.Hidden, l.Hidden):]
				tensor.Gemm(tensor.GemmOp{TransB: true}, batch, aH, aIn, xt, aIn, wx, l.In, z.Data[k*aH:], 4*aH)
				tensor.Gemm(tensor.GemmOp{TransB: true}, batch, aH, aH, hPrev, aH, wh, l.Hidden, z.Data[k*aH:], 4*aH)
			}
		} else {
			clear(zx.Data)
			clear(zh.Data)
			for k := 0; k < 4; k++ {
				wx := l.Wx.Value.Data[gateOffset(k, l.Hidden, l.In):]
				wh := l.Wh.Value.Data[gateOffset(k, l.Hidden, l.Hidden):]
				tensor.Gemm(tensor.GemmOp{TransB: true}, batch, aH, aIn, xt, aIn, wx, l.In, zx.Data[k*aH:], 4*aH)
				tensor.Gemm(tensor.GemmOp{TransB: true}, batch, aH, aH, hPrev, aH, wh, l.Hidden, zh.Data[k*aH:], 4*aH)
			}
			for i := range z.Data {
				z.Data[i] = scaleX*zx.Data[i] + scaleH*zh.Data[i]
			}
		}
		hCur := out.Data[t*outFrame : (t+1)*outFrame]
		for s := 0; s < batch; s++ {
			zr := z.Data[s*4*aH : (s+1)*4*aH]
			hr := hCur[s*aH : (s+1)*aH]
			cp := cPrev.Data[s*aH : (s+1)*aH]
			cc := cCur.Data[s*aH : (s+1)*aH]
			for j := 0; j < aH; j++ {
				iv := sigmoid(zr[j] + b[j])
				fv := sigmoid(zr[aH+j] + b[l.Hidden+j])
				gv := math.Tanh(zr[2*aH+j] + b[2*l.Hidden+j])
				ov := sigmoid(zr[3*aH+j] + b[3*l.Hidden+j])
				cv := fv*cp[j] + iv*gv
				cc[j] = cv
				hr[j] = ov * math.Tanh(cv)
			}
		}
		cPrev, cCur = cCur, cPrev
		hPrev = hCur
	}
	return out
}

// Backward propagates through time, accumulating weight gradients, and
// returns dx [T, B, aIn].
func (l *LSTM) Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor {
	if dy.Rank() != 3 || dy.Dim(0) != l.seqT || dy.Dim(1) != l.batch || dy.Dim(2) != l.aH {
		panic(fmt.Sprintf("nn: LSTM.Backward grad %v, want [%d %d %d]", dy.Shape, l.seqT, l.batch, l.aH))
	}
	dx := tensor.New(l.seqT, l.batch, l.aIn)
	dhNext := tensor.New(l.batch, l.aH)
	dcNext := tensor.New(l.batch, l.aH)
	dz := tensor.New(l.batch, 4*l.aH)
	frame := l.batch * l.aIn
	outFrame := l.batch * l.aH

	for t := l.seqT - 1; t >= 0; t-- {
		z := l.gates[t]
		th := l.tanhC[t]
		cPrev := l.cs[t]
		for s := 0; s < l.batch; s++ {
			zr := z.Row(s)
			tr := th.Row(s)
			cp := cPrev.Row(s)
			dh := dhNext.Row(s)
			dc := dcNext.Row(s)
			dzr := dz.Row(s)
			gRow := dy.Data[t*outFrame+s*l.aH : t*outFrame+(s+1)*l.aH]
			for j := 0; j < l.aH; j++ {
				dhv := gRow[j] + dh[j]
				iv, fv, gv, ov := zr[j], zr[l.aH+j], zr[2*l.aH+j], zr[3*l.aH+j]
				tv := tr[j]
				dov := dhv * tv
				dcv := dc[j] + dhv*ov*(1-tv*tv)
				div := dcv * gv
				dfv := dcv * cp[j]
				dgv := dcv * iv
				dzr[j] = div * iv * (1 - iv)
				dzr[l.aH+j] = dfv * fv * (1 - fv)
				dzr[2*l.aH+j] = dgv * (1 - gv*gv)
				dzr[3*l.aH+j] = dov * ov * (1 - ov)
				dc[j] = dcv * fv // becomes dcNext for t-1
			}
		}
		// Parameter and input gradients from dz. The x-path carries the
		// scaleX factor and the h-path scaleH (bias path unscaled).
		xt := l.xs.Data[t*frame : (t+1)*frame]
		hPrev := l.hs[t]
		dxt := dx.Data[t*frame : (t+1)*frame]
		dhNext.Zero()
		db := l.B.Grad.Data
		dzx, dzh := dz, dz
		if l.scaleX != 1 {
			dzx = dz.Clone()
			dzx.Scale(l.scaleX)
		}
		if l.scaleH != 1 {
			dzh = dz.Clone()
			dzh.Scale(l.scaleH)
		}
		for k := 0; k < 4; k++ {
			dzkx := dzx.Data[k*l.aH:] // [B × aH] with ld 4aH
			dzkh := dzh.Data[k*l.aH:]
			// dWx[gate k] += scaleX · dzₖᵀ · x
			tensor.Gemm(tensor.GemmOp{TransA: true}, l.aH, l.aIn, l.batch, dzkx, 4*l.aH, xt, l.aIn,
				l.Wx.Grad.Data[gateOffset(k, l.Hidden, l.In):], l.In)
			// dWh[gate k] += scaleH · dzₖᵀ · h_{t-1}
			tensor.Gemm(tensor.GemmOp{TransA: true}, l.aH, l.aH, l.batch, dzkh, 4*l.aH, hPrev.Data, l.aH,
				l.Wh.Grad.Data[gateOffset(k, l.Hidden, l.Hidden):], l.Hidden)
			// dx += scaleX · dzₖ · Wx[gate k]
			tensor.Gemm(tensor.GemmOp{}, l.batch, l.aIn, l.aH, dzkx, 4*l.aH,
				l.Wx.Value.Data[gateOffset(k, l.Hidden, l.In):], l.In, dxt, l.aIn)
			// dh_{t-1} += scaleH · dzₖ · Wh[gate k]
			tensor.Gemm(tensor.GemmOp{}, l.batch, l.aH, l.aH, dzkh, 4*l.aH,
				l.Wh.Value.Data[gateOffset(k, l.Hidden, l.Hidden):], l.Hidden, dhNext.Data, l.aH)
			// db[gate k] += Σ_batch dzₖ
			for s := 0; s < l.batch; s++ {
				row := dz.Row(s)
				for j := 0; j < l.aH; j++ {
					db[k*l.Hidden+j] += row[k*l.aH+j]
				}
			}
		}
	}
	return dx
}

// Params returns Wx, Wh and the bias.
func (l *LSTM) Params() []*Param { return []*Param{l.Wx, l.Wh, l.B} }
