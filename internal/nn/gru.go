package nn

import (
	"fmt"
	"math"
	"math/rand"

	"modelslicing/internal/tensor"
)

// GRU is a Gated Recurrent Unit layer (Cho et al., 2014) over sequences
// shaped [T, B, In], with PyTorch gate conventions:
//
//	r_t = σ(W_r·x + b_r + U_r·h + c_r)
//	z_t = σ(W_z·x + b_z + U_z·h + c_z)
//	n_t = tanh(W_n·x + b_n + r_t ⊙ (U_n·h + c_n))
//	h_t = (1−z_t) ⊙ n_t + z_t ⊙ h_{t−1}
//
// Gates are stacked row-wise in the order r, z, n. Prefix slicing applies to
// the input and hidden dimensions exactly as in LSTM (Section 3.3).
type GRU struct {
	In, Hidden      int
	InSpec, HidSpec SliceSpec
	Rescale         bool

	Wx *Param // [3H, In]
	Wh *Param // [3H, H]
	Bx *Param // [3H] input-side bias
	Bh *Param // [3H] hidden-side bias

	seqT, batch    int
	aIn, aH        int
	xs             *tensor.Tensor
	hs             []*tensor.Tensor // length T+1
	rz             []*tensor.Tensor // per t: [B, 2aH] activated r, z
	ns             []*tensor.Tensor // per t: [B, aH] activated n
	hus            []*tensor.Tensor // per t: [B, aH] U_n·h + c_n (pre gating)
	scaleX, scaleH float64
}

// NewGRU constructs a GRU with uniform 1/sqrt(H) initialization.
func NewGRU(in, hidden int, inSpec, hidSpec SliceSpec, rescale bool, rng *rand.Rand) *GRU {
	inSpec.Validate("GRU.In", in)
	hidSpec.Validate("GRU.Hidden", hidden)
	g := &GRU{
		In: in, Hidden: hidden,
		InSpec: inSpec, HidSpec: hidSpec, Rescale: rescale,
		Wx: NewParam("gru.Wx", true, 3*hidden, in),
		Wh: NewParam("gru.Wh", true, 3*hidden, hidden),
		Bx: NewParam("gru.Bx", false, 3*hidden),
		Bh: NewParam("gru.Bh", false, 3*hidden),
	}
	bound := 1 / math.Sqrt(float64(hidden))
	tensor.InitUniform(g.Wx.Value, bound, rng)
	tensor.InitUniform(g.Wh.Value, bound, rng)
	return g
}

// Active returns the active (input, hidden) widths at slice rate r.
func (g *GRU) Active(rate float64) (aIn, aH int) {
	return g.InSpec.Active(rate, g.In), g.HidSpec.Active(rate, g.Hidden)
}

// gemmGate computes dst[B × aH](ld) += src[B × k] · W[gate block]ᵀ.
func (g *GRU) gemmGate(dst []float64, ldDst int, src []float64, k, ldSrc int, w []float64, gate, ldW int) {
	tensor.Gemm(tensor.GemmOp{TransB: true}, g.batch, g.aH, k, src, ldSrc, w[gate*g.Hidden*ldW:], ldW, dst, ldDst)
}

// Forward runs the sequence and returns hidden states [T, B, aH].
func (g *GRU) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	rate := ctx.EffRate()
	g.aIn, g.aH = g.Active(rate)
	if x.Rank() != 3 || x.Dim(2) != g.aIn {
		panic(fmt.Sprintf("nn: GRU.Forward input %v, want [T B %d] at rate %v", x.Shape, g.aIn, rate))
	}
	g.seqT, g.batch = x.Dim(0), x.Dim(1)
	g.xs = x
	g.scaleX, g.scaleH = 1, 1
	if g.Rescale {
		if g.aIn < g.In {
			g.scaleX = float64(g.In) / float64(g.aIn)
		}
		if g.aH < g.Hidden {
			g.scaleH = float64(g.Hidden) / float64(g.aH)
		}
	}
	g.hs = make([]*tensor.Tensor, g.seqT+1)
	g.hs[0] = tensor.New(g.batch, g.aH)
	g.rz = make([]*tensor.Tensor, g.seqT)
	g.ns = make([]*tensor.Tensor, g.seqT)
	g.hus = make([]*tensor.Tensor, g.seqT)
	out := tensor.New(g.seqT, g.batch, g.aH)
	frame := g.batch * g.aIn

	for t := 0; t < g.seqT; t++ {
		xt := x.Data[t*frame : (t+1)*frame]
		hPrev := g.hs[t]
		// Input-side pre-activations for the three gates: [B, 3aH].
		zx := tensor.New(g.batch, 3*g.aH)
		for k := 0; k < 3; k++ {
			g.gemmGate(zx.Data[k*g.aH:], 3*g.aH, xt, g.aIn, g.aIn, g.Wx.Value.Data, k, g.In)
		}
		if g.scaleX != 1 {
			zx.Scale(g.scaleX)
		}
		// Hidden-side pre-activations: [B, 3aH].
		zh := tensor.New(g.batch, 3*g.aH)
		for k := 0; k < 3; k++ {
			g.gemmGate(zh.Data[k*g.aH:], 3*g.aH, hPrev.Data, g.aH, g.aH, g.Wh.Value.Data, k, g.Hidden)
		}
		if g.scaleH != 1 {
			zh.Scale(g.scaleH)
		}
		rzT := tensor.New(g.batch, 2*g.aH)
		nT := tensor.New(g.batch, g.aH)
		huT := tensor.New(g.batch, g.aH)
		h := tensor.New(g.batch, g.aH)
		bx, bh := g.Bx.Value.Data, g.Bh.Value.Data
		for s := 0; s < g.batch; s++ {
			zxr, zhr := zx.Row(s), zh.Row(s)
			rzr, nr, hur, hr := rzT.Row(s), nT.Row(s), huT.Row(s), h.Row(s)
			hp := hPrev.Row(s)
			for j := 0; j < g.aH; j++ {
				rv := sigmoid(zxr[j] + bx[j] + zhr[j] + bh[j])
				zv := sigmoid(zxr[g.aH+j] + bx[g.Hidden+j] + zhr[g.aH+j] + bh[g.Hidden+j])
				hu := zhr[2*g.aH+j] + bh[2*g.Hidden+j]
				nv := math.Tanh(zxr[2*g.aH+j] + bx[2*g.Hidden+j] + rv*hu)
				rzr[j] = rv
				rzr[g.aH+j] = zv
				hur[j] = hu
				nr[j] = nv
				hr[j] = (1-zv)*nv + zv*hp[j]
			}
		}
		g.rz[t], g.ns[t], g.hus[t] = rzT, nT, huT
		g.hs[t+1] = h
		copy(out.Data[t*g.batch*g.aH:(t+1)*g.batch*g.aH], h.Data)
	}
	return out
}

// Infer runs the sequence on the read-only inference path: hidden frames
// live in the output tensor and the two gate pre-activation buffers are
// reused across steps.
func (g *GRU) Infer(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	rate := ctx.EffRate()
	aIn, aH := g.Active(rate)
	if x.Rank() != 3 || x.Dim(2) != aIn {
		panic(fmt.Sprintf("nn: GRU.Infer input %v, want [T B %d] at rate %v", x.Shape, aIn, rate))
	}
	seqT, batch := x.Dim(0), x.Dim(1)
	scaleX, scaleH := 1.0, 1.0
	if g.Rescale {
		if aIn < g.In {
			scaleX = float64(g.In) / float64(aIn)
		}
		if aH < g.Hidden {
			scaleH = float64(g.Hidden) / float64(aH)
		}
	}
	arena := arenaOf(ctx)
	out := arena.Get(seqT, batch, aH)
	h0 := arena.Get(batch, aH)
	zx := arena.Get(batch, 3*aH)
	zh := arena.Get(batch, 3*aH)
	frame := batch * aIn
	outFrame := batch * aH
	hPrev := h0.Data
	bx, bh := g.Bx.Value.Data, g.Bh.Value.Data
	for t := 0; t < seqT; t++ {
		xt := x.Data[t*frame : (t+1)*frame]
		clear(zx.Data)
		clear(zh.Data)
		for k := 0; k < 3; k++ {
			tensor.Gemm(tensor.GemmOp{TransB: true}, batch, aH, aIn, xt, aIn, g.Wx.Value.Data[k*g.Hidden*g.In:], g.In, zx.Data[k*aH:], 3*aH)
			tensor.Gemm(tensor.GemmOp{TransB: true}, batch, aH, aH, hPrev, aH, g.Wh.Value.Data[k*g.Hidden*g.Hidden:], g.Hidden, zh.Data[k*aH:], 3*aH)
		}
		if scaleX != 1 {
			zx.Scale(scaleX)
		}
		if scaleH != 1 {
			zh.Scale(scaleH)
		}
		hCur := out.Data[t*outFrame : (t+1)*outFrame]
		for s := 0; s < batch; s++ {
			zxr := zx.Data[s*3*aH : (s+1)*3*aH]
			zhr := zh.Data[s*3*aH : (s+1)*3*aH]
			hr := hCur[s*aH : (s+1)*aH]
			hp := hPrev[s*aH : (s+1)*aH]
			for j := 0; j < aH; j++ {
				rv := sigmoid(zxr[j] + bx[j] + zhr[j] + bh[j])
				zv := sigmoid(zxr[aH+j] + bx[g.Hidden+j] + zhr[aH+j] + bh[g.Hidden+j])
				hu := zhr[2*aH+j] + bh[2*g.Hidden+j]
				nv := math.Tanh(zxr[2*aH+j] + bx[2*g.Hidden+j] + rv*hu)
				hr[j] = (1-zv)*nv + zv*hp[j]
			}
		}
		hPrev = hCur
	}
	return out
}

// Backward propagates through time and returns dx [T, B, aIn].
func (g *GRU) Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor {
	if dy.Rank() != 3 || dy.Dim(0) != g.seqT || dy.Dim(1) != g.batch || dy.Dim(2) != g.aH {
		panic(fmt.Sprintf("nn: GRU.Backward grad %v, want [%d %d %d]", dy.Shape, g.seqT, g.batch, g.aH))
	}
	dx := tensor.New(g.seqT, g.batch, g.aIn)
	dhNext := tensor.New(g.batch, g.aH)
	frame := g.batch * g.aIn
	outFrame := g.batch * g.aH
	dbx, dbh := g.Bx.Grad.Data, g.Bh.Grad.Data

	for t := g.seqT - 1; t >= 0; t-- {
		hPrev := g.hs[t]
		rzT, nT, huT := g.rz[t], g.ns[t], g.hus[t]
		// Pre-activation grads, input side [B,3aH] and hidden side [B,3aH].
		dzx := tensor.New(g.batch, 3*g.aH)
		dzh := tensor.New(g.batch, 3*g.aH)
		dhPrev := tensor.New(g.batch, g.aH)
		for s := 0; s < g.batch; s++ {
			rzr, nr, hur := rzT.Row(s), nT.Row(s), huT.Row(s)
			hp := hPrev.Row(s)
			dzxr, dzhr := dzx.Row(s), dzh.Row(s)
			dhp := dhPrev.Row(s)
			dhn := dhNext.Row(s)
			gRow := dy.Data[t*outFrame+s*g.aH : t*outFrame+(s+1)*g.aH]
			for j := 0; j < g.aH; j++ {
				dh := gRow[j] + dhn[j]
				rv, zv, nv, hu := rzr[j], rzr[g.aH+j], nr[j], hur[j]
				dz := dh * (hp[j] - nv)
				dn := dh * (1 - zv)
				dhp[j] = dh * zv
				dnPre := dn * (1 - nv*nv)
				dr := dnPre * hu
				dhu := dnPre * rv
				drPre := dr * rv * (1 - rv)
				dzPre := dz * zv * (1 - zv)
				dzxr[j] = drPre
				dzxr[g.aH+j] = dzPre
				dzxr[2*g.aH+j] = dnPre
				dzhr[j] = drPre
				dzhr[g.aH+j] = dzPre
				dzhr[2*g.aH+j] = dhu
				dbx[j] += drPre
				dbx[g.Hidden+j] += dzPre
				dbx[2*g.Hidden+j] += dnPre
				dbh[j] += drPre
				dbh[g.Hidden+j] += dzPre
				dbh[2*g.Hidden+j] += dhu
			}
		}
		if g.scaleX != 1 {
			dzx.Scale(g.scaleX)
		}
		if g.scaleH != 1 {
			dzh.Scale(g.scaleH)
		}
		xt := g.xs.Data[t*frame : (t+1)*frame]
		dxt := dx.Data[t*frame : (t+1)*frame]
		for k := 0; k < 3; k++ {
			dzxk := dzx.Data[k*g.aH:]
			dzhk := dzh.Data[k*g.aH:]
			// dWx[gate k] += dzxₖᵀ · x ; dx += dzxₖ · Wx[gate k]
			tensor.Gemm(tensor.GemmOp{TransA: true}, g.aH, g.aIn, g.batch, dzxk, 3*g.aH, xt, g.aIn,
				g.Wx.Grad.Data[k*g.Hidden*g.In:], g.In)
			tensor.Gemm(tensor.GemmOp{}, g.batch, g.aIn, g.aH, dzxk, 3*g.aH,
				g.Wx.Value.Data[k*g.Hidden*g.In:], g.In, dxt, g.aIn)
			// dWh[gate k] += dzhₖᵀ · h_{t-1} ; dh_{t-1} += dzhₖ · Wh[gate k]
			tensor.Gemm(tensor.GemmOp{TransA: true}, g.aH, g.aH, g.batch, dzhk, 3*g.aH, hPrev.Data, g.aH,
				g.Wh.Grad.Data[k*g.Hidden*g.Hidden:], g.Hidden)
			tensor.Gemm(tensor.GemmOp{}, g.batch, g.aH, g.aH, dzhk, 3*g.aH,
				g.Wh.Value.Data[k*g.Hidden*g.Hidden:], g.Hidden, dhPrev.Data, g.aH)
		}
		dhNext = dhPrev
	}
	return dx
}

// Params returns Wx, Wh and both biases.
func (g *GRU) Params() []*Param { return []*Param{g.Wx, g.Wh, g.Bx, g.Bh} }
