package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"modelslicing/internal/tensor"
)

// vggMiniBatch is the shard size the cnn-embedded serving benchmark runs
// VGG13Mini at.
const vggMiniBatch = 24

// BenchmarkGroupNormInfer times the fused GroupNorm→ReLU inference pass at
// VGG13Mini's full-width norm shapes (eight slice groups, so one norm group
// per slice group).
func BenchmarkGroupNormInfer(b *testing.B) {
	for _, s := range []struct{ c, hw int }{{8, 16}, {16, 16}, {32, 8}, {64, 4}} {
		b.Run(fmt.Sprintf("C%d_%dx%d", s.c, s.hw, s.hw), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			g := NewGroupNorm(s.c, 8, Sliced(8), 1e-5)
			x := randTensor(rng, vggMiniBatch, s.c, s.hw, s.hw)
			arena := tensor.NewArena()
			ctx := &Context{Rate: 1, Arena: arena}
			b.SetBytes(int64(8 * len(x.Data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.inferAct(ctx, x, true)
				arena.Reset()
			}
		})
	}
}

// BenchmarkMaxPoolInfer times the 2×2 stride-2 max-pool inference pass at
// VGG13Mini's two pooling shapes.
func BenchmarkMaxPoolInfer(b *testing.B) {
	for _, s := range []struct{ c, hw int }{{16, 16}, {32, 8}} {
		b.Run(fmt.Sprintf("C%d_%dx%d", s.c, s.hw, s.hw), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			p := NewMaxPool2D(2, 2)
			x := randTensor(rng, vggMiniBatch, s.c, s.hw, s.hw)
			arena := tensor.NewArena()
			ctx := &Context{Rate: 1, Arena: arena}
			b.SetBytes(int64(8 * len(x.Data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Infer(ctx, x)
				arena.Reset()
			}
		})
	}
}
