package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkIm2ColInto times the whole-batch 3×3, pad-1 lowering at
// VGG13Mini's full-width convolution inputs: one band per sample of a
// 24-sample shard, side by side as the wide conv path lays them out.
func BenchmarkIm2ColInto(b *testing.B) {
	const batch = 24
	for _, s := range []struct{ c, hw int }{{3, 16}, {8, 16}, {16, 16}, {16, 8}, {32, 8}, {32, 4}, {64, 4}} {
		b.Run(fmt.Sprintf("C%d_%dx%d", s.c, s.hw, s.hw), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			spatial := s.hw * s.hw
			src := randSlice(batch*s.c*spatial, rng)
			ldcol := batch * spatial
			col := make([]float64, s.c*9*ldcol)
			b.SetBytes(int64(8 * len(col)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for bb := 0; bb < batch; bb++ {
					Im2ColInto(src[bb*s.c*spatial:(bb+1)*s.c*spatial], s.c, s.hw, s.hw, 3, 3, 1, 1, col, ldcol, bb*spatial)
				}
			}
		})
	}
}
