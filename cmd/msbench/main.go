// Command msbench regenerates the paper's tables and figures on the
// synthetic stand-in workloads, and records the engine's performance
// trajectory as machine-readable JSON.
//
// Usage:
//
//	msbench -exp table1 -scale small -seed 42
//	msbench -exp all -scale tiny
//	msbench -list
//	msbench -json                       # write BENCH_<unix>.json perf snapshot
//	msbench -json -out p.json           # write to an explicit path
//	msbench -compare old.json           # regression gate: rerun and diff
//	msbench -compare old.json -slowdown 1.5
//	msbench -json -packed=false         # A/B: pin the unpacked GEMM engine
//
// -compare runs a fresh perf suite, diffs it against a prior BENCH_*.json
// (per-size GEMM ns/op, per-rate shared-path ns/sample) and exits non-zero
// if anything slowed down past the -slowdown factor — the CI regression gate
// for the inference hot path. It composes with -json/-out to also persist
// the fresh snapshot.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"modelslicing/internal/experiments"
	"modelslicing/internal/models"
	"modelslicing/internal/nn"
	"modelslicing/internal/persist"
	"modelslicing/internal/serving"
	"modelslicing/internal/slicing"
	"modelslicing/internal/tensor"
)

func main() {
	exp := flag.String("exp", "", "experiment id (see -list), or 'all'")
	scaleFlag := flag.String("scale", "small", "tiny|small|medium")
	seed := flag.Int64("seed", 42, "random seed")
	list := flag.Bool("list", false, "list available experiments")
	jsonOut := flag.Bool("json", false, "run the perf suite and write a BENCH_*.json snapshot")
	outPath := flag.String("out", "", "output path for -json (default BENCH_<unix>.json)")
	comparePath := flag.String("compare", "", "prior BENCH_*.json to diff a fresh run against; exit 1 past -slowdown")
	slowdown := flag.Float64("slowdown", 1.25, "max tolerated slowdown factor for -compare (new/old ns)")
	packed := flag.Bool("packed", true, "serve through the persistent packed-weight panels; -packed=false pins the unpacked engine")
	tierFlag := flag.String("tier", "exact", "GEMM engine tier for the main perf suite: exact|fma|f32 (exact keeps old baselines comparable)")
	flag.Parse()

	tier, err := tensor.ParseTier(*tierFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "msbench: %v\n", err)
		os.Exit(2)
	}

	if *list {
		for _, id := range experiments.List() {
			fmt.Println(id)
		}
		return
	}
	if *comparePath != "" {
		rep := collectBench(*packed, tier)
		if *jsonOut || *outPath != "" {
			if err := writeBenchJSON(rep, *outPath); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		ok, err := compareBench(os.Stdout, *comparePath, rep, *slowdown)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *jsonOut {
		if err := writeBenchJSON(collectBench(*packed, tier), *outPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	scale, err := experiments.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "msbench: -exp required (or -list / -json)")
		os.Exit(2)
	}
	// Comma-separated ids share one process, so experiments derived from the
	// same trained study (fig5…fig8, table4, table5) reuse its models.
	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = experiments.List()
	}
	for _, id := range ids {
		start := time.Now()
		out, err := experiments.Run(id, scale, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(out)
		fmt.Printf("[%s completed in %.1fs]\n\n", id, time.Since(start).Seconds())
	}
}

// benchReport is the schema of a BENCH_*.json perf snapshot: GEMM kernel
// throughput at a size sweep, and per-rate inference cost of the zero-copy
// serving path versus the Extract deployment path.
type benchReport struct {
	Timestamp  string           `json:"timestamp"`
	GoOS       string           `json:"goos"`
	GoArch     string           `json:"goarch"`
	GoMaxProcs int              `json:"gomaxprocs"`
	Gemm       []gemmPoint      `json:"gemm"`
	Inference  []inferencePoint `json:"inference"`
	// Tier names the engine tier the main suite ran at; empty means exact,
	// so snapshots written before the tier flag existed read back unchanged.
	Tier string `json:"tier,omitempty"`
	// Tiers holds the per-tier sections: a packed 256³ GEMM point and the
	// per-rate shared path on each tier the host supports. Additive —
	// -compare diffs them only when both snapshots carry them.
	Tiers []tierSection `json:"tiers,omitempty"`
	// ColdStart quantifies checkpoint cold start: the legacy copying loader
	// versus the current mmap format, to bind and to first inference.
	// Additive — old snapshots read back unchanged, and -compare reports it
	// informationally without gating (µs-scale syscall timings are too noisy
	// to fail a build over).
	ColdStart *coldStartSection `json:"cold_start,omitempty"`
}

// coldStartSection is the checkpoint cold-start benchmark: one serving-class
// MLP saved in both formats, best-of-N wall time for the legacy v2 copying
// load versus the v3 mmap Open+Bind, alone and through the first full-rate
// single-sample inference (the moment a cold replica starts answering).
type coldStartSection struct {
	Model               string  `json:"model"`
	ParamBytes          int64   `json:"param_bytes"`
	V2LoadNs            float64 `json:"v2_load_ns"`
	V3OpenNs            float64 `json:"v3_open_ns"`
	OpenSpeedup         float64 `json:"open_speedup"`
	V2ToFirstInferNs    float64 `json:"v2_to_first_infer_ns"`
	V3ToFirstInferNs    float64 `json:"v3_to_first_infer_ns"`
	ToFirstInferSpeedup float64 `json:"to_first_infer_speedup"`
}

type gemmPoint struct {
	Size     int     `json:"size"` // square m = n = k
	NsPerOp  float64 `json:"ns_per_op"`
	OpsPerS  float64 `json:"ops_per_s"`
	GFLOPS   float64 `json:"gflops"`
	AllocsOp int64   `json:"allocs_per_op"`
	// PackBytes is the resident packed-operand memory of a packed-GEMM
	// point (tier sections); zero (omitted) in the unpacked main sweep.
	PackBytes int64 `json:"pack_bytes,omitempty"`
}

// tierSection is one engine tier's slice of the perf snapshot.
type tierSection struct {
	Tier      string           `json:"tier"`
	Gemm      []gemmPoint      `json:"gemm"`
	Inference []inferencePoint `json:"inference"`
}

type inferencePoint struct {
	Rate               float64 `json:"rate"`
	NsPerSampleShared  float64 `json:"ns_per_sample_shared"`
	NsPerSampleExtract float64 `json:"ns_per_sample_extract"`
	AllocsOpShared     int64   `json:"allocs_per_op_shared"`
	// P50/P95/P99 are tail percentiles of the shared path's per-sample time
	// over individually timed passes (the mean hides scheduler jitter the
	// serving SLO cares about). Additive fields: older BENCH_*.json baselines
	// stay comparable — the -compare gate only diffs the means.
	P50NsPerSample    float64 `json:"p50_ns_per_sample"`
	P95NsPerSample    float64 `json:"p95_ns_per_sample"`
	P99NsPerSample    float64 `json:"p99_ns_per_sample"`
	SampleTimeSeconds float64 `json:"sample_time_seconds"` // serving calibration of t(r)
	// PackCacheBytes is the shared model's resident weight-pack memory once
	// this rate (and all rates before it in the list) has been served — the
	// O(packs) cost of the elastic widths. Zero under -packed=false.
	PackCacheBytes int64 `json:"pack_cache_bytes"`
}

// collectBench runs the perf suite with the testing harness and returns the
// snapshot. With packed false, every Shared pins the unpacked engine. The
// main suite runs at the given tier (exact by default, so old baselines stay
// comparable); the per-tier sections always sweep every tier the host
// supports.
func collectBench(packed bool, tier tensor.EngineTier) benchReport {
	rep := benchReport{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	if tier != tensor.TierExact {
		rep.Tier = tier.String()
	}

	for _, n := range []int{64, 128, 256, 512} {
		rng := rand.New(rand.NewSource(1))
		a := make([]float64, n*n)
		bm := make([]float64, n*n)
		c := make([]float64, n*n)
		for i := range a {
			a[i], bm[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tensor.Gemm(tensor.GemmOp{Tier: tier}, n, n, n, a, n, bm, n, c, n)
			}
		})
		ns := float64(r.NsPerOp())
		rep.Gemm = append(rep.Gemm, gemmPoint{
			Size:     n,
			NsPerOp:  ns,
			OpsPerS:  1e9 / ns,
			GFLOPS:   2 * float64(n) * float64(n) * float64(n) / ns,
			AllocsOp: r.AllocsPerOp(),
		})
	}

	// Per-rate inference on the benchmark CNN (same model family as the
	// repo's bench_test.go), batch 8, via the zero-copy shared path and the
	// Extract deployment path.
	const batch = 8
	rng := rand.New(rand.NewSource(4))
	model, _ := models.NewVGG(models.VGG13Mini(4, models.NormGroup, 1), rng)
	rates := slicing.NewRateList(0.25, 4)
	shared := slicing.NewShared(model, rates)
	shared.SetPacked(packed)
	shared.SetTier(tier)
	x := tensor.New(batch, 3, 16, 16)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for _, rate := range rates {
		arena := tensor.NewArena()
		shared.Infer(rate, x, arena)
		arena.Reset()
		rs := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				shared.Infer(rate, x, arena)
				arena.Reset()
			}
		})
		sub := slicing.Extract(model, rate, rates)
		subShared := slicing.NewShared(sub, slicing.NewRateList(1, 1))
		subShared.SetPacked(packed)
		subShared.SetTier(tier)
		subShared.Infer(1, x, arena)
		arena.Reset()
		re := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				subShared.Infer(1, x, arena)
				arena.Reset()
			}
		})
		p50, p95, p99 := inferPercentiles(shared, rate, x, arena, batch)
		rep.Inference = append(rep.Inference, inferencePoint{
			Rate:               rate,
			NsPerSampleShared:  float64(rs.NsPerOp()) / batch,
			NsPerSampleExtract: float64(re.NsPerOp()) / batch,
			AllocsOpShared:     rs.AllocsPerOp(),
			P50NsPerSample:     p50,
			P95NsPerSample:     p95,
			P99NsPerSample:     p99,
			PackCacheBytes:     shared.PackCacheBytes(),
		})
	}
	// Calibrate t(r) only after the per-rate loop: MeasureSharedSampleTimes
	// serves every rate, which would pre-build every width's pack and turn
	// the per-rate PackCacheBytes column into a flat all-rates total.
	sampleTime := serving.MeasureSharedSampleTimes(shared, []int{3, 16, 16}, batch)
	for i := range rep.Inference {
		rep.Inference[i].SampleTimeSeconds = sampleTime(rep.Inference[i].Rate)
	}
	rep.Tiers = collectTierSections(packed)
	rep.ColdStart = collectColdStart()
	return rep
}

// collectColdStart saves one serving-class MLP (the msserver demo family,
// scaled to a realistic parameter count) in both checkpoint formats and times
// the two cold-start paths best-of-N: the legacy v2 copying loader versus the
// v3 mmap Open+Bind, each alone and through the first full-rate inference.
// Returns nil (section omitted) if scratch files cannot be written.
func collectColdStart() *coldStartSection {
	const gran = 4
	rates := slicing.NewRateList(0.25, gran)
	newModel := func() nn.Layer {
		return models.NewMLP(256, []int{256, 256}, 10, gran, rand.New(rand.NewSource(7)))
	}
	dir, err := os.MkdirTemp("", "msbench-coldstart")
	if err != nil {
		return nil
	}
	defer os.RemoveAll(dir)
	src := newModel()
	v2Path := filepath.Join(dir, "m.v2.ckpt")
	v3Path := filepath.Join(dir, "m.v3.ckpt")
	if persist.SaveV2(v2Path, src.Params()) != nil || persist.SaveEpoch(v3Path, src.Params(), 1) != nil {
		return nil
	}
	sec := &coldStartSection{Model: "mlp 256-256-256-10"}
	for _, p := range src.Params() {
		sec.ParamBytes += int64(8 * len(p.Value.Data))
	}

	x := tensor.New(1, 256)
	rng := rand.New(rand.NewSource(8))
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	arena := tensor.NewArena()
	// The first inference runs at the lower-bound rate: the conservative
	// width a cold replica's first window can always serve, and the narrow
	// slice keeps the measurement about checkpoint I/O rather than the
	// full-width pack build both paths pay identically.
	firstInfer := func(m nn.Layer) {
		slicing.NewShared(m, rates).Infer(rates.Min(), x, arena)
		arena.Reset()
	}

	const runs = 7
	best := func(f func() (load, total time.Duration, err error)) (bl, bt float64, ok bool) {
		bl, bt = math.MaxFloat64, math.MaxFloat64
		for i := 0; i < runs; i++ {
			l, t, err := f()
			if err != nil {
				return 0, 0, false
			}
			bl = math.Min(bl, float64(l.Nanoseconds()))
			bt = math.Min(bt, float64(t.Nanoseconds()))
		}
		return bl, bt, true
	}
	var ok bool
	sec.V2LoadNs, sec.V2ToFirstInferNs, ok = best(func() (time.Duration, time.Duration, error) {
		m := newModel()
		start := time.Now()
		if err := persist.Load(v2Path, m.Params()); err != nil {
			return 0, 0, err
		}
		load := time.Since(start)
		firstInfer(m)
		return load, time.Since(start), nil
	})
	if !ok {
		return nil
	}
	sec.V3OpenNs, sec.V3ToFirstInferNs, ok = best(func() (time.Duration, time.Duration, error) {
		m := newModel()
		start := time.Now()
		ck, err := persist.Open(v3Path)
		if err != nil {
			return 0, 0, err
		}
		if err := ck.Bind(m.Params()); err != nil {
			ck.Close()
			return 0, 0, err
		}
		open := time.Since(start)
		firstInfer(m)
		total := time.Since(start)
		// The bound tensors alias the mapping; nothing touches them past the
		// measurement, so the scratch mapping can go.
		ck.Close()
		return open, total, nil
	})
	if !ok {
		return nil
	}
	sec.OpenSpeedup = sec.V2LoadNs / sec.V3OpenNs
	sec.ToFirstInferSpeedup = sec.V2ToFirstInferNs / sec.V3ToFirstInferNs
	return sec
}

// collectTierSections measures every engine tier the host supports: one
// packed 256³ GEMM point (the tiers' kernel-level throughput ladder) and the
// per-rate zero-copy inference path, each tier on a fresh model so the
// reported pack bytes isolate that tier's pack precision.
func collectTierSections(packed bool) []tierSection {
	tiers := []tensor.EngineTier{tensor.TierExact}
	if tensor.HasFMA() {
		tiers = append(tiers, tensor.TierFMA, tensor.TierF32)
	}
	const batch = 8
	var out []tierSection
	for _, tier := range tiers {
		sec := tierSection{Tier: tier.String()}

		// Packed 256³ GEMM: the exact and fma engines stream the shared f64
		// panels, the f32 engine its scaled-float32 panels.
		const n = 256
		rng := rand.New(rand.NewSource(1))
		a := make([]float64, n*n)
		bt := make([]float64, n*n)
		c := make([]float64, n*n)
		for i := range a {
			a[i], bt[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		var pb tensor.Packed
		if tier == tensor.TierF32 {
			pb = tensor.PackTB32(n, n, bt, n)
		} else {
			pb = tensor.PackTB(n, n, bt, n)
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tensor.Gemm(tensor.GemmOp{Tier: tier, TransB: true, Assign: true, PackB: pb}, n, n, n, a, n, nil, 0, c, n)
			}
		})
		ns := float64(r.NsPerOp())
		sec.Gemm = append(sec.Gemm, gemmPoint{
			Size:      n,
			NsPerOp:   ns,
			OpsPerS:   1e9 / ns,
			GFLOPS:    2 * float64(n) * float64(n) * float64(n) / ns,
			AllocsOp:  r.AllocsPerOp(),
			PackBytes: int64(pb.Bytes()),
		})

		// Per-rate inference on a fresh benchmark CNN at this tier.
		mrng := rand.New(rand.NewSource(4))
		model, _ := models.NewVGG(models.VGG13Mini(4, models.NormGroup, 1), mrng)
		rates := slicing.NewRateList(0.25, 4)
		shared := slicing.NewShared(model, rates)
		shared.SetPacked(packed)
		shared.SetTier(tier)
		x := tensor.New(batch, 3, 16, 16)
		for i := range x.Data {
			x.Data[i] = mrng.NormFloat64()
		}
		arena := tensor.NewArena()
		for _, rate := range rates {
			shared.Infer(rate, x, arena)
			arena.Reset()
			rs := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					shared.Infer(rate, x, arena)
					arena.Reset()
				}
			})
			sec.Inference = append(sec.Inference, inferencePoint{
				Rate:              rate,
				NsPerSampleShared: float64(rs.NsPerOp()) / batch,
				AllocsOpShared:    rs.AllocsPerOp(),
				PackCacheBytes:    shared.PackCacheBytes(),
			})
		}
		out = append(out, sec)
	}
	return out
}

// inferPercentiles times individual passes and returns nearest-rank
// p50/p95/p99 of the per-sample time in nanoseconds. 96 runs put two runs
// past the p99 rank — enough to make the tail a measurement, not an echo of
// the maximum.
func inferPercentiles(shared *slicing.Shared, rate float64, x *tensor.Tensor, arena *tensor.Arena, batch int) (p50, p95, p99 float64) {
	const runs = 96
	samples := make([]float64, runs)
	for i := range samples {
		start := time.Now()
		shared.Infer(rate, x, arena)
		samples[i] = float64(time.Since(start).Nanoseconds()) / float64(batch)
		arena.Reset()
	}
	sort.Float64s(samples)
	rank := func(q float64) float64 {
		i := int(math.Ceil(q*runs)) - 1
		return samples[min(max(i, 0), runs-1)]
	}
	return rank(0.50), rank(0.95), rank(0.99)
}

// writeBenchJSON persists a snapshot; path defaults to BENCH_<unix>.json in
// the working directory.
func writeBenchJSON(rep benchReport, path string) error {
	if path == "" {
		path = fmt.Sprintf("BENCH_%d.json", time.Now().Unix())
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println(path)
	return nil
}

// compareBench diffs a fresh report against a prior snapshot, writing a
// per-metric table to w, and reports whether every matched metric stayed
// within the slowdown factor (new ns ≤ old ns · slowdown). Metrics present
// on only one side (a new GEMM size, a changed rate list) are reported but
// never fail the gate.
func compareBench(w io.Writer, oldPath string, fresh benchReport, slowdown float64) (ok bool, err error) {
	data, err := os.ReadFile(oldPath)
	if err != nil {
		return false, fmt.Errorf("msbench: -compare: %w", err)
	}
	var old benchReport
	if err := json.Unmarshal(data, &old); err != nil {
		return false, fmt.Errorf("msbench: -compare %s: %w", oldPath, err)
	}
	if slowdown <= 0 {
		return false, fmt.Errorf("msbench: -slowdown must be positive, got %v", slowdown)
	}

	ok = true
	fmt.Fprintf(w, "comparing against %s (recorded %s, %s/%s, GOMAXPROCS %d)\n",
		oldPath, old.Timestamp, old.GoOS, old.GoArch, old.GoMaxProcs)
	fmt.Fprintf(w, "%-28s %14s %14s %8s\n", "metric", "old", "new", "ratio")
	row := func(name string, oldNs, newNs float64) {
		ratio := newNs / oldNs
		verdict := ""
		if ratio > slowdown {
			verdict = "  REGRESSION"
			ok = false
		}
		fmt.Fprintf(w, "%-28s %12.0fns %12.0fns %7.2fx%s\n", name, oldNs, newNs, ratio, verdict)
	}
	oldGemm := make(map[int]gemmPoint, len(old.Gemm))
	for _, g := range old.Gemm {
		oldGemm[g.Size] = g
	}
	matchedGemm := make(map[int]bool, len(fresh.Gemm))
	for _, g := range fresh.Gemm {
		matchedGemm[g.Size] = true
		og, found := oldGemm[g.Size]
		if !found || og.NsPerOp <= 0 {
			fmt.Fprintf(w, "%-28s %14s %12.0fns\n", fmt.Sprintf("gemm %d (no baseline)", g.Size), "-", g.NsPerOp)
			continue
		}
		row(fmt.Sprintf("gemm %d³ ns/op", g.Size), og.NsPerOp, g.NsPerOp)
	}
	for _, g := range old.Gemm {
		if !matchedGemm[g.Size] {
			fmt.Fprintf(w, "%-28s %12.0fns %14s\n", fmt.Sprintf("gemm %d (removed)", g.Size), g.NsPerOp, "-")
		}
	}
	oldInf := make(map[float64]inferencePoint, len(old.Inference))
	for _, p := range old.Inference {
		oldInf[p.Rate] = p
	}
	matchedInf := make(map[float64]bool, len(fresh.Inference))
	for _, p := range fresh.Inference {
		matchedInf[p.Rate] = true
		op, found := oldInf[p.Rate]
		if !found || op.NsPerSampleShared <= 0 {
			fmt.Fprintf(w, "%-28s %14s %12.0fns\n", fmt.Sprintf("rate %.2f (no baseline)", p.Rate), "-", p.NsPerSampleShared)
			continue
		}
		row(fmt.Sprintf("rate %.2f ns/sample", p.Rate), op.NsPerSampleShared, p.NsPerSampleShared)
	}
	for _, p := range old.Inference {
		if !matchedInf[p.Rate] {
			fmt.Fprintf(w, "%-28s %12.0fns %14s\n", fmt.Sprintf("rate %.2f (removed)", p.Rate), p.NsPerSampleShared, "-")
		}
	}
	// Tier sections are additive: snapshots written before they existed (or
	// on hosts with a different tier ladder) simply skip this block — only
	// tiers present on both sides are gated.
	oldTiers := make(map[string]tierSection, len(old.Tiers))
	for _, ts := range old.Tiers {
		oldTiers[ts.Tier] = ts
	}
	for _, ts := range fresh.Tiers {
		ots, found := oldTiers[ts.Tier]
		if !found {
			continue
		}
		og := make(map[int]gemmPoint, len(ots.Gemm))
		for _, g := range ots.Gemm {
			og[g.Size] = g
		}
		for _, g := range ts.Gemm {
			if o, hit := og[g.Size]; hit && o.NsPerOp > 0 {
				row(fmt.Sprintf("tier %s gemm %d³ ns/op", ts.Tier, g.Size), o.NsPerOp, g.NsPerOp)
			}
		}
		oi := make(map[float64]inferencePoint, len(ots.Inference))
		for _, p := range ots.Inference {
			oi[p.Rate] = p
		}
		for _, p := range ts.Inference {
			if o, hit := oi[p.Rate]; hit && o.NsPerSampleShared > 0 {
				row(fmt.Sprintf("tier %s rate %.2f ns/sample", ts.Tier, p.Rate), o.NsPerSampleShared, p.NsPerSampleShared)
			}
		}
	}
	// Cold start is informational only: the timings are µs-scale syscall
	// measurements whose jitter would make the gate cry wolf.
	if old.ColdStart != nil && fresh.ColdStart != nil {
		fmt.Fprintf(w, "%-28s %12.0fns %12.0fns %7.2fx  (info)\n", "cold start: v3 open",
			old.ColdStart.V3OpenNs, fresh.ColdStart.V3OpenNs, fresh.ColdStart.V3OpenNs/old.ColdStart.V3OpenNs)
		fmt.Fprintf(w, "%-28s %12.0fns %12.0fns %7.2fx  (info)\n", "cold start: v3 first infer",
			old.ColdStart.V3ToFirstInferNs, fresh.ColdStart.V3ToFirstInferNs,
			fresh.ColdStart.V3ToFirstInferNs/old.ColdStart.V3ToFirstInferNs)
	}
	if ok {
		fmt.Fprintf(w, "OK: no metric slowed past %.2fx\n", slowdown)
	} else {
		fmt.Fprintf(w, "FAIL: slowdown past %.2fx detected\n", slowdown)
	}
	return ok, nil
}
