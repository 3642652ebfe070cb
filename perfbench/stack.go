package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"modelslicing/internal/fleet"
	"modelslicing/internal/models"
	"modelslicing/internal/nn"
	"modelslicing/internal/persist"
	"modelslicing/internal/server"
	"modelslicing/internal/slicing"
	"modelslicing/internal/tensor"
)

// Serving settings shared by every workload: the msserver defaults (SLO,
// rate list, worker count) on the exact engine tier.
const (
	slo         = 50 * time.Millisecond
	tier        = "exact"
	lowerBound  = 0.25
	granularity = 4
	poolSize    = 64
	// clientTimeout bounds one HTTP query; a reply slower than this is
	// counted as an error.
	clientTimeout = 40 * slo
	// oracleTol is the repo's output oracle bound, relative for |ref| > 1.
	oracleTol = 1e-12
)

var rates = slicing.NewRateList(lowerBound, granularity)

// modelKind is one served architecture.
type modelKind struct {
	name       string
	inputShape []int
	build      func(rng *rand.Rand) *nn.Sequential
}

var (
	vgg = modelKind{"VGG13Mini", []int{3, 16, 16}, func(rng *rand.Rand) *nn.Sequential {
		net, _ := models.NewVGG(models.VGG13Mini(granularity, models.NormGroup, len(rates)), rng)
		return net
	}}
	mlp = modelKind{"MLP 64-64-64-8", []int{64}, func(rng *rand.Rand) *nn.Sequential {
		return models.NewMLP(64, []int{64, 64}, 8, granularity, rng)
	}}
)

func (m modelKind) inputLen() int {
	n := 1
	for _, d := range m.inputShape {
		n *= d
	}
	return n
}

// writeCheckpoint saves the weights the seed determines as a v3 checkpoint.
func writeCheckpoint(path string, m modelKind, seed int64) error {
	if err := persist.Save(path, m.build(newRand(seed)).Params()); err != nil {
		return fmt.Errorf("write checkpoint: %w", err)
	}
	return nil
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// openBind builds the architecture and binds it to the checkpoint at path,
// the way msserver loads a model. The build's initial weights are replaced
// by the mapping, so its rng does not matter.
func openBind(path string, m modelKind) (*persist.Checkpoint, *nn.Sequential, time.Duration, error) {
	net := m.build(newRand(1))
	start := time.Now()
	ckpt, err := persist.Open(path)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := ckpt.Bind(net.Params()); err != nil {
		ckpt.Close()
		return nil, nil, 0, err
	}
	return ckpt, net, time.Since(start), nil
}

// pool is the set of inputs queries carry, with their pre-encoded
// /predict bodies so the generator spends no time encoding.
type pool struct {
	inputs [][]float64
	bodies [][]byte
}

func newPool(seed int64, m modelKind) (*pool, error) {
	rng := newRand(seed + 1)
	p := &pool{}
	for i := 0; i < poolSize; i++ {
		in := make([]float64, m.inputLen())
		for j := range in {
			in[j] = rng.NormFloat64()
		}
		body, err := json.Marshal(server.PredictRequest{Input: in})
		if err != nil {
			return nil, err
		}
		p.inputs = append(p.inputs, in)
		p.bodies = append(p.bodies, body)
	}
	return p, nil
}

// oracle holds the reference output of every pooled input at every rate,
// computed through Shared.Infer one sample at a time before any load runs.
type oracle struct {
	ref [][][]float64 // [input][rate index]
}

func newOracle(path string, m modelKind, p *pool) (*oracle, error) {
	ckpt, net, _, err := openBind(path, m)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	defer ckpt.Close()
	shared, err := newShared(net)
	if err != nil {
		return nil, err
	}
	o := &oracle{}
	shape := append([]int{1}, m.inputShape...)
	for _, in := range p.inputs {
		var outs [][]float64
		for _, r := range rates {
			y := shared.Infer(r, tensor.FromSlice(append([]float64(nil), in...), shape...), nil)
			outs = append(outs, append([]float64(nil), y.Data...))
		}
		o.ref = append(o.ref, outs)
	}
	return o, nil
}

func newShared(net nn.Layer) (*slicing.Shared, error) {
	t, err := tensor.ParseTier(tier)
	if err != nil {
		return nil, err
	}
	s := slicing.NewShared(net, rates)
	s.SetTier(t)
	return s, nil
}

// check compares one served output against the reference at the rate the
// server reports it was served at.
func (o *oracle) check(input int, rate float64, out []float64) outcome {
	i, err := rates.Index(rate)
	if err != nil {
		return outWrong
	}
	ref := o.ref[input][i]
	if len(out) != len(ref) {
		return outWrong
	}
	for j, v := range out {
		if math.Abs(v-ref[j]) > oracleTol*max(1, math.Abs(ref[j])) {
			return outWrong
		}
	}
	return outOK
}

// front is how queries reach the serving stack.
type front int

const (
	frontEmbedded front = iota // Server.Submit in-process
	frontHTTP                  // one server's Handler over h2c
	frontFleet                 // coordinator's Handler over h2c, replicas over HTTP/1.1
)

// replica is one live server with the checkpoint it serves from.
type replica struct {
	ckpt *persist.Checkpoint
	srv  *server.Server
	// t0 is the calibrated t(r) right after server.New.
	t0 map[float64]float64
	// hs serves the replica's Handler on ln (nil for the embedded front).
	hs  *http.Server
	ln  *countingListener
	tap *serverTap
}

// stack is one set-up serving system and the client that drives it.
type stack struct {
	w        workload
	pool     *pool
	oracle   *oracle
	replicas []*replica
	coord    *fleet.Coordinator
	coordTap *coordTap
	frontHS  *http.Server
	frontLn  *countingListener
	client   *http.Client
	clientTr *http.Transport
	url      string
	serving  sync.WaitGroup // Serve goroutines
	closing  sync.Once
	// traced switches the taps on; only set in --trace 1 runs.
	traced atomic.Bool

	openBind []time.Duration
	newTime  []time.Duration
	setup    time.Duration
}

// h2c is the protocol set of the benchmark's front: HTTP/2 without TLS, so
// a few client connections carry hundreds of queries in flight.
func h2c() *http.Protocols {
	var p http.Protocols
	p.SetUnencryptedHTTP2(true)
	return &p
}

// h2cServer serves h to the benchmark's client over h2c (HTTP/1.1 too), with
// room for thousands of concurrent streams on one connection.
func h2cServer(h http.Handler) *http.Server {
	p := h2c()
	p.SetHTTP1(true)
	return &http.Server{Handler: h, Protocols: p,
		HTTP2: &http.HTTP2Config{MaxConcurrentStreams: 1 << 12, MaxReceiveBufferPerConnection: 2 << 20}}
}

// setupStack brings up the workload's serving system from the checkpoint
// and returns once a first query has been answered. tapped installs the
// tracing wrappers (switched off until traced is set).
func setupStack(w workload, path string, p *pool, o *oracle, tapped bool) (*stack, error) {
	s := &stack{w: w, pool: p, oracle: o}
	start := time.Now()
	if err := s.start(path, tapped); err != nil {
		s.close()
		return nil, err
	}
	if r := s.send(arrival{}, time.Now()); r.out != outOK {
		s.close()
		return nil, fmt.Errorf("%s: first query failed (outcome %d)", w.name, r.out)
	}
	s.setup = time.Since(start)
	return s, nil
}

func (s *stack) start(path string, tapped bool) error {
	for i := 0; i < s.w.replicas; i++ {
		ckpt, net, ob, err := openBind(path, s.w.model)
		if err != nil {
			return err
		}
		s.openBind = append(s.openBind, ob)
		t := time.Now()
		srv, err := server.New(server.Config{
			Model: net, Rates: rates, InputShape: s.w.model.inputShape, SLO: slo, Tier: tier,
		})
		if err != nil {
			ckpt.Close()
			return err
		}
		s.newTime = append(s.newTime, time.Since(t))
		rep := &replica{ckpt: ckpt, srv: srv, t0: srv.Calibrator().Snapshot()}
		s.replicas = append(s.replicas, rep)
		if s.w.front == frontEmbedded {
			continue
		}
		var h http.Handler = srv.Handler()
		if tapped {
			rep.tap = newServerTap(h, &s.traced)
			h = rep.tap
		}
		rep.hs = &http.Server{Handler: h}
		if s.w.front == frontHTTP {
			rep.hs = h2cServer(h)
		}
		if rep.ln, err = s.listen(rep.hs); err != nil {
			return err
		}
		if s.w.front == frontHTTP {
			s.frontHS, s.frontLn = rep.hs, rep.ln
		}
	}
	if s.w.front == frontFleet {
		cfg := fleet.Config{SLO: slo}
		if tapped {
			cfg.Transport = idTransport{inner: &fleet.Transport{}}
		}
		coord, err := fleet.New(cfg)
		if err != nil {
			return err
		}
		s.coord = coord
		for _, r := range s.replicas {
			if err := coord.AddReplica("http://" + r.ln.Addr().String()); err != nil {
				return err
			}
		}
		var h http.Handler = coord.Handler()
		if tapped {
			s.coordTap = &coordTap{h: h, on: &s.traced}
			for _, r := range s.replicas {
				s.coordTap.replicas = append(s.coordTap.replicas, r.tap)
			}
			h = s.coordTap
		}
		s.frontHS = h2cServer(h)
		if s.frontLn, err = s.listen(s.frontHS); err != nil {
			return err
		}
	}
	if s.frontLn != nil {
		// At most nproc client connections; h2c multiplexes the queries.
		s.clientTr = &http.Transport{Protocols: h2c(), MaxConnsPerHost: runtime.NumCPU(),
			HTTP2: &http.HTTP2Config{MaxConcurrentStreams: 1 << 12}}
		s.client = &http.Client{Transport: s.clientTr}
		s.url = "http://" + s.frontLn.Addr().String() + "/predict"
	}
	return nil
}

// listen serves hs on a fresh loopback port.
func (s *stack) listen(hs *http.Server) (*countingListener, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ln := &countingListener{Listener: l}
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		_ = hs.Serve(ln) // returns ErrServerClosed once close shuts it down
	}()
	return ln, nil
}

// close tears the stack down and waits for its servers to exit. Calls after
// the first do nothing.
func (s *stack) close() { s.closing.Do(s.teardown) }

func (s *stack) teardown() {
	if s.clientTr != nil {
		s.clientTr.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	shutdown := func(hs *http.Server) {
		if hs.Shutdown(ctx) != nil {
			_ = hs.Close() // drain timed out; force the connections closed
		}
	}
	if s.frontHS != nil && s.w.front == frontFleet {
		shutdown(s.frontHS)
	}
	if s.coord != nil {
		s.coord.Stop()
	}
	for _, r := range s.replicas {
		if r.hs != nil {
			shutdown(r.hs)
		}
		r.srv.Stop()
		r.ckpt.Close()
	}
	s.serving.Wait()
}

func (s *stack) send(a arrival, due time.Time) record {
	if s.w.front == frontEmbedded {
		return s.sendEmbedded(a, due)
	}
	return s.sendHTTP(a, due)
}

func (s *stack) sendEmbedded(a arrival, due time.Time) record {
	start := time.Now()
	rec := record{late: start.Sub(due)}
	ch, err := s.replicas[0].srv.Submit(tensor.FromSlice(s.pool.inputs[a.input], s.w.model.inputShape...))
	if err != nil {
		rec.latency = time.Since(due)
		rec.out = outError
		if errors.Is(err, server.ErrOverloaded) {
			rec.out = outShed
		}
		return rec
	}
	res := <-ch
	end := time.Now()
	rec.latency = end.Sub(due)
	if res.Err != nil {
		rec.out = outError
		return rec
	}
	rec.rate, rec.server, rec.front = res.Rate, res.Latency, end.Sub(start)
	rec.stages = [4]time.Duration{res.Queued, res.Dispatch, res.Compute, res.Settle}
	rec.out = s.oracle.check(a.input, res.Rate, res.Output.Data)
	return rec
}

func (s *stack) sendHTTP(a arrival, due time.Time) record {
	start := time.Now()
	rec := record{late: start.Sub(due), out: outError}
	ctx, cancel := context.WithTimeout(context.Background(), clientTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url, bytes.NewReader(s.pool.bodies[a.input]))
	if err != nil {
		rec.latency = time.Since(due)
		return rec
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		rec.latency = time.Since(due)
		return rec
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.latency = time.Since(due)
	if err != nil {
		return rec
	}
	switch resp.StatusCode {
	case http.StatusServiceUnavailable:
		rec.out = outShed
		return rec
	case http.StatusOK:
	default:
		return rec
	}
	var pr server.PredictResponse
	if json.Unmarshal(body, &pr) != nil {
		return rec
	}
	msDur := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	rec.rate, rec.server = pr.Rate, msDur(pr.LatencyMs)
	if st := pr.Stages; st != nil {
		rec.stages = [4]time.Duration{msDur(st.QueuedMs), msDur(st.DispatchMs), msDur(st.ComputeMs), msDur(st.SettleMs)}
	}
	rec.out = s.oracle.check(a.input, pr.Rate, pr.Output)
	return rec
}
