package main

import (
	"math/rand/v2"

	"github.com/datastates/mlpoffload"
)

// inputs are a workload's seeded inputs, generated before any timer
// starts.
//
// Both vectors are drawn from normal distributions because the codec's
// ratio depends on them. On a 4M-parameter shard, flate+crc compresses
// the initial offload of zero-initialised state about 800x, against 3.4x
// for N(0, 0.02) state, which would make set-up and the first iterations
// unrealistically cheap; after a few updates either state compresses
// about 1.3x.
type inputs struct {
	init  []float32 // initial master parameters, N(0, 0.02)
	noise []float32 // gradient noise, N(0, 1e-3)
}

func newInputs(seed uint64, params int64) *inputs {
	rng := rand.New(rand.NewPCG(seed, 0x6d6c706f66666c64))
	in := &inputs{init: make([]float32, params), noise: make([]float32, params)}
	for i := range in.init {
		in.init[i] = float32(rng.NormFloat64() * 0.02)
	}
	for i := range in.noise {
		in.noise[i] = float32(rng.NormFloat64() * 1e-3)
	}
	return in
}

func (in *inputs) initParam(i int64) float32 { return in.init[i] }

// grad stands in for the GPU's backward pass: a weight-decay-like term on
// the FP16 working copy, so every iteration's gradient depends on the
// state the engine offloaded and fetched back, plus the noise vector
// rotated by an iteration-dependent offset.
func (in *inputs) grad(iter int, p16 []mlpoffload.FP16, out []float32) error {
	mlpoffload.DecodeFP16(out, p16)
	n := len(in.noise)
	shift := (iter*1_000_003 + 1) % n
	head, tail := in.noise[shift:], in.noise[:shift]
	for i, g := range head {
		out[i] = 0.01*out[i] + g
	}
	for i, g := range tail {
		out[len(head)+i] = 0.01*out[len(head)+i] + g
	}
	return nil
}
