package core

import (
	"errors"
	"math/rand"

	"repro/internal/dist"
	"repro/internal/setsystem"
)

// The ablation variants isolate the two design choices randPr's analysis
// rests on: priorities must be (a) persistent across a set's lifetime and
// (b) randomized with the weight-sensitive law R_w. RedrawRandPr breaks
// (a); DetWeightPriority breaks (b). The ablation experiment shows each
// break costing real benefit, which is the empirical argument for the
// algorithm as published.

// RedrawRandPr is randPr with amnesia: it re-draws every parent's priority
// independently at every element instead of fixing r(S) once. Lemma 1
// fails for it — a set must win |S| independent lotteries, so its survival
// probability decays with its size — and the experiments show it
// collapsing toward UniformRandom.
type RedrawRandPr struct {
	weights []float64
	rng     *rand.Rand
	buf     []setsystem.SetID
	state   *VectorState
}

var _ Algorithm = (*RedrawRandPr)(nil)

// Name implements Algorithm.
func (a *RedrawRandPr) Name() string { return "redrawRandPr" }

// Reset implements Algorithm.
func (a *RedrawRandPr) Reset(info Info, rng *rand.Rand) error {
	if rng == nil {
		return errors.New("core: redrawRandPr needs a random source")
	}
	a.weights = info.Weights
	a.rng = rng
	a.state = a.state.resized(info.NumSets())
	return nil
}

// Choose implements Algorithm: fresh R_w priorities for this element only.
func (a *RedrawRandPr) Choose(ev ElementView) []setsystem.SetID {
	for _, s := range ev.Members {
		a.state.put(int(s), dist.Sample(a.rng, a.weights[s]))
	}
	return a.state.choose(ev, false, &a.buf)
}

// DetWeightPriority is randPr derandomized the naive way: the priority of
// a set is its weight (ties to lower SetID). Persistent and
// weight-sensitive, but deterministic — so Theorem 3's adversary defeats
// it, and on unweighted instances it degenerates to first-listed.
type DetWeightPriority struct {
	state *VectorState
	buf   []setsystem.SetID
}

var _ Algorithm = (*DetWeightPriority)(nil)

// Name implements Algorithm.
func (a *DetWeightPriority) Name() string { return "detWeightPriority" }

// Reset implements Algorithm.
func (a *DetWeightPriority) Reset(info Info, _ *rand.Rand) error {
	a.state = NewVectorState(info.Weights)
	return nil
}

// Choose implements Algorithm.
func (a *DetWeightPriority) Choose(ev ElementView) []setsystem.SetID {
	return a.state.choose(ev, false, &a.buf)
}
