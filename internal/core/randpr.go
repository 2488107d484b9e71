package core

import (
	"errors"
	"math/rand"

	"repro/internal/dist"
	"repro/internal/hashpr"
	"repro/internal/setsystem"
)

// RandPr is the paper's randomized algorithm (Section 3.1): before the run
// each set S draws a priority r(S) ~ R_{w(S)}, and each arriving element u
// is assigned to the b(u) parents with the highest priorities — regardless
// of whether those parents are still completable. This faithful version is
// the one the competitive analysis (Theorem 1, Theorem 4) applies to.
//
// Set ActiveOnly to restrict choices to still-completable parents; this is
// a practical refinement (never worse pointwise) used for the ablation
// experiment, not the analyzed algorithm.
type RandPr struct {
	// ActiveOnly, when set, skips parents that are already incompletable.
	ActiveOnly bool

	state *VectorState
	buf   []setsystem.SetID
}

var _ Algorithm = (*RandPr)(nil)

// Name implements Algorithm.
func (a *RandPr) Name() string {
	if a.ActiveOnly {
		return "randPr+active"
	}
	return "randPr"
}

// Reset draws fresh priorities r(S) ~ R_{w(S)} for every set.
func (a *RandPr) Reset(info Info, rng *rand.Rand) error {
	if rng == nil {
		return errors.New("core: randPr needs a random source")
	}
	a.state = a.state.resized(info.NumSets())
	for i, w := range info.Weights {
		a.state.put(i, dist.Sample(rng, w))
	}
	return nil
}

// Choose implements Algorithm: the b(u) highest-priority parents.
func (a *RandPr) Choose(ev ElementView) []setsystem.SetID {
	return a.state.choose(ev, a.ActiveOnly, &a.buf)
}

// Priority returns the priority drawn for set id in the current run,
// exposed for white-box tests.
func (a *RandPr) Priority(id setsystem.SetID) float64 { return a.state.priority(int(id)) }

// HashRandPr is the distributed implementation of randPr sketched in
// Section 3.1: instead of storing per-set random priorities, every server
// derives the priority of set S from a shared hash function applied to S's
// identifier, mapped through the R_{w(S)} inverse transform. Servers
// sharing the hasher agree on every priority with zero coordination.
type HashRandPr struct {
	// Hasher maps set identifiers to uniform [0,1) variates. Both
	// hashpr.Mixer and *hashpr.PolyFamily satisfy the interface.
	Hasher hashpr.UniformHasher
	// ActiveOnly mirrors RandPr.ActiveOnly.
	ActiveOnly bool

	state *VectorState
	buf   []setsystem.SetID
}

var _ Algorithm = (*HashRandPr)(nil)

// Name implements Algorithm.
func (a *HashRandPr) Name() string { return "hashRandPr" }

// Reset computes the hash-derived priority of every set. The rng parameter
// is unused: all randomness comes from the hasher, exactly as in the
// distributed setting.
func (a *HashRandPr) Reset(info Info, _ *rand.Rand) error {
	if a.Hasher == nil {
		return errors.New("core: HashRandPr needs a Hasher")
	}
	a.state = hashState(info, a.Hasher, false, a.state)
	return nil
}

// HashPriorities returns the hash-derived R_w priority of every set,
// reusing buf's storage when possible. HashRandPr and the sharded
// streaming engine's randpr policies compute the same floats on their
// way to order keys (hashState): any components given the same hasher
// and info agree on every priority with zero coordination (Section 3.1).
// The whole vector is for replicas that decide with
// SelectTopPrioritySort. The fill is bulk: one devirtualized pass
// producing all uniforms (hashpr.FillUniform), then one in-place pass
// through the R_w inverse transform.
func HashPriorities(info Info, h hashpr.UniformHasher, buf []float64) []float64 {
	buf = resize(buf, info.NumSets())
	hashpr.FillUniform(h, 0, buf)
	for i, w := range info.Weights {
		buf[i] = dist.FromUniform(buf[i], w)
	}
	return buf
}

// Choose implements Algorithm.
func (a *HashRandPr) Choose(ev ElementView) []setsystem.SetID {
	return a.state.choose(ev, a.ActiveOnly, &a.buf)
}

// RandPrExpectedBenefit returns the exact expected benefit of randPr on a
// unit-capacity instance via Lemma 1:
//
//	E[w(ALG)] = Σ_S w(S)² / w(N[S]),
//
// where N[S] is the closed neighborhood of S in the intersection graph.
// It is the analytical cross-check used by the Lemma 1 experiment and the
// engine's tests. The result is meaningless for variable capacities.
func RandPrExpectedBenefit(inst *setsystem.Instance) float64 {
	nw := NeighborhoodWeights(inst)
	var total float64
	for i, w := range inst.Weights {
		if nw[i] > 0 {
			total += w * w / nw[i]
		}
	}
	return total
}

// NeighborhoodWeights returns w(N[S]) for every set S: the total weight of
// sets intersecting S, including S itself.
func NeighborhoodWeights(inst *setsystem.Instance) []float64 {
	m := inst.NumSets()
	members := inst.MemberMatrix()
	elems := inst.Elements

	out := make([]float64, m)
	stamp := make([]int, m)
	for i := range stamp {
		stamp[i] = -1
	}
	for i := 0; i < m; i++ {
		var sum float64
		for _, ej := range members[i] {
			for _, nb := range elems[ej].Members {
				if stamp[nb] != i {
					stamp[nb] = i
					sum += inst.Weights[nb]
				}
			}
		}
		out[i] = sum
	}
	return out
}
