package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/osp"
)

// genConfig shapes one generated instance: M unit-weight sets, N elements
// whose loads are drawn uniformly from [MinLoad, MaxLoad], capacity b(u)
// = Capacity for every element.
type genConfig struct {
	M, N             int
	MinLoad, MaxLoad int
	Capacity         int
}

// generate builds a seeded unit-weight instance. Each element samples its
// parents with Floyd's algorithm — O(load) per element, where
// workload.Uniform's rng.Perm(M) is O(M) and cannot build a million-set
// universe in useful time — then sorts them ascending. Sets no element
// touched get one private load-1 element at the end, as workload.Uniform
// does, because the service rejects empty sets.
func generate(cfg genConfig, rng *rand.Rand) *osp.Instance {
	flat := make([]osp.SetID, 0, cfg.N*cfg.MaxLoad)
	els := make([]osp.Element, 0, cfg.N)
	sizes := make([]int, cfg.M)
	for j := 0; j < cfg.N; j++ {
		load := cfg.MinLoad
		if cfg.MaxLoad > cfg.MinLoad {
			load += rng.Intn(cfg.MaxLoad - cfg.MinLoad + 1)
		}
		start := len(flat)
		for t := cfg.M - load; t < cfg.M; t++ {
			pick := osp.SetID(rng.Intn(t + 1))
			if contains(flat[start:], pick) {
				pick = osp.SetID(t)
			}
			flat = append(flat, pick)
		}
		members := flat[start:len(flat):len(flat)]
		insertionSort(members)
		for _, s := range members {
			sizes[s]++
		}
		els = append(els, osp.Element{Members: members, Capacity: cfg.Capacity})
	}
	for s, k := range sizes {
		if k == 0 {
			sizes[s] = 1
			els = append(els, osp.Element{Members: []osp.SetID{osp.SetID(s)}, Capacity: cfg.Capacity})
		}
	}
	weights := make([]float64, cfg.M)
	for i := range weights {
		weights[i] = 1
	}
	return &osp.Instance{Weights: weights, Sizes: sizes, Elements: els}
}

func contains(ids []osp.SetID, id osp.SetID) bool {
	for _, s := range ids {
		if s == id {
			return true
		}
	}
	return false
}

// insertionSort sorts a short member list in place.
func insertionSort(ids []osp.SetID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// input is one generated instance with everything the run checks it
// against: its policy seed, the serial oracle's Result, and its element
// stream cut into the workload's batches.
type input struct {
	inst    *osp.Instance
	info    osp.Info
	seed    uint64
	oracle  *osp.Result
	batches [][]osp.Element
	offered float64 // total weight
	// serial is how long the oracle's osp.Run took.
	serial time.Duration
}

// makeInputs generates the workload's instances from the run seed and
// computes each one's serial oracle, all before any timer starts.
func makeInputs(w *workload, seed int64) ([]*input, error) {
	ins := make([]*input, w.instances)
	for k := range ins {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(k)))
		inst := generate(w.gen, rng)
		in := &input{inst: inst, info: osp.InfoOf(inst), seed: uint64(seed)<<8 | uint64(k)}
		alg, err := osp.NewPolicyAlgorithm("", in.seed)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		in.oracle, err = osp.Run(inst, alg, nil)
		in.serial = time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("serial oracle: %w", err)
		}
		for lo := 0; lo < len(inst.Elements); lo += w.batch {
			hi := min(lo+w.batch, len(inst.Elements))
			in.batches = append(in.batches, inst.Elements[lo:hi:hi])
		}
		in.offered = inst.TotalWeight()
		ins[k] = in
	}
	return ins, nil
}
