package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/hashpr"
	"repro/internal/setsystem"
)

// The policy layer generalizes the engine's admission rule. The paper's
// randPr is one point in a family of priority-based online set-packing
// strategies; a Policy packages one such strategy so the sharded streaming
// engine — and through it the HTTP service — and the serial runner can
// all execute it interchangeably. The contract (DESIGN.md §11) has two
// halves:
//
//   - Setup is a pure function of (Info, seed): given the same up-front
//     information and the same 64-bit seed it must build identical state,
//     so every replica — shard workers, cluster nodes, a restored
//     engine, the serial oracle — agrees on every decision with zero
//     coordination. Deterministic policies simply ignore the seed.
//   - Admit is a pure function of (element, frozen state): it may not
//     consult run history, mutate the state, or retain or write the
//     member slice. That is exactly what lets shards decide elements
//     concurrently and still reproduce a serial run bit for bit at any
//     shard count.

// PolicyState is the frozen per-instance decision state a Policy builds at
// Setup. Every method must be safe for concurrent use from any number of
// goroutines: every engine shard calls Admit on the one shared state at
// once. Admit is the decision; Decide and DecideInPlace must return
// exactly the members it admits.
type PolicyState interface {
	// Admit decides one element: members are its parent sets in
	// ascending SetID order, capacity its b(u). It returns the positions
	// within members of the at most capacity admitted parents, ascending,
	// in pos's storage, and never writes members. It is the hot path of
	// the engine's shards, which read frames in place and write verdict
	// bits by position.
	Admit(members []setsystem.SetID, capacity int, pos []int32) []int32
	// DecideInPlace is Admit for callers that own the members storage:
	// it moves the admitted members to the front of members, in
	// ascending SetID order, and returns that prefix.
	DecideInPlace(members []setsystem.SetID, capacity int) []setsystem.SetID
	// Decide is Admit returning the admitted members themselves, in
	// ascending SetID order; members is not written. The result reuses
	// buf's storage when possible.
	Decide(members []setsystem.SetID, capacity int, buf []setsystem.SetID) []setsystem.SetID
}

// Policy is a named admission-policy family. Implementations must be
// stateless values: all per-instance state lives in the PolicyState that
// Setup returns.
type Policy interface {
	// Name is the registry key, echoed in API responses and metrics.
	Name() string
	// Setup builds the frozen decision state for one instance. It must be
	// deterministic in (info, seed) — see the contract above.
	Setup(info Info, seed uint64) (PolicyState, error)
}

// DefaultPolicy is the registry name of the paper's algorithm, used
// whenever a policy name is left empty.
const DefaultPolicy = "randpr"

// RandPrPolicy is the default policy: the paper's distributed randPr.
// Priorities are derived from a shared hash of each SetID mapped through
// the R_w inverse transform — the exact code path HashRandPr uses, so the
// serial oracle for this policy is Run with HashRandPr under the same
// seed.
type RandPrPolicy struct {
	// Hasher overrides the seed-derived hasher (tests exercising other
	// hash families). Nil means hashpr.Mixer{Seed: seed}, the production
	// configuration.
	Hasher hashpr.UniformHasher
}

// Name implements Policy.
func (RandPrPolicy) Name() string { return DefaultPolicy }

// Description implements PolicyDescriber.
func (RandPrPolicy) Description() string {
	return "the paper's distributed randPr: hash-derived R_w priorities, top-b(u) selection (Theorem 1 guarantees apply)"
}

// Setup implements Policy.
func (p RandPrPolicy) Setup(info Info, seed uint64) (PolicyState, error) {
	h := p.Hasher
	if h == nil {
		h = hashpr.Mixer{Seed: seed}
	}
	return hashState(info, h, false, nil), nil
}

// WeightedRandPrPolicy is randPr with its priority scaled by the set's
// weight: p(S) = w(S)·r(S), r(S) ~ R_{w(S)} hash-derived as in randPr.
// Heavy sets win contested elements even more often than randPr's weighted
// race already favors them — a practical variant for workloads where
// dropping a heavy frame is disproportionately costly. The competitive
// analysis of Theorem 1 does not apply to it; it exists to be compared.
type WeightedRandPrPolicy struct {
	// Hasher mirrors RandPrPolicy.Hasher.
	Hasher hashpr.UniformHasher
}

// Name implements Policy.
func (WeightedRandPrPolicy) Name() string { return "randpr-weighted" }

// Description implements PolicyDescriber.
func (WeightedRandPrPolicy) Description() string {
	return "randPr with priorities scaled by set weight (p = w·r): heavy sets win contested elements more often"
}

// Setup implements Policy. It scales the priorities randPr's Setup
// derives, through the same hashState, so the two randPr variants can
// never drift apart on how priorities are derived.
func (p WeightedRandPrPolicy) Setup(info Info, seed uint64) (PolicyState, error) {
	h := p.Hasher
	if h == nil {
		h = hashpr.Mixer{Seed: seed}
	}
	return hashState(info, h, true, nil), nil
}

// GreedyRemainingPolicy is the deterministic "protect the almost-finished"
// strategy: admit the parents closest to completion — fewest declared
// elements — breaking ties by larger weight, then lower SetID. Because the
// decide step may not consult run history (the shard-safety contract),
// proximity to completion is judged from the declared sizes, the only
// per-set information fixed before the stream. Setup rank-encodes the
// (size asc, weight desc, SetID asc) order into a priority vector, so the
// decide step is the same zero-allocation kernel as randPr. Theorem 3's
// adversary defeats it, which is exactly why it ships: it is the
// deterministic baseline the randomized policies are compared against.
type GreedyRemainingPolicy struct{}

// Name implements Policy.
func (GreedyRemainingPolicy) Name() string { return "greedy-remaining" }

// Description implements PolicyDescriber.
func (GreedyRemainingPolicy) Description() string {
	return "deterministic baseline: admit the parents closest to completion by declared size (ties: weight desc, SetID asc)"
}

// Setup implements Policy. The seed is ignored: the policy is
// deterministic.
func (GreedyRemainingPolicy) Setup(info Info, _ uint64) (PolicyState, error) {
	m := info.NumSets()
	order := make([]int, m)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if info.Sizes[ia] != info.Sizes[ib] {
			return info.Sizes[ia] < info.Sizes[ib]
		}
		if info.Weights[ia] != info.Weights[ib] {
			return info.Weights[ia] > info.Weights[ib]
		}
		return ia < ib
	})
	// Rank-encode: the best set gets the highest priority. Ranks are
	// distinct, so the kernel's SetID tie-break never fires and the
	// lexicographic order above is reproduced exactly.
	s := new(VectorState).resized(m)
	for rank, id := range order {
		s.put(id, float64(m-rank))
	}
	return s, nil
}

// FirstFitPolicy is the admit-all baseline: every element is assigned to
// its first b(u) parents in SetID order, no selection pressure at all. It
// anchors competitive-ratio comparisons — any policy that cannot beat
// first-fit on a workload is not earning its complexity there.
type FirstFitPolicy struct{}

// Name implements Policy.
func (FirstFitPolicy) Name() string { return "first-fit" }

// Description implements PolicyDescriber.
func (FirstFitPolicy) Description() string {
	return "admit-all baseline: the first b(u) parents in SetID order, no selection pressure"
}

// Setup implements Policy. The seed is ignored: the policy is
// deterministic.
func (FirstFitPolicy) Setup(Info, uint64) (PolicyState, error) {
	return firstFitState{}, nil
}

// firstFitState admits the leading capacity members. Members arrive in
// ascending SetID order, so the prefix already satisfies the ordering
// contract.
type firstFitState struct{}

func (firstFitState) Admit(members []setsystem.SetID, capacity int, pos []int32) []int32 {
	pos = pos[:0]
	for j := range min(len(members), capacity) {
		pos = append(pos, int32(j))
	}
	return pos
}

func (firstFitState) DecideInPlace(members []setsystem.SetID, capacity int) []setsystem.SetID {
	if capacity < 0 {
		capacity = 0
	}
	if len(members) > capacity {
		members = members[:capacity]
	}
	return members
}

func (s firstFitState) Decide(members []setsystem.SetID, capacity int, buf []setsystem.SetID) []setsystem.SetID {
	return append(buf[:0], s.DecideInPlace(members, capacity)...)
}

// ErrUnknownPolicy is wrapped by LookupPolicy for unregistered names.
var ErrUnknownPolicy = errors.New("core: unknown policy")

// policyRegistry maps registry names to stateless Policy values. Guarded
// by a mutex because service handlers look names up concurrently.
var (
	policyMu       sync.RWMutex
	policyRegistry = map[string]Policy{
		DefaultPolicy:      RandPrPolicy{},
		"randpr-weighted":  WeightedRandPrPolicy{},
		"greedy-remaining": GreedyRemainingPolicy{},
		"first-fit":        FirstFitPolicy{},
	}
)

// RegisterPolicy adds a policy to the registry under its Name. It errors
// on an empty name or a name already taken — built-ins cannot be
// shadowed.
func RegisterPolicy(p Policy) error {
	if p == nil || p.Name() == "" {
		return errors.New("core: policy must have a name")
	}
	policyMu.Lock()
	defer policyMu.Unlock()
	if _, dup := policyRegistry[p.Name()]; dup {
		return fmt.Errorf("core: policy %q already registered", p.Name())
	}
	policyRegistry[p.Name()] = p
	return nil
}

// LookupPolicy resolves a policy name; the empty string resolves to
// DefaultPolicy. Unknown names error with ErrUnknownPolicy and the list
// of registered names.
func LookupPolicy(name string) (Policy, error) {
	if name == "" {
		name = DefaultPolicy
	}
	policyMu.RLock()
	p, ok := policyRegistry[name]
	policyMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w %q (registered: %v)", ErrUnknownPolicy, name, PolicyNames())
	}
	return p, nil
}

// PolicyNames returns every registered policy name, sorted.
func PolicyNames() []string {
	policyMu.RLock()
	names := make([]string, 0, len(policyRegistry))
	for n := range policyRegistry {
		names = append(names, n)
	}
	policyMu.RUnlock()
	sort.Strings(names)
	return names
}

// PolicyDescriber is the optional self-description interface a Policy
// may implement. The service's GET /v1/policies discovery endpoint
// surfaces these one-liners so clients can enumerate what a server
// offers instead of hardcoding names.
type PolicyDescriber interface {
	// Description is one line: what the policy optimizes for and any
	// guarantee caveat.
	Description() string
}

// PolicyInfo pairs a registered policy name with its one-line
// description ("" when the policy does not describe itself).
type PolicyInfo struct {
	Name        string
	Description string
}

// PolicyInfos returns every registered policy with its description,
// sorted by name — the registry-driven source of the service's
// GET /v1/policies response.
func PolicyInfos() []PolicyInfo {
	policyMu.RLock()
	infos := make([]PolicyInfo, 0, len(policyRegistry))
	for name, p := range policyRegistry {
		info := PolicyInfo{Name: name}
		if d, ok := p.(PolicyDescriber); ok {
			info.Description = d.Description()
		}
		infos = append(infos, info)
	}
	policyMu.RUnlock()
	sort.Slice(infos, func(a, b int) bool { return infos[a].Name < infos[b].Name })
	return infos
}

// PolicyAlgorithm adapts a Policy to the Algorithm interface, making
// core.Run the serial oracle of any policy: a streaming engine run under
// (policy, seed) must be bit-for-bit identical to Run with the matching
// PolicyAlgorithm at every shard count. The rng parameter of Reset is
// ignored — all randomness flows from the seed, exactly as in the
// distributed setting.
type PolicyAlgorithm struct {
	Policy Policy
	Seed   uint64

	state PolicyState
	buf   []setsystem.SetID
}

var _ Algorithm = (*PolicyAlgorithm)(nil)

// Name implements Algorithm.
func (a *PolicyAlgorithm) Name() string { return a.Policy.Name() }

// Reset implements Algorithm.
func (a *PolicyAlgorithm) Reset(info Info, _ *rand.Rand) error {
	st, err := a.Policy.Setup(info, a.Seed)
	if err != nil {
		return err
	}
	a.state = st
	return nil
}

// Choose implements Algorithm.
func (a *PolicyAlgorithm) Choose(ev ElementView) []setsystem.SetID {
	a.buf = a.state.Decide(ev.Members, ev.Capacity, a.buf)
	return a.buf
}
