package core

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/hashpr"
	"repro/internal/setsystem"
	"repro/internal/workload"
)

// policyInfo is a small fixture with distinct weights and sizes so every
// policy's ordering is exercised.
func policyInfo() Info {
	return Info{
		Weights: []float64{5, 1, 3, 3, 2},
		Sizes:   []int{2, 1, 3, 1, 2},
	}
}

// TestRegistryBuiltins pins the registry surface: the four built-ins are
// present, lookup resolves the empty name to the default, and unknown
// names fail with ErrUnknownPolicy.
func TestRegistryBuiltins(t *testing.T) {
	want := []string{"first-fit", "greedy-remaining", "randpr", "randpr-weighted"}
	if got := PolicyNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("PolicyNames() = %v, want %v", got, want)
	}
	p, err := LookupPolicy("")
	if err != nil || p.Name() != DefaultPolicy {
		t.Errorf(`LookupPolicy("") = %v, %v; want the %s policy`, p, err, DefaultPolicy)
	}
	if _, err := LookupPolicy("nope"); !errors.Is(err, ErrUnknownPolicy) {
		t.Errorf("LookupPolicy(nope) = %v, want ErrUnknownPolicy", err)
	}
	for _, name := range want {
		p, err := LookupPolicy(name)
		if err != nil {
			t.Fatalf("LookupPolicy(%s): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("policy registered under %q names itself %q", name, p.Name())
		}
	}
}

// TestRegisterPolicyGuards pins the mutation rules: no nil or unnamed
// policies, no shadowing of an existing name, and a fresh name round-trips.
func TestRegisterPolicyGuards(t *testing.T) {
	if err := RegisterPolicy(nil); err == nil {
		t.Error("RegisterPolicy(nil) accepted")
	}
	if err := RegisterPolicy(RandPrPolicy{}); err == nil {
		t.Error("re-registering randpr accepted")
	}
	custom := testPolicy{name: "test-custom"}
	if err := RegisterPolicy(custom); err != nil {
		t.Fatalf("RegisterPolicy(test-custom): %v", err)
	}
	defer func() {
		policyMu.Lock()
		delete(policyRegistry, "test-custom")
		policyMu.Unlock()
	}()
	if got, err := LookupPolicy("test-custom"); err != nil || got.Name() != "test-custom" {
		t.Errorf("LookupPolicy(test-custom) = %v, %v", got, err)
	}
}

// testPolicy is a registrable stub.
type testPolicy struct{ name string }

func (p testPolicy) Name() string                            { return p.name }
func (p testPolicy) Setup(Info, uint64) (PolicyState, error) { return firstFitState{}, nil }

// TestSetupDeterminism pins the seed contract: two Setups under the same
// (info, seed) produce states that agree on every decision; a different
// seed changes randomized policies but not deterministic ones.
func TestSetupDeterminism(t *testing.T) {
	info := policyInfo()
	members := []setsystem.SetID{0, 1, 2, 3, 4}
	for _, name := range PolicyNames() {
		pol, err := LookupPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		a, err := pol.Setup(info, 42)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := pol.Setup(info, 42)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for cap := 1; cap <= len(members); cap++ {
			da := a.Decide(members, cap, nil)
			db := b.Decide(members, cap, nil)
			if !reflect.DeepEqual(da, db) {
				t.Errorf("%s cap=%d: same seed decided %v then %v", name, cap, da, db)
			}
			if len(da) != min(cap, len(members)) {
				t.Errorf("%s cap=%d: decided %d parents", name, cap, len(da))
			}
			for i := 1; i < len(da); i++ {
				if da[i-1] >= da[i] {
					t.Errorf("%s cap=%d: decision %v not in ascending SetID order", name, cap, da)
				}
			}
		}
	}
}

// TestDecideInPlaceAgreesWithDecide pins the three decide entry points
// against each other — the engine admits by position, verdict handlers
// and the serial oracle decide by copy, and they must never disagree.
func TestDecideInPlaceAgreesWithDecide(t *testing.T) {
	info := policyInfo()
	members := []setsystem.SetID{0, 1, 2, 3, 4}
	for _, name := range PolicyNames() {
		pol, _ := LookupPolicy(name)
		st, err := pol.Setup(info, 7)
		if err != nil {
			t.Fatal(err)
		}
		for cap := 1; cap <= len(members); cap++ {
			want := st.Decide(members, cap, nil)
			scratch := append([]setsystem.SetID(nil), members...)
			got := st.DecideInPlace(scratch, cap)
			if !reflect.DeepEqual(append([]setsystem.SetID(nil), got...), want) {
				t.Errorf("%s cap=%d: DecideInPlace %v != Decide %v", name, cap, got, want)
			}
			var admitted []setsystem.SetID
			for _, j := range st.Admit(members, cap, nil) {
				admitted = append(admitted, members[j])
			}
			if !reflect.DeepEqual(admitted, want) {
				t.Errorf("%s cap=%d: Admit gathers %v != Decide %v", name, cap, admitted, want)
			}
		}
	}
}

// TestRandPrPolicyMatchesHashRandPr pins backward compatibility: the
// default policy's oracle is exactly the pre-policy HashRandPr algorithm,
// so every result produced before the refactor is still reproduced.
func TestRandPrPolicyMatchesHashRandPr(t *testing.T) {
	inst := testInstance(t)
	const seed = 99
	want, err := Run(inst, &HashRandPr{Hasher: hashpr.Mixer{Seed: seed}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pol, _ := LookupPolicy(DefaultPolicy)
	got, err := Run(inst, &PolicyAlgorithm{Policy: pol, Seed: seed}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Errorf("randpr policy oracle differs from HashRandPr: %v vs %v", got.Benefit, want.Benefit)
	}
}

// TestRandPrPolicyWithPolyFamilyHasher pins the policy's hasher
// override: under a PolyFamily hasher the randpr policy decides as
// HashRandPr does under the same hasher, so the engine, which runs only
// the policy, serves any hash family the policy is given.
func TestRandPrPolicyWithPolyFamilyHasher(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inst, err := workload.Uniform(workload.UniformConfig{M: 40, N: 200, Load: 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := hashpr.NewPolyFamily(8, rng)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(inst, &HashRandPr{Hasher: pf}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(inst, &PolicyAlgorithm{Policy: RandPrPolicy{Hasher: pf}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Errorf("randpr policy under PolyFamily differs from HashRandPr: %v vs %v", got.Benefit, want.Benefit)
	}
}

// TestHashPoliciesMatchFloatPriorities pins the keyed Setup of both
// randPr policies to the float64 priorities they encode: over sets
// spanning several key chunks, with non-unit weights, every decision
// equals the sort oracle's on HashPriorities (scaled by weight for
// randpr-weighted).
func TestHashPoliciesMatchFloatPriorities(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	m := 3*keyChunk + 5
	info := Info{Weights: make([]float64, m), Sizes: make([]int, m)}
	for i := range info.Weights {
		info.Weights[i] = 0.25 + 4*rng.Float64()
		info.Sizes[i] = 1
	}
	const seed = 12
	prio := HashPriorities(info, hashpr.Mixer{Seed: seed}, nil)
	weighted := make([]float64, m)
	for i, w := range info.Weights {
		weighted[i] = prio[i] * w
	}
	for _, tc := range []struct {
		pol  Policy
		prio []float64
	}{{RandPrPolicy{}, prio}, {WeightedRandPrPolicy{}, weighted}} {
		st, err := tc.pol.Setup(info, seed)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 2000; trial++ {
			members := randMembers(rng, m, 2+rng.Intn(12))
			capacity := 1 + rng.Intn(4)
			want := SelectTopPrioritySort(members, capacity, tc.prio, nil)
			if got := st.Decide(members, capacity, nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: members %v cap %d: decided %v, float priorities choose %v", tc.pol.Name(), members, capacity, got, want)
			}
		}
	}
}

// testInstance builds a deterministic mid-size instance.
func testInstance(t *testing.T) *setsystem.Instance {
	t.Helper()
	var b setsystem.Builder
	rng := rand.New(rand.NewSource(17))
	ids := make([]setsystem.SetID, 12)
	for i := range ids {
		ids[i] = b.AddSet(1 + float64(i%5))
	}
	for e := 0; e < 400; e++ {
		k := 2 + rng.Intn(3)
		perm := rng.Perm(len(ids))[:k]
		members := make([]setsystem.SetID, 0, k)
		for _, p := range perm {
			members = append(members, ids[p])
		}
		b.AddElementCap(1+rng.Intn(2), members...)
	}
	return b.MustBuild()
}

// TestGreedyRemainingOrder pins the deterministic ordering: smaller
// declared size first, then larger weight, then lower SetID.
func TestGreedyRemainingOrder(t *testing.T) {
	info := Info{
		// id:      0  1  2  3  4
		Weights: []float64{5, 1, 3, 3, 2},
		Sizes:   []int{2, 1, 3, 1, 2},
	}
	st, err := GreedyRemainingPolicy{}.Setup(info, 0)
	if err != nil {
		t.Fatal(err)
	}
	// size-1 sets first (3 beats 1 on weight), then size-2 (0 beats 4),
	// then the size-3 set.
	wantOrder := []setsystem.SetID{3, 1, 0, 4, 2}
	members := []setsystem.SetID{0, 1, 2, 3, 4}
	for cap := 1; cap <= 5; cap++ {
		got := st.Decide(members, cap, nil)
		want := append([]setsystem.SetID(nil), wantOrder[:cap]...)
		setsystemSort(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("cap=%d: decided %v, want %v", cap, got, want)
		}
	}
}

// setsystemSort sorts ids ascending (tiny helper for expectations).
func setsystemSort(ids []setsystem.SetID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j-1] > ids[j]; j-- {
			ids[j-1], ids[j] = ids[j], ids[j-1]
		}
	}
}

// TestFirstFitAdmitsPrefix pins the admit-all baseline: the first b(u)
// parents in SetID order, every time.
func TestFirstFitAdmitsPrefix(t *testing.T) {
	st, err := FirstFitPolicy{}.Setup(Info{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	members := []setsystem.SetID{2, 5, 9}
	if got := st.Decide(members, 2, nil); !reflect.DeepEqual(got, []setsystem.SetID{2, 5}) {
		t.Errorf("Decide cap=2 = %v, want [2 5]", got)
	}
	if got := st.Decide(members, 7, nil); !reflect.DeepEqual(got, []setsystem.SetID{2, 5, 9}) {
		t.Errorf("Decide cap=7 = %v, want all members", got)
	}
	if got := st.DecideInPlace(append([]setsystem.SetID(nil), members...), 1); !reflect.DeepEqual(got, []setsystem.SetID{2}) {
		t.Errorf("DecideInPlace cap=1 = %v, want [2]", got)
	}
}

// TestWeightedRandPrFavorsHeavySets is a statistical sanity check: under
// weight scaling, the heavy set should win a contested unit-capacity
// element far more often than under plain randPr.
func TestWeightedRandPrFavorsHeavySets(t *testing.T) {
	info := Info{Weights: []float64{10, 1}, Sizes: []int{1, 1}}
	members := []setsystem.SetID{0, 1}
	wins := func(pol Policy) int {
		heavy := 0
		for seed := uint64(0); seed < 400; seed++ {
			st, err := pol.Setup(info, seed)
			if err != nil {
				t.Fatal(err)
			}
			if got := st.Decide(members, 1, nil); len(got) == 1 && got[0] == 0 {
				heavy++
			}
		}
		return heavy
	}
	plain := wins(RandPrPolicy{})
	weighted := wins(WeightedRandPrPolicy{})
	// randPr gives the heavy set w/(w+w') = 10/11 ≈ 364 of 400; weight
	// scaling pushes it essentially to certainty. Wide margins keep the
	// check robust.
	if plain < 300 || plain > 399 {
		t.Errorf("randpr heavy-set wins = %d/400, outside the Lemma 1 ballpark", plain)
	}
	if weighted < plain {
		t.Errorf("randpr-weighted heavy-set wins %d < randpr's %d", weighted, plain)
	}
}

// TestPolicyAlgorithmName pins the adapter's reported name (experiment
// tables key on it).
func TestPolicyAlgorithmName(t *testing.T) {
	pol, _ := LookupPolicy("greedy-remaining")
	a := &PolicyAlgorithm{Policy: pol}
	if a.Name() != "greedy-remaining" {
		t.Errorf("Name() = %q", a.Name())
	}
	if err := a.Reset(policyInfo(), nil); err != nil {
		t.Fatal(err)
	}
	choice := a.Choose(ElementView{Members: []setsystem.SetID{0, 1}, Capacity: 1})
	if len(choice) != 1 {
		t.Errorf("Choose = %v, want one parent", choice)
	}
}

// TestPolicyInfos pins the registry-driven discovery contract: every
// built-in describes itself in one line, rows come back sorted by name,
// and the list agrees with PolicyNames.
func TestPolicyInfos(t *testing.T) {
	infos := PolicyInfos()
	names := PolicyNames()
	if len(infos) != len(names) {
		t.Fatalf("PolicyInfos has %d rows, PolicyNames %d", len(infos), len(names))
	}
	for i, info := range infos {
		if info.Name != names[i] {
			t.Errorf("row %d: name %q, want %q (sorted)", i, info.Name, names[i])
		}
		if info.Description == "" {
			t.Errorf("policy %q has no description", info.Name)
		}
		if strings.Contains(info.Description, "\n") {
			t.Errorf("policy %q description is not one line", info.Name)
		}
	}
}
