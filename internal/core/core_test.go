package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/setsystem"
)

// scriptAlg replays a fixed choice per element; the workhorse for runner
// accounting tests.
type scriptAlg struct {
	choices [][]setsystem.SetID
	pos     int
}

func (a *scriptAlg) Name() string                 { return "script" }
func (a *scriptAlg) Reset(Info, *rand.Rand) error { a.pos = 0; return nil }
func (a *scriptAlg) Choose(ElementView) []setsystem.SetID {
	c := a.choices[a.pos]
	a.pos++
	return c
}

// triangle builds the 3-set instance A={u0,u1}, B={u0,u2}, C={u1,u2} with
// weights wa, wb, wc.
func triangle(t *testing.T, wa, wb, wc float64) *setsystem.Instance {
	t.Helper()
	var b setsystem.Builder
	a := b.AddSet(wa)
	bb := b.AddSet(wb)
	c := b.AddSet(wc)
	b.AddElement(a, bb)
	b.AddElement(a, c)
	b.AddElement(bb, c)
	return b.MustBuild()
}

func TestRunCompletionAccounting(t *testing.T) {
	inst := triangle(t, 1, 2, 3)
	// Assign u0→A, u1→A, u2→C: A completed, B and C not.
	alg := &scriptAlg{choices: [][]setsystem.SetID{{0}, {0}, {2}}}
	res, err := Run(inst, alg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completed) != 1 || res.Completed[0] != 0 {
		t.Fatalf("Completed = %v, want [0]", res.Completed)
	}
	if res.Benefit != 1 {
		t.Errorf("Benefit = %v, want 1", res.Benefit)
	}
	if !res.Completes(0) || res.Completes(1) || res.Completes(2) {
		t.Error("Completes flags wrong")
	}
	if res.Assigned[0] != 2 || res.Assigned[1] != 0 || res.Assigned[2] != 1 {
		t.Errorf("Assigned = %v, want [2 0 1]", res.Assigned)
	}
}

func TestResultEqual(t *testing.T) {
	base := func() *Result {
		return &Result{
			Completed: []setsystem.SetID{0, 2},
			Benefit:   4,
			Assigned:  []int32{2, 0, 1},
		}
	}
	a := base()
	if !a.Equal(base()) {
		t.Error("identical results not Equal")
	}
	if !a.Equal(a) {
		t.Error("result not Equal to itself")
	}
	var nilRes *Result
	if a.Equal(nil) || nilRes.Equal(a) {
		t.Error("nil vs non-nil compared equal")
	}
	if !nilRes.Equal(nil) {
		t.Error("nil results not Equal")
	}
	// Nil and empty slices are the same result (JSON round-trip).
	empty1 := &Result{Assigned: []int32{}}
	empty2 := &Result{}
	if !empty1.Equal(empty2) {
		t.Error("nil/empty slices not Equal")
	}
	for name, mut := range map[string]func(*Result){
		"benefit":         func(r *Result) { r.Benefit = 5 },
		"benefit sign":    func(r *Result) { r.Benefit = math.Copysign(r.Benefit, -1) },
		"completed order": func(r *Result) { r.Completed[0], r.Completed[1] = r.Completed[1], r.Completed[0] },
		"completed len":   func(r *Result) { r.Completed = r.Completed[:1] },
		"assigned count":  func(r *Result) { r.Assigned[1] = 9 },
		"assigned len":    func(r *Result) { r.Assigned = append(r.Assigned, 0) },
	} {
		m := base()
		mut(m)
		if a.Equal(m) {
			t.Errorf("%s: mutated result still Equal", name)
		}
	}
}

func TestRunEmptyChoicesAllowed(t *testing.T) {
	inst := triangle(t, 1, 1, 1)
	alg := &scriptAlg{choices: [][]setsystem.SetID{nil, nil, nil}}
	res, err := Run(inst, alg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completed) != 0 || res.Benefit != 0 {
		t.Errorf("want no completions, got %v", res.Completed)
	}
}

func TestRunRejectsNonParent(t *testing.T) {
	inst := triangle(t, 1, 1, 1)
	alg := &scriptAlg{choices: [][]setsystem.SetID{{2}, {0}, {1}}} // u0 ∉ set 2
	if _, err := Run(inst, alg, nil); !errors.Is(err, ErrChoseNonParent) {
		t.Errorf("err = %v, want ErrChoseNonParent", err)
	}
}

func TestRunRejectsOverCapacity(t *testing.T) {
	inst := triangle(t, 1, 1, 1)
	alg := &scriptAlg{choices: [][]setsystem.SetID{{0, 1}, {0}, {1}}}
	if _, err := Run(inst, alg, nil); !errors.Is(err, ErrOverCapacity) {
		t.Errorf("err = %v, want ErrOverCapacity", err)
	}
}

func TestRunRejectsDuplicateChoice(t *testing.T) {
	var b setsystem.Builder
	s0 := b.AddSet(1)
	s1 := b.AddSet(1)
	b.AddElementCap(2, s0, s1)
	b.AddElement(s0)
	b.AddElement(s1)
	inst := b.MustBuild()
	alg := &scriptAlg{choices: [][]setsystem.SetID{{0, 0}, {0}, {1}}}
	if _, err := Run(inst, alg, nil); !errors.Is(err, ErrDuplicateChoice) {
		t.Errorf("err = %v, want ErrDuplicateChoice", err)
	}
}

func TestCapacityAllowsMultipleAssignments(t *testing.T) {
	// One element with capacity 2 shared by two singleton sets: both can
	// complete.
	var b setsystem.Builder
	s0 := b.AddSet(1)
	s1 := b.AddSet(5)
	b.AddElementCap(2, s0, s1)
	inst := b.MustBuild()
	alg := &scriptAlg{choices: [][]setsystem.SetID{{0, 1}}}
	res, err := Run(inst, alg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Benefit != 6 {
		t.Errorf("Benefit = %v, want 6", res.Benefit)
	}
}

func TestStateTransitions(t *testing.T) {
	info := Info{Weights: []float64{1, 1}, Sizes: []int{2, 3}}
	st := NewState(info)
	if !st.Active(0) || !st.Active(1) {
		t.Fatal("all sets start active")
	}
	if st.Remaining(1) != 3 {
		t.Errorf("Remaining = %d, want 3", st.Remaining(1))
	}
	st.arrived[0]++
	if st.Active(0) {
		t.Error("set 0 should be inactive after missing an element")
	}
	st.assigned[0]++
	if !st.Active(0) {
		t.Error("set 0 should be active after assignment catch-up")
	}
	if st.Arrived(0) != 1 || st.Assigned(0) != 1 {
		t.Error("Arrived/Assigned accessors wrong")
	}
	if st.Weight(0) != 1 || st.Size(1) != 3 {
		t.Error("Weight/Size accessors wrong")
	}
}

func TestContainsBinarySearch(t *testing.T) {
	members := []setsystem.SetID{2, 5, 9, 11}
	for _, s := range members {
		if !contains(members, s) {
			t.Errorf("contains(%d) = false", s)
		}
	}
	for _, s := range []setsystem.SetID{0, 3, 10, 99} {
		if contains(members, s) {
			t.Errorf("contains(%d) = true", s)
		}
	}
	if contains(nil, 1) {
		t.Error("contains(nil) = true")
	}
}

func TestMeanBenefitDeterministic(t *testing.T) {
	inst := triangle(t, 1, 2, 3)
	mean, stderr, err := MeanBenefit(inst, &GreedyMaxWeight{}, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stderr != 0 {
		t.Errorf("stderr = %v, want 0 for deterministic algorithm", stderr)
	}
	// greedyMaxWeight: u0→B, u1→C, u2→C; C completes (weight 3).
	if mean != 3 {
		t.Errorf("mean = %v, want 3", mean)
	}
}

func TestMeanBenefitRejectsBadTrials(t *testing.T) {
	inst := triangle(t, 1, 1, 1)
	if _, _, err := MeanBenefit(inst, &GreedyMaxWeight{}, 0, 1); err == nil {
		t.Error("want error for trials=0")
	}
}

func TestRunSourceMaterializesInstance(t *testing.T) {
	inst := triangle(t, 1, 2, 3)
	src := NewReplaySource(inst)
	alg := &GreedyFirstListed{}
	_, mat, err := RunSource(src, alg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := mat.Validate(); err != nil {
		t.Fatalf("materialized instance invalid: %v", err)
	}
	if mat.NumElements() != 3 || mat.NumSets() != 3 {
		t.Errorf("materialized %d elements, %d sets", mat.NumElements(), mat.NumSets())
	}
}

func TestNeighborhoodWeights(t *testing.T) {
	inst := triangle(t, 1, 2, 3)
	nw := NeighborhoodWeights(inst)
	// Every pair of sets intersects, so N[S] = everything, weight 6.
	for i, w := range nw {
		if w != 6 {
			t.Errorf("w(N[%d]) = %v, want 6", i, w)
		}
	}

	// Disjoint sets: N[S] = {S}.
	var b setsystem.Builder
	s0 := b.AddSet(4)
	s1 := b.AddSet(7)
	b.AddElement(s0)
	b.AddElement(s1)
	inst2 := b.MustBuild()
	nw2 := NeighborhoodWeights(inst2)
	if nw2[0] != 4 || nw2[1] != 7 {
		t.Errorf("disjoint neighborhoods = %v, want [4 7]", nw2)
	}
}

func TestRandPrExpectedBenefitClosedForm(t *testing.T) {
	inst := triangle(t, 1, 2, 3)
	// Each set survives with probability w/6, so E = (1+4+9)/6.
	want := 14.0 / 6.0
	if got := RandPrExpectedBenefit(inst); math.Abs(got-want) > 1e-12 {
		t.Errorf("RandPrExpectedBenefit = %v, want %v", got, want)
	}
}

// Lemma 1: empirical survival probability equals w(S)/w(N[S]).
func TestLemma1Survival(t *testing.T) {
	inst := triangle(t, 1, 2, 3)
	const trials = 100000
	counts := make([]int, 3)
	alg := &RandPr{}
	for i := 0; i < trials; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		res, err := Run(inst, alg, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range res.Completed {
			counts[s]++
		}
	}
	for i, w := range inst.Weights {
		want := w / 6.0
		got := float64(counts[i]) / trials
		if math.Abs(got-want) > 0.01 {
			t.Errorf("Pr[set %d survives] = %v, want %v", i, got, want)
		}
	}
}

// Monte-Carlo benefit of RandPr matches the Lemma 1 closed form on a less
// symmetric instance.
func TestRandPrMonteCarloMatchesClosedForm(t *testing.T) {
	var b setsystem.Builder
	var s []setsystem.SetID
	for _, wi := range []float64{1, 1, 2, 3, 5} {
		s = append(s, b.AddSet(wi))
	}
	b.AddElement(s[0], s[1], s[2])
	b.AddElement(s[0], s[3])
	b.AddElement(s[1], s[4])
	b.AddElement(s[2])
	b.AddElement(s[3], s[4])
	inst := b.MustBuild()

	want := RandPrExpectedBenefit(inst)
	mean, stderr, err := MeanBenefit(inst, &RandPr{}, 60000, 42)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-want) > 4*stderr+0.02 {
		t.Errorf("MC mean = %v ± %v, closed form %v", mean, stderr, want)
	}
}

func TestRandPrNeedsRNG(t *testing.T) {
	inst := triangle(t, 1, 1, 1)
	if _, err := Run(inst, &RandPr{}, nil); err == nil {
		t.Error("RandPr without rng should error")
	}
}

func TestRandPrActiveOnlyNeverWorse(t *testing.T) {
	// On every seed, the active-only refinement completes a superset-weight
	// of the faithful algorithm? Not pointwise in general, but on this
	// triangle it should never be worse.
	inst := triangle(t, 1, 2, 3)
	for seed := int64(0); seed < 200; seed++ {
		base, err := Run(inst, &RandPr{}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		act, err := Run(inst, &RandPr{ActiveOnly: true}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if act.Benefit < base.Benefit {
			t.Fatalf("seed %d: activeOnly %v < faithful %v", seed, act.Benefit, base.Benefit)
		}
	}
}

func TestResetReusesPriorityBuffer(t *testing.T) {
	alg := &RandPr{}
	info := Info{Weights: []float64{1, 2, 3}, Sizes: []int{1, 1, 1}}
	rng := rand.New(rand.NewSource(1))
	if err := alg.Reset(info, rng); err != nil {
		t.Fatal(err)
	}
	p0 := alg.Priority(0)
	if p0 < 0 || p0 > 1 {
		t.Errorf("priority out of range: %v", p0)
	}
	hi := alg.state.hi
	if err := alg.Reset(info, rng); err != nil {
		t.Fatal(err)
	}
	if len(alg.state.hi) != 3 || &alg.state.hi[0] != &hi[0] {
		t.Errorf("priority keys not reused: len %d", len(alg.state.hi))
	}
}
