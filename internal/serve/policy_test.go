package serve

import (
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestRegisterPolicies registers one instance per built-in policy and pins
// the echo surfaces: the register response, the status row, the metrics
// info gauge, and — after a full ingest/drain round trip — a drained
// result bit-for-bit equal to the policy's serial oracle.
func TestRegisterPolicies(t *testing.T) {
	const seed = 31
	inst := uniformInst(t, 30, 900, 4, 11)
	s := New(Config{})

	for _, name := range core.PolicyNames() {
		var reg RegisterResponse
		rec := do(t, s, "POST", "/v1/instances", RegisterRequest{
			Weights: inst.Weights, Sizes: inst.Sizes, Seed: seed,
			Shards: 2, BatchSize: 16, Policy: name, Label: name,
		}, &reg)
		if rec.Code != http.StatusCreated {
			t.Fatalf("%s: register status %d: %s", name, rec.Code, rec.Body.String())
		}
		if reg.Policy != name {
			t.Errorf("%s: register echoed policy %q", name, reg.Policy)
		}

		rec = do(t, s, "POST", "/v1/instances/"+reg.ID+"/elements",
			IngestRequest{Elements: wireElems(inst.Elements)}, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: ingest status %d: %s", name, rec.Code, rec.Body.String())
		}
		var dr DrainResponse
		do(t, s, "POST", "/v1/instances/"+reg.ID+"/drain", nil, &dr)

		pol, err := core.LookupPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := core.Run(inst, &core.PolicyAlgorithm{Policy: pol, Seed: seed}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := dr.Result.Core(); !got.Equal(oracle) {
			t.Errorf("%s: drained result differs from serial oracle (%v vs %v)",
				name, got.Benefit, oracle.Benefit)
		}

		var st InstanceStatus
		do(t, s, "GET", "/v1/instances/"+reg.ID, nil, &st)
		if st.Policy != name {
			t.Errorf("%s: status policy = %q", name, st.Policy)
		}
	}

	// The default is resolved and echoed, not left empty.
	var reg RegisterResponse
	do(t, s, "POST", "/v1/instances", RegisterRequest{
		Weights: inst.Weights, Sizes: inst.Sizes, Seed: seed,
	}, &reg)
	if reg.Policy != core.DefaultPolicy {
		t.Errorf("default register echoed policy %q, want %q", reg.Policy, core.DefaultPolicy)
	}

	rec := do(t, s, "GET", "/metrics", nil, nil)
	body := rec.Body.String()
	for _, name := range core.PolicyNames() {
		frag := `,policy="` + name + `"} 1`
		if !strings.Contains(body, frag) {
			t.Errorf("metrics exposition missing osp_instance_policy series for %s:\n%s", name, body)
		}
	}
	if !strings.Contains(body, "# TYPE osp_instance_policy gauge") {
		t.Error("metrics exposition missing the osp_instance_policy TYPE line")
	}
}

// TestRegisterUnknownPolicy400 pins the registry validation: an unknown
// policy name is a 400 naming the registered alternatives, and nothing is
// registered.
func TestRegisterUnknownPolicy400(t *testing.T) {
	s := New(Config{})
	rec := do(t, s, "POST", "/v1/instances", RegisterRequest{
		Weights: []float64{1}, Sizes: []int{1}, Policy: "no-such-policy",
	}, nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown policy: status %d, want 400 (%s)", rec.Code, rec.Body.String())
	}
	if body := rec.Body.String(); !strings.Contains(body, "no-such-policy") || !strings.Contains(body, core.DefaultPolicy) {
		t.Errorf("error body should name the bad policy and the alternatives: %s", body)
	}
	if s.Pool().Len() != 0 {
		t.Errorf("rejected registration leaked an instance into the pool")
	}
}

// TestPoliciesEndpoint covers the discovery endpoint: every registered
// policy appears with a non-empty one-line description, sorted by name —
// the registry-driven replacement for hardcoding the built-in names.
func TestPoliciesEndpoint(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(t.Context())
	var resp PoliciesResponse
	rec := do(t, s, "GET", "/v1/policies", nil, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/policies: status %d: %s", rec.Code, rec.Body.String())
	}
	want := []string{"first-fit", "greedy-remaining", "randpr", "randpr-weighted"}
	if len(resp.Policies) < len(want) {
		t.Fatalf("%d policies, want at least %d", len(resp.Policies), len(want))
	}
	byName := map[string]string{}
	var names []string
	for _, p := range resp.Policies {
		byName[p.Name] = p.Description
		names = append(names, p.Name)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("policies not sorted: %q before %q", names[i-1], names[i])
		}
	}
	for _, name := range want {
		if desc, ok := byName[name]; !ok {
			t.Errorf("built-in %q missing from /v1/policies", name)
		} else if desc == "" {
			t.Errorf("built-in %q has an empty description", name)
		}
	}
}
