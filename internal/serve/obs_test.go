package serve

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// ---- exposition parser (the satellite's parser-based /metrics test) ----

// promSample is one parsed exposition sample.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// promFamily is one metric family: its metadata plus every sample that
// belongs to it (for histograms that includes _bucket/_sum/_count).
type promFamily struct {
	help, kind string
	samples    []promSample
}

// baseFamily strips the histogram sample suffixes back to the family
// name the HELP/TYPE lines declare.
func baseFamily(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf)
		}
	}
	return name
}

// parseExposition parses Prometheus text format 0.0.4 strictly enough
// to validate well-formedness: HELP/TYPE handling, sample lines with
// quoted/escaped label values, float values.
func parseExposition(t *testing.T, r io.Reader) map[string]*promFamily {
	t.Helper()
	fams := map[string]*promFamily{}
	fam := func(name string) *promFamily {
		f, ok := fams[name]
		if !ok {
			f = &promFamily{}
			fams[name] = f
		}
		return f
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: HELP without text: %q", lineNo, line)
			}
			fam(name).help = help
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: TYPE without kind: %q", lineNo, line)
			}
			switch kind {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: invalid TYPE %q", lineNo, kind)
			}
			if fams[name] != nil && fams[name].kind != "" {
				t.Fatalf("line %d: duplicate TYPE for %s", lineNo, name)
			}
			fam(name).kind = kind
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // comment
		}
		s := parseSampleLine(t, lineNo, line)
		fam(baseFamily(s.name)).samples = append(fam(baseFamily(s.name)).samples, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return fams
}

// parseSampleLine parses `name{k="v",...} value` or `name value`.
func parseSampleLine(t *testing.T, lineNo int, line string) promSample {
	t.Helper()
	s := promSample{labels: map[string]string{}}
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		s.name = rest[:i]
		rest = rest[i+1:]
		for {
			eq := strings.IndexByte(rest, '=')
			if eq < 0 || len(rest) < eq+2 || rest[eq+1] != '"' {
				t.Fatalf("line %d: malformed label in %q", lineNo, line)
			}
			key := rest[:eq]
			rest = rest[eq+2:]
			// Scan the quoted value honoring backslash escapes.
			var val strings.Builder
			j := 0
			for ; j < len(rest); j++ {
				if rest[j] == '\\' && j+1 < len(rest) {
					switch rest[j+1] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						t.Fatalf("line %d: bad escape \\%c", lineNo, rest[j+1])
					}
					j++
					continue
				}
				if rest[j] == '"' {
					break
				}
				val.WriteByte(rest[j])
			}
			if j == len(rest) {
				t.Fatalf("line %d: unterminated label value in %q", lineNo, line)
			}
			s.labels[key] = val.String()
			rest = rest[j+1:]
			if strings.HasPrefix(rest, ",") {
				rest = rest[1:]
				continue
			}
			if strings.HasPrefix(rest, "} ") {
				rest = rest[2:]
				break
			}
			t.Fatalf("line %d: malformed label block in %q", lineNo, line)
		}
	} else {
		name, v, ok := strings.Cut(rest, " ")
		if !ok {
			t.Fatalf("line %d: no value in %q", lineNo, line)
		}
		s.name, rest = name, v
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil && strings.TrimSpace(rest) != "+Inf" {
		t.Fatalf("line %d: bad value %q: %v", lineNo, rest, err)
	}
	s.value = v
	return s
}

// labelsWithoutLe renders a sample's label set minus le, as a stable
// grouping key for histogram series.
func labelsWithoutLe(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != "le" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s;", k, labels[k])
	}
	return b.String()
}

// validateExposition runs the well-formedness checks over a parsed
// scrape: every family has HELP and TYPE, histogram buckets are
// cumulative (monotone nondecreasing in le order), the +Inf bucket
// exists and equals _count.
func validateExposition(t *testing.T, fams map[string]*promFamily) {
	t.Helper()
	if len(fams) == 0 {
		t.Fatal("empty exposition")
	}
	for name, f := range fams {
		if f.help == "" {
			t.Errorf("family %s has no HELP", name)
		}
		if f.kind == "" {
			t.Errorf("family %s has no TYPE", name)
		}
		if f.kind != "histogram" {
			continue
		}
		type series struct {
			bounds []float64
			counts []float64
			count  float64
			hasCnt bool
			hasSum bool
			hasInf bool
			inf    float64
		}
		groups := map[string]*series{}
		group := func(s promSample) *series {
			key := labelsWithoutLe(s.labels)
			g, ok := groups[key]
			if !ok {
				g = &series{}
				groups[key] = g
			}
			return g
		}
		for _, s := range f.samples {
			switch s.name {
			case name + "_bucket":
				le, ok := s.labels["le"]
				if !ok {
					t.Errorf("%s: bucket without le label", name)
					continue
				}
				g := group(s)
				if le == "+Inf" {
					g.hasInf, g.inf = true, s.value
					continue
				}
				bound, err := strconv.ParseFloat(le, 64)
				if err != nil {
					t.Errorf("%s: unparseable le %q", name, le)
					continue
				}
				g.bounds = append(g.bounds, bound)
				g.counts = append(g.counts, s.value)
			case name + "_count":
				g := group(s)
				g.hasCnt, g.count = true, s.value
			case name + "_sum":
				group(s).hasSum = true
			default:
				t.Errorf("%s: stray sample %s in histogram family", name, s.name)
			}
		}
		for key, g := range groups {
			if !g.hasCnt || !g.hasSum || !g.hasInf {
				t.Errorf("%s{%s}: incomplete histogram (count=%v sum=%v +Inf=%v)",
					name, key, g.hasCnt, g.hasSum, g.hasInf)
				continue
			}
			if g.inf != g.count {
				t.Errorf("%s{%s}: +Inf bucket %v != count %v", name, key, g.inf, g.count)
			}
			sort.Sort(&boundSort{g.bounds, g.counts})
			for i := 1; i < len(g.counts); i++ {
				if g.counts[i] < g.counts[i-1] {
					t.Errorf("%s{%s}: bucket counts not cumulative at le=%v: %v < %v",
						name, key, g.bounds[i], g.counts[i], g.counts[i-1])
				}
			}
			if n := len(g.counts); n > 0 && g.counts[n-1] > g.inf {
				t.Errorf("%s{%s}: last finite bucket %v exceeds +Inf %v", name, key, g.counts[n-1], g.inf)
			}
		}
	}
}

// boundSort sorts bucket bounds and their counts together.
type boundSort struct{ bounds, counts []float64 }

func (b *boundSort) Len() int           { return len(b.bounds) }
func (b *boundSort) Less(i, j int) bool { return b.bounds[i] < b.bounds[j] }
func (b *boundSort) Swap(i, j int) {
	b.bounds[i], b.bounds[j] = b.bounds[j], b.bounds[i]
	b.counts[i], b.counts[j] = b.counts[j], b.counts[i]
}

// scrape fetches /metrics through the handler and parses it.
func scrape(t *testing.T, s *Server) map[string]*promFamily {
	t.Helper()
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", rec.Code)
	}
	return parseExposition(t, rec.Body)
}

// TestMetricsExpositionWellFormed drives a workload through both ingest
// arms (JSON, and the stream through the upgrade), several error
// responses and a drain, then validates the whole
// scrape with the exposition parser — every family has HELP/TYPE,
// histogram buckets are cumulative and +Inf equals _count — and checks
// the new server-level families are present and consistent.
func TestMetricsExpositionWellFormed(t *testing.T) {
	dlog := obs.NewDecisionLog(obs.DecisionLogConfig{SampleEvery: 4, FlushEvery: time.Hour})
	defer dlog.Close()
	s := New(Config{Decisions: dlog})
	defer s.Shutdown(t.Context())

	inst := uniformInst(t, 60, 1200, 5, 17)
	id := register(t, s, inst, 11)
	// JSON ingest.
	rec := do(t, s, "POST", "/v1/instances/"+id+"/elements",
		IngestRequest{Elements: wireElems(inst.Elements[:600])}, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", rec.Code, rec.Body.String())
	}
	// Stream ingest through the upgrade of the main listener.
	ts := upgradeStream(t, startHTTP(t, s), id)
	ts.send(inst.Elements[600:])
	ts.recv(inst.Elements[600:])
	ts.fin()
	// Provoke countable non-2xx outcomes.
	do(t, s, "GET", "/v1/instances/i-999", nil, nil)          // 404
	do(t, s, "POST", "/v1/instances", RegisterRequest{}, nil) // 400
	do(t, s, "GET", "/nowhere", nil, nil)                     // unrouted
	do(t, s, "POST", "/v1/instances/"+id+"/drain", nil, nil)  // 200
	do(t, s, "GET", "/v1/instances/"+id+"/decisions?n=5", nil, nil)

	fams := scrape(t, s)
	validateExposition(t, fams)

	hist, ok := fams["osp_stage_duration_seconds"]
	if !ok || hist.kind != "histogram" {
		t.Fatal("osp_stage_duration_seconds missing or not a histogram")
	}
	stages := map[string]bool{}
	for _, smp := range hist.samples {
		stages[smp.labels["stage"]] = true
	}
	for _, want := range []string{"ingest_decode", "queue_wait", "decide", "request"} {
		if !stages[want] {
			t.Errorf("stage %q has no series", want)
		}
	}
	// The JSON arm decoded and the engine ran, so these stages observed.
	for _, smp := range hist.samples {
		if smp.name == "osp_stage_duration_seconds_count" &&
			(smp.labels["stage"] == "ingest_decode" || smp.labels["stage"] == "request") &&
			smp.value == 0 {
			t.Errorf("stage %q observed nothing", smp.labels["stage"])
		}
	}

	httpFam, ok := fams["osp_http_requests_total"]
	if !ok || httpFam.kind != "counter" {
		t.Fatal("osp_http_requests_total missing or not a counter")
	}
	seen := map[string]bool{}
	for _, smp := range httpFam.samples {
		seen[smp.labels["handler"]+"|"+smp.labels["code"]] = true
	}
	for _, want := range []string{
		"POST /v1/instances/{id}/elements|200",
		"GET /v1/stream|101",
		"GET /v1/instances/{id}|404",
		"POST /v1/instances|400",
		"POST /v1/instances|201",
		"other|404",
	} {
		if !seen[want] {
			t.Errorf("no osp_http_requests_total series for %q (have %v)", want, seen)
		}
	}

	for _, name := range []string{
		"osp_decision_log_flushed_total", "osp_decision_log_dropped_total",
		"osp_decision_log_sample_every", "osp_build_info", "osp_go_goroutines",
		"osp_go_heap_alloc_bytes", "osp_go_gc_pause_seconds_total",
	} {
		if _, ok := fams[name]; !ok {
			t.Errorf("family %s missing from scrape", name)
		}
	}
	if v := fams["osp_decision_log_sample_every"].samples[0].value; v != 4 {
		t.Errorf("osp_decision_log_sample_every = %v, want 4", v)
	}
}

// TestMetricsExpositionLiveScrape runs the same parser checks against a
// live server scrape named by OSP_METRICS_URL — CI's service-smoke job
// points it at the running ospserve. Skipped when the variable is
// unset.
func TestMetricsExpositionLiveScrape(t *testing.T) {
	url := os.Getenv("OSP_METRICS_URL")
	if url == "" {
		t.Skip("OSP_METRICS_URL not set; live-scrape validation runs in service-smoke CI")
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("scrape %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape %s: status %d", url, resp.StatusCode)
	}
	validateExposition(t, parseExposition(t, resp.Body))
}

// TestDecisionsEndpoint covers GET /v1/instances/{id}/decisions: tail
// contents after sampled ingest, the ?n= bound, the 404 for unknown
// instances, and the schema fields the operator relies on.
func TestDecisionsEndpoint(t *testing.T) {
	dlog := obs.NewDecisionLog(obs.DecisionLogConfig{SampleEvery: 1, FlushEvery: time.Hour})
	defer dlog.Close()
	s := New(Config{Decisions: dlog})
	defer s.Shutdown(t.Context())

	inst := uniformInst(t, 40, 300, 4, 9)
	id := register(t, s, inst, 3)
	rec := do(t, s, "POST", "/v1/instances/"+id+"/elements",
		IngestRequest{Elements: wireElems(inst.Elements)}, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", rec.Code, rec.Body.String())
	}
	do(t, s, "POST", "/v1/instances/"+id+"/drain", nil, nil)

	var resp DecisionsResponse
	if rec := do(t, s, "GET", "/v1/instances/"+id+"/decisions", nil, &resp); rec.Code != http.StatusOK {
		t.Fatalf("decisions: status %d: %s", rec.Code, rec.Body.String())
	}
	if resp.Instance != id || resp.SampleEvery != 1 {
		t.Fatalf("decisions response header = %+v", resp)
	}
	if len(resp.Decisions) == 0 {
		t.Fatal("no decisions in tail after sampling every element")
	}
	for _, d := range resp.Decisions {
		if d.Instance != id {
			t.Fatalf("decision labeled %q, want %q", d.Instance, id)
		}
		if d.Policy != "randpr" {
			t.Fatalf("decision policy %q, want randpr", d.Policy)
		}
		if d.Element >= uint64(len(inst.Elements)) {
			t.Fatalf("decision element %d out of range", d.Element)
		}
		if d.Members < 1 || d.TimeUnixNano == 0 {
			t.Fatalf("decision not populated: %+v", d)
		}
	}

	var bounded DecisionsResponse
	do(t, s, "GET", "/v1/instances/"+id+"/decisions?n=3", nil, &bounded)
	if len(bounded.Decisions) != 3 {
		t.Fatalf("?n=3 returned %d decisions", len(bounded.Decisions))
	}
	last := resp.Decisions[len(resp.Decisions)-3:]
	for i := range last {
		if bounded.Decisions[i] != last[i] {
			t.Fatalf("?n=3 did not return the newest entries")
		}
	}

	if rec := do(t, s, "GET", "/v1/instances/"+id+"/decisions?n=zero", nil, nil); rec.Code != http.StatusBadRequest {
		t.Errorf("bad n: status %d, want 400", rec.Code)
	}
	if rec := do(t, s, "GET", "/v1/instances/i-999/decisions", nil, nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown instance: status %d, want 404", rec.Code)
	}
}

// TestDecisionsEndpointDisabled pins the opt-in contract: without a
// decision log the endpoint is 404 for live instances too.
func TestDecisionsEndpointDisabled(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(t.Context())
	inst := uniformInst(t, 20, 50, 3, 2)
	id := register(t, s, inst, 1)
	rec := do(t, s, "GET", "/v1/instances/"+id+"/decisions", nil, nil)
	if rec.Code != http.StatusNotFound {
		t.Errorf("decisions with log disabled: status %d, want 404", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "decision log disabled") {
		t.Errorf("unhelpful 404 body: %s", rec.Body.String())
	}
}

// TestInstanceRemovalFlushesDecisions pins the detach hook: removing an
// instance flushes its rings to the sink and stops serving its tail.
func TestInstanceRemovalFlushesDecisions(t *testing.T) {
	sink := new(obs.MemorySink)
	dlog := obs.NewDecisionLog(obs.DecisionLogConfig{SampleEvery: 1, FlushEvery: time.Hour, Sink: sink})
	defer dlog.Close()
	s := New(Config{Decisions: dlog})
	defer s.Shutdown(t.Context())

	inst := uniformInst(t, 20, 64, 3, 5)
	id := register(t, s, inst, 7)
	do(t, s, "POST", "/v1/instances/"+id+"/elements",
		IngestRequest{Elements: wireElems(inst.Elements)}, nil)
	if rec := do(t, s, "DELETE", "/v1/instances/"+id, nil, nil); rec.Code != http.StatusNoContent {
		t.Fatalf("remove: status %d", rec.Code)
	}
	if sink.Len() != len(inst.Elements) {
		t.Errorf("sink holds %d decisions after removal, want %d", sink.Len(), len(inst.Elements))
	}
	if _, ok := dlog.Tail(id, 0); ok {
		t.Error("removed instance still has a registered decision logger")
	}
}

// TestPprofGate covers the -pprof flag's server half: the profiling
// surface exists only when enabled.
func TestPprofGate(t *testing.T) {
	on := New(Config{EnablePprof: true})
	defer on.Shutdown(t.Context())
	rec := httptest.NewRecorder()
	on.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("pprof enabled: GET /debug/pprof/ status %d, want 200", rec.Code)
	}
	rec = httptest.NewRecorder()
	on.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/heap?debug=1", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("pprof enabled: heap profile status %d, want 200", rec.Code)
	}

	off := New(Config{})
	defer off.Shutdown(t.Context())
	rec = httptest.NewRecorder()
	off.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("pprof disabled: GET /debug/pprof/ status %d, want 404", rec.Code)
	}
}
