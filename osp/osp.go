// Package osp is the public API of this repository: a Go implementation of
// online set packing and the randPr algorithm from
//
//	Emek, Halldórsson, Mansour, Patt-Shamir, Radhakrishnan, Rawitz.
//	"Online Set Packing and Competitive Scheduling of Multi-Part Tasks",
//	PODC 2010.
//
// # The problem
//
// A weighted set system's elements arrive online; each element announces
// the sets containing it and a capacity b(u), and must immediately be
// assigned to at most b(u) of them. A set pays its weight only if it
// receives every one of its elements. OSP models a bottleneck router
// dropping packets of multi-packet frames (elements = time slots, sets =
// frames) and, more generally, multi-part tasks served at bounded-capacity
// servers.
//
// # Quick start
//
//	var b osp.Builder
//	a := b.AddSet(1)      // weight-1 frame
//	c := b.AddSet(2)      // weight-2 frame
//	b.AddElement(a, c)    // a time slot where both frames have a packet
//	b.AddElement(a)
//	b.AddElement(c)
//	inst := b.MustBuild()
//
//	res, err := osp.Run(inst, osp.NewRandPr(), rand.New(rand.NewSource(1)))
//	// res.Benefit is the completed weight; compare with osp.Exact(inst).
//
// The subpackage layout mirrors the paper: the core algorithm, the
// sharded concurrent streaming engine (NewEngine) that serves live
// element streams at multi-core throughput, offline optima for
// competitive-ratio measurements, the lower-bound constructions of
// Section 4, workload generators for the systems scenarios, and an
// experiment harness reproducing every theorem (see DESIGN.md and
// EXPERIMENTS.md).
package osp

import (
	"io"
	"math/rand"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hashpr"
	"repro/internal/lowerbound"
	"repro/internal/obs"
	"repro/internal/offline"
	"repro/internal/partial"
	"repro/internal/serve"
	"repro/internal/setsystem"
	"repro/internal/workload"
)

// Core problem types, re-exported from the engine.
type (
	// Instance is a complete OSP instance: set weights/sizes plus the
	// element arrival order.
	Instance = setsystem.Instance
	// Element is one online arrival: parent sets and capacity.
	Element = setsystem.Element
	// SetID identifies a set (dense indices 0..m-1).
	SetID = setsystem.SetID
	// Builder assembles instances incrementally.
	Builder = setsystem.Builder
	// Stats aggregates the instance parameters the paper's bounds use.
	Stats = setsystem.Stats

	// Algorithm is an online OSP algorithm (see core.Algorithm).
	Algorithm = core.Algorithm
	// Result summarizes one run: completed sets and total benefit.
	Result = core.Result
	// Source produces a (possibly adaptive) element stream.
	Source = core.Source
	// Info is the up-front knowledge an online algorithm receives:
	// per-set weights and declared sizes.
	Info = core.Info

	// Engine is the sharded concurrent streaming admission engine: it
	// serves a live element stream through a coordination-free admission
	// policy (EngineConfig.Policy, randPr by default) at multi-core
	// throughput, with results bit-for-bit identical to a serial run of
	// NewPolicyAlgorithm under the same policy and seed —
	// NewHashRandPr(seed) for the default policy.
	Engine = engine.Engine
	// EngineConfig sizes the engine — shard workers, ingestion batch size
	// and per-shard queue depth (backpressure) — and names its admission
	// policy (Policy field, "" = "randpr"; see PolicyNames for the
	// registered names).
	EngineConfig = engine.Config
	// EngineMetrics exposes the engine's live lock-free counters.
	EngineMetrics = engine.Metrics
	// EngineSnapshot is a point-in-time view of EngineMetrics.
	EngineSnapshot = engine.Snapshot
	// EngineState is an engine's lifecycle position: EngineIdle at
	// creation, EngineStreaming after the first accepted Submit,
	// EngineDrained (terminal) once Drain closes the stream.
	EngineState = engine.State

	// Server is the network-facing admission service: an http.Handler
	// exposing instance registration, batched element ingest with
	// immediate admit/drop verdicts (JSON requests, or binary frames
	// over a verdict stream upgraded from GET /v1/stream), drains, and
	// a Prometheus /metrics endpoint, all backed by a pool of
	// concurrent engines. Create with
	// NewServer, mount on any net/http server, and call Server.Shutdown
	// for a graceful drain of every live engine. The osp/client package
	// is the matching Go client; docs/OPERATIONS.md documents the HTTP
	// API and operational semantics.
	Server = serve.Server
	// ServerConfig sizes the admission service: the engine-pool instance
	// limit, the per-request ingest batch cap and the request body byte
	// cap.
	ServerConfig = serve.Config

	// Solution is an offline packing with its weight.
	Solution = offline.Solution

	// DecisionLog is the sampled decision log: bounded lock-free
	// per-shard rings capture every Nth admission decision, a drainer
	// goroutine flushes them asynchronously to per-instance tails and an
	// optional sink, and the hot path stays at zero allocations per
	// element (DESIGN.md §13). Create with NewDecisionLog, wire it into
	// ServerConfig.Decisions (or an EngineTelemetry directly) and Close
	// it when done.
	DecisionLog = obs.DecisionLog
	// DecisionLogConfig sizes a DecisionLog: sample rate, ring and tail
	// capacities, flush period and sink. The zero value is usable.
	DecisionLogConfig = obs.DecisionLogConfig
	// Decision is one sampled admission decision — the record the
	// decision log ships to sinks and the
	// GET /v1/instances/{id}/decisions endpoint serves.
	Decision = obs.Decision
	// DecisionSink receives flushed decision batches (JSON-lines and
	// in-memory implementations ship with the package; see NewJSONLSink).
	DecisionSink = obs.Sink
	// JSONLSink is the JSON-lines DecisionSink: one JSON object per
	// decision, buffered, flushed per batch and on Close.
	JSONLSink = obs.JSONLSink
	// EngineTelemetry bundles the instruments an engine records into:
	// a decision logger plus queue-wait and decide-latency histograms.
	// Attach via EngineConfig.Telemetry; any field may be nil.
	EngineTelemetry = obs.EngineTelemetry
	// Histogram is the fixed power-of-two-bucket latency histogram the
	// telemetry layer uses: one atomic add per observation, no locks, no
	// allocations.
	Histogram = obs.Histogram
	// HistogramSnapshot is a point-in-time copy of a Histogram with
	// merge and quantile helpers.
	HistogramSnapshot = obs.HistogramSnapshot
)

// ComputeStats scans an instance and returns its parameter statistics
// (σ, σmax, kmax, weighted loads, adjusted loads, …).
func ComputeStats(inst *Instance) Stats { return setsystem.Compute(inst) }

// InfoOf extracts the up-front information (weights and sizes) of an
// instance — what NewEngine needs before the stream starts.
func InfoOf(inst *Instance) Info { return core.InfoOf(inst) }

// NewEngine opens a sharded concurrent streaming engine over the given
// up-front information, running the admission policy named by cfg.Policy
// ("" = "randpr") set up deterministically from the shared 64-bit seed,
// so shards — and any serial or remote replica running the same (policy,
// seed) pair — agree on all decisions without coordination (Section 3.1,
// generalized by the policy contract in DESIGN.md §11). Feed arriving
// elements with Engine.Submit and close the stream with Engine.Drain; the
// drained Result is bit-for-bit identical to Run with
// NewPolicyAlgorithm(cfg.Policy, seed) — NewHashRandPr(seed) for the
// default policy. Submit copies each element's Members into the engine's
// flat batch buffers immediately, so callers may reuse one scratch member
// slice for every Submit; steady-state ingestion performs zero
// allocations per element (the tracked baseline BENCH_2.json,
// regenerated by cmd/ospperf, pins this along with the throughput matrix
// and the per-policy bench).
func NewEngine(info Info, seed uint64, cfg EngineConfig) (*Engine, error) {
	return engine.New(info, seed, cfg)
}

// RunEngine streams a whole instance through a fresh engine — the
// concurrent counterpart of Run(inst, alg, nil) with the matching
// NewPolicyAlgorithm.
func RunEngine(inst *Instance, seed uint64, cfg EngineConfig) (*Result, error) {
	return engine.Replay(inst, seed, cfg)
}

// PolicyNames returns the registered admission-policy names, sorted:
// "first-fit", "greedy-remaining", "randpr" (the default) and
// "randpr-weighted" as built-ins. Any of them is valid in
// EngineConfig.Policy and in a service registration's policy field.
func PolicyNames() []string { return core.PolicyNames() }

// PolicyInfo pairs a registered admission-policy name with its one-line
// description — the rows the admission service's GET /v1/policies
// discovery endpoint serves.
type PolicyInfo = core.PolicyInfo

// PolicyInfos returns every registered policy with its description,
// sorted by name.
func PolicyInfos() []PolicyInfo { return core.PolicyInfos() }

// DefaultPolicy is the admission policy used when none is named: the
// paper's randPr.
const DefaultPolicy = core.DefaultPolicy

// NewPolicyAlgorithm returns the serial oracle of the named admission
// policy under seed: an Algorithm whose Run result is bit-for-bit
// identical to a streaming-engine run of the same policy and seed at any
// shard count. The empty name resolves to DefaultPolicy; unknown names
// error with the registered alternatives.
func NewPolicyAlgorithm(name string, seed uint64) (Algorithm, error) {
	pol, err := core.LookupPolicy(name)
	if err != nil {
		return nil, err
	}
	return &core.PolicyAlgorithm{Policy: pol, Seed: seed}, nil
}

// Engine lifecycle states (see EngineState).
const (
	// EngineIdle: created, no element submitted yet.
	EngineIdle = engine.StateIdle
	// EngineStreaming: at least one element submitted, not yet drained.
	EngineStreaming = engine.StateStreaming
	// EngineDrained: Drain has run; the Result is final.
	EngineDrained = engine.StateDrained
)

// NewServer builds the networked admission service: HTTP and stream
// ingest over a concurrent engine pool. The returned Server is an http.Handler; serve
// it with net/http and shut it down gracefully with Server.Shutdown,
// which drains every live engine so in-flight elements are decided, not
// lost. cmd/ospserve -listen wraps exactly this, and cmd/osploadgen is a
// ready-made traffic source that cross-checks drained results against
// the serial NewHashRandPr oracle.
func NewServer(cfg ServerConfig) *Server { return serve.New(cfg) }

// NewDecisionLog builds a sampled decision log and starts its drainer
// goroutine. Wire it into ServerConfig.Decisions to enable the
// service's decision endpoint and sampling on every registered engine,
// or hand out loggers directly via DecisionLog.Logger for in-process
// engines. Close flushes the remaining records and stops the drainer.
func NewDecisionLog(cfg DecisionLogConfig) *DecisionLog { return obs.NewDecisionLog(cfg) }

// NewJSONLSink wraps a writer as a decision sink emitting one JSON
// object per decision per line — the ospserve -decision-log format,
// documented in docs/OPERATIONS.md. If w is an io.Closer, the sink's
// Close closes it after flushing.
func NewJSONLSink(w io.Writer) *JSONLSink { return obs.NewJSONLSink(w) }

// NewRandPr returns the paper's randomized algorithm: per-set priorities
// drawn from R_w(S), each element assigned to its highest-priority
// parents.
func NewRandPr() *core.RandPr { return &core.RandPr{} }

// NewRandPrActiveOnly returns the practical refinement of randPr that
// skips already-incompletable parents (ablation variant; the analysis
// applies to NewRandPr).
func NewRandPrActiveOnly() *core.RandPr { return &core.RandPr{ActiveOnly: true} }

// NewHashRandPr returns the distributed variant: priorities derived from a
// shared 64-bit seed via SplitMix64, so independent servers agree on every
// priority without coordination (Section 3.1).
func NewHashRandPr(seed uint64) *core.HashRandPr {
	return &core.HashRandPr{Hasher: hashpr.Mixer{Seed: seed}}
}

// Baselines returns the deterministic baseline policies (max-weight,
// fewest-remaining, first-listed).
func Baselines() []Algorithm { return core.Baselines() }

// Run replays a static instance against an algorithm. rng seeds the
// algorithm's randomness; it may be nil for deterministic algorithms.
func Run(inst *Instance, alg Algorithm, rng *rand.Rand) (*Result, error) {
	return core.Run(inst, alg, rng)
}

// RunSource streams elements from a (possibly adaptive) source and also
// returns the materialized instance.
func RunSource(src Source, alg Algorithm, rng *rand.Rand) (*Result, *Instance, error) {
	return core.RunSource(src, alg, rng)
}

// MeanBenefit estimates E[w(ALG)] over repeated runs, returning mean and
// standard error.
func MeanBenefit(inst *Instance, alg Algorithm, trials int, seed int64) (mean, stderr float64, err error) {
	return core.MeanBenefit(inst, alg, trials, seed)
}

// ExpectedBenefit returns the exact expected benefit of randPr on a
// unit-capacity instance via the Lemma 1 closed form Σ w(S)²/w(N[S]).
func ExpectedBenefit(inst *Instance) float64 { return core.RandPrExpectedBenefit(inst) }

// Exact computes the offline optimum by branch-and-bound.
func Exact(inst *Instance) (*Solution, error) { return offline.Exact(inst) }

// GreedyOffline computes the offline greedy packing (a k-approximation and
// OPT lower bound).
func GreedyOffline(inst *Instance) *Solution { return offline.Greedy(inst) }

// LPBound returns the LP-relaxation optimum, an upper bound on OPT.
func LPBound(inst *Instance) (float64, error) { return offline.LPBound(inst) }

// Competitive-ratio bounds from the paper, as functions of instance
// statistics.
var (
	// Theorem1Bound: kmax·sqrt(mean(σ·σ$)/mean(σ$)) (unit capacity).
	Theorem1Bound = setsystem.Theorem1Bound
	// Corollary6Bound: kmax·sqrt(σmax).
	Corollary6Bound = setsystem.Corollary6Bound
	// Theorem4Bound: 16e·kmax·sqrt(mean(ν·σ$)/mean(σ$)) (variable capacity).
	Theorem4Bound = setsystem.Theorem4Bound
	// Theorem5Bound: k·mean(σ²)/mean(σ)² (uniform set size).
	Theorem5Bound = setsystem.Theorem5Bound
	// Theorem6Bound: mean(k)·sqrt(σ) (uniform load).
	Theorem6Bound = setsystem.Theorem6Bound
)

// NewDeterministicAdversary returns the Theorem 3 adaptive adversary as a
// Source: σ^k sets of size k; every deterministic algorithm completes at
// most one set while an offline packing of σ^(k−1) sets is certified.
func NewDeterministicAdversary(sigma, k int) (*lowerbound.DeterministicAdversary, error) {
	return lowerbound.NewDeterministicAdversary(sigma, k)
}

// NewLemma9 draws an instance from the randomized lower-bound distribution
// of Lemma 9 (Figure 1) for a prime power ℓ, with its planted optimum of
// ℓ³ disjoint sets.
func NewLemma9(l int, rng *rand.Rand) (*lowerbound.Lemma9Instance, error) {
	return lowerbound.NewLemma9(l, rng)
}

// Workload generators (see package workload for the full configuration
// surface).
var (
	// RandomInstance generates a uniform-load random instance.
	RandomInstance = workload.Uniform
	// VideoInstance synthesizes the bottleneck-router video scenario.
	VideoInstance = workload.Video
	// MultihopInstance synthesizes the multi-hop switch-line scenario.
	MultihopInstance = workload.Multihop
	// BurstyInstance synthesizes Markov-modulated on/off video sources.
	BurstyInstance = workload.Bursty
	// ZipfWeights builds a skewed frame-weight function.
	ZipfWeights = workload.ZipfWeights
)

// Workload configuration types.
type (
	// UniformConfig parameterizes RandomInstance.
	UniformConfig = workload.UniformConfig
	// VideoConfig parameterizes VideoInstance.
	VideoConfig = workload.VideoConfig
	// MultihopConfig parameterizes MultihopInstance.
	MultihopConfig = workload.MultihopConfig
	// BurstyConfig parameterizes BurstyInstance.
	BurstyConfig = workload.BurstyConfig
)

// Encode writes an instance in the repository's text trace format.
func Encode(w io.Writer, inst *Instance) error { return setsystem.Encode(w, inst) }

// Decode parses an instance from the text trace format.
func Decode(r io.Reader) (*Instance, error) { return setsystem.Decode(r) }

// PartialBenefit evaluates a run under the partial-credit relaxation of
// Section 5 (open problem 3): a set earns its weight when it missed at
// most slack of its elements.
func PartialBenefit(inst *Instance, res *Result, slack int) (float64, error) {
	return partial.Benefit(inst, res, slack)
}

// NewSlackAware wraps an algorithm so it keeps fighting for sets that are
// still within the partial-credit slack.
func NewSlackAware(inner Algorithm, slack int) Algorithm {
	return &partial.SlackAware{Inner: inner, Slack: slack}
}

// VerifyProofChain evaluates every inequality of Theorem 1's proof
// (Lemmas 1, 3, 4, 5, Eq. 4 and the final bound) on a unit-capacity
// instance with the given optimal packing, returning the intermediate
// values; see examples/proofchain.
func VerifyProofChain(inst *Instance, opt []SetID) (*analysis.Chain, error) {
	return analysis.Verify(inst, opt)
}

// SurvivalProbabilities returns randPr's exact per-set survival
// probabilities w(S)/w(N[S]) (Lemma 1) on a unit-capacity instance.
func SurvivalProbabilities(inst *Instance) []float64 {
	return analysis.SurvivalProbabilities(inst)
}
