package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"nl2cm"
)

// span is one timed interval of a replayed request. Spans of one request
// share req; parent indexes the enclosing span (-1 for the root).
type span struct {
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // offset from the replay's start
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory. It implements nl2cm.Observer: stage
// callbacks open and close child spans of the current request. The
// replay is sequential, so one tracer serves translator and engine.
type tracer struct {
	t0    time.Time
	req   int
	spans []span
	open  []int // stack of open span indexes
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) begin(name string) {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Req: t.req, Name: name, Parent: parent, Start: t.now()})
	t.open = append(t.open, len(t.spans)-1)
}

func (t *tracer) end(name string) {
	n := len(t.open)
	if n == 0 || t.spans[t.open[n-1]].Name != name {
		panic(fmt.Sprintf("tracer: end of %q does not match the open span", name)) // a nesting bug in the replay
	}
	t.spans[t.open[n-1]].End = t.now()
	t.open = t.open[:n-1]
}

func (t *tracer) StageStart(stage string)                         { t.begin(stage) }
func (t *tracer) StageEnd(stage string, _ time.Duration, _ error) { t.end(stage) }

// children returns the names of span p's direct children, in start order.
func (t *tracer) children(p int) []string {
	var out []string
	for _, s := range t.spans[p+1:] {
		if s.Parent == p {
			out = append(out, s.Name)
		}
	}
	return out
}

// replayCounts are the exact counts one replay produces; two replays of
// one input sequence must agree on all of them.
type replayCounts struct {
	Outcomes    map[string]int // plan-cache outcome per translation
	Executions  int
	Tasks       int
	WhereRows   int
	Answers     uint64
	Batches     uint64
	Decided     uint64
	Early       uint64
	StateHits   uint64
	StateMisses uint64
	QueueHigh   int64
}

// replayEnv is the in-process counterpart of one daemon: the ontology,
// translator, plan cache and crowd engine wired as newServer in
// cmd/nl2cmd wires them for the workload's flags.
type replayEnv struct {
	onto *nl2cm.Ontology
	tr   *nl2cm.Translator
	eng  *nl2cm.Engine
}

func newReplayEnv(wl *workload, batches []string) (*replayEnv, error) {
	onto, err := buildOntology(batches)
	if err != nil {
		return nil, err
	}
	tr := nl2cm.NewTranslator(onto)
	if wl.name != "read-cold" {
		tr.Cache = nl2cm.NewPlanCache(1024)
	}
	env := &replayEnv{onto: onto, tr: tr}
	if wl.name == "execute-fresh" {
		if env.eng, err = newCrowdEngine(onto, true); err != nil {
			return nil, err
		}
	}
	return env, nil
}

func (e *replayEnv) close() {
	if e.eng != nil && e.eng.Scale != nil {
		e.eng.Scale.Close()
	}
}

// replayRun is one environment's share of a paired replay.
type replayRun struct {
	wall   time.Duration // summed time of the measured requests
	counts *replayCounts
}

// replayPair runs the workload's warm-up untraced in two fresh
// environments, then its first n measured requests in lockstep: request
// i runs in the untraced environment and in the traced one (spans to
// tr) back to back, in alternating order. Both see the same machine
// conditions, so the difference of their summed times is the tracing
// overhead rather than the machine's drift.
func replayPair(wl *workload, batches []string, chk *checker, n int, tr *tracer) (plain, traced replayRun, err error) {
	var envs [2]*replayEnv
	var before [2]nl2cm.EngineStats
	runs := [2]*replayRun{&plain, &traced}
	for k := range envs {
		if envs[k], err = newReplayEnv(wl, batches); err != nil {
			return plain, traced, err
		}
		defer envs[k].close()
		for i, req := range wl.warmup {
			if err := envs[k].do(i, req, chk, nil, nil); err != nil {
				return plain, traced, fmt.Errorf("replay warm-up: %w", err)
			}
		}
		if envs[k].eng != nil {
			before[k] = envs[k].eng.Stats()
		}
		runs[k].counts = &replayCounts{Outcomes: map[string]int{}}
	}
	tracers := [2]*tracer{nil, tr}
	// Start from a collected heap, so the replay does not pay for the
	// set-up's or the HTTP run's garbage.
	runtime.GC()
	tr.t0 = time.Now()
	for i := 0; i < n; i++ {
		req, ok := wl.item(i)
		if !ok {
			break
		}
		for j := 0; j < 2; j++ {
			k := (i + j) % 2
			t0 := time.Now()
			if err := envs[k].do(i, req, chk, runs[k].counts, tracers[k]); err != nil {
				return plain, traced, fmt.Errorf("replay request %d: %w", i, err)
			}
			runs[k].wall += time.Since(t0)
		}
	}
	for k, env := range envs {
		if env.eng == nil {
			continue
		}
		st := env.eng.Stats()
		if st.Scale != nil && before[k].Scale != nil {
			d := st.Scale.Delta(*before[k].Scale)
			c := runs[k].counts
			c.Answers, c.Batches = d.MemberAnswers, d.BatchesDispatched
			c.Decided, c.Early = d.TasksDecided, d.EarlyDecided
			c.StateHits, c.StateMisses = d.StateHits, d.StateMisses
			c.QueueHigh = d.QueueHighWater
		}
	}
	return plain, traced, nil
}

// translationSpans returns the spans a translation must have recorded:
// the plan-cache probe when a cache is installed, and unless the cache
// served the result, the pipeline stages that ran (verification alone
// for an unsupported question, the emitter only for a non-default
// backend).
func (e *replayEnv) translationSpans(res *nl2cm.Result, backend string) []string {
	var out []string
	if e.tr.Cache != nil {
		out = append(out, nl2cm.StagePlanCache)
	}
	if res.CacheOutcome == "hit" || res.CacheOutcome == "rebound" {
		return out
	}
	stages := pipelineStages
	if backend == nl2cm.DefaultBackend {
		stages = stages[:len(stages)-1]
	}
	if !res.Verdict.Supported {
		stages = stages[:1]
	}
	for _, s := range stages {
		out = append(out, s.stage)
	}
	return out
}

// do runs one request in-process the way the daemon's handler does.
// With counts nil (warm-up) nothing is counted; with tr non-nil the
// request is traced, and its spans must be the ones its layers ran.
// Outputs are checked against the oracle.
func (e *replayEnv) do(i int, req request, chk *checker, counts *replayCounts, tr *tracer) error {
	ctx := context.Background()
	var obs nl2cm.Observer
	root := -1
	var want []string // the request span's children, in order
	if tr != nil {
		tr.req = i
		tr.begin("request")
		root = len(tr.spans) - 1
		defer tr.end("request")
		obs = tr
	}
	translate := func(q, backend string) (*nl2cm.Result, answer, error) {
		res, err := e.tr.Translate(ctx, q, nl2cm.Options{Trace: true, Backends: extraBackends(backend), Observer: obs})
		if err != nil {
			return nil, answer{}, err
		}
		want = append(want, e.translationSpans(res, backend)...)
		if counts != nil {
			outcome := res.CacheOutcome
			if outcome == "" {
				outcome = "bypass"
			}
			counts.Outcomes[outcome]++
		}
		a, ok := translateAnswer(res, backend)
		if !ok {
			return nil, answer{}, fmt.Errorf("backend %s cannot render %q", backend, q)
		}
		return res, a, nil
	}
	switch req.op {
	case opTranslate:
		_, got, err := translate(req.question, req.backend)
		if err != nil {
			return err
		}
		if got != chk.oracle[oracleKey(req.question, req.backend)] {
			return fmt.Errorf("%q (%s): answer differs from the oracle", req.question, req.backend)
		}
	case opExecute:
		res, _, err := translate(req.question, nl2cm.DefaultBackend)
		if err != nil {
			return err
		}
		e.eng.Observer = obs
		crowd := -1
		if tr != nil {
			crowd = len(tr.spans)
		}
		out, err := e.eng.Execute(ctx, res.Query)
		e.eng.Observer = nil
		if err != nil {
			return err
		}
		want = append(want, nl2cm.StageCrowd)
		if tr != nil && crowd < len(tr.spans) {
			// One span per SATISFYING subclause inside the crowd stage.
			var sub []string
			for k := range res.Query.Satisfying {
				sub = append(sub, fmt.Sprintf("SATISFYING %d", k+1))
			}
			if got := tr.children(crowd); !slices.Equal(got, sub) {
				chk.fail("replay request %d: crowd spans %v, want %v", i, got, sub)
			}
		}
		if counts != nil {
			counts.Executions++
			counts.Tasks += out.TasksIssued
			counts.WhereRows += out.WhereBindings
		}
	case opWrite:
		w := writeFor(chk.writes, req.write)
		batch := nl2cm.StoreBatch{}
		var err error
		if batch.Insert, err = nl2cm.ParseTriples(strings.NewReader(w.triples())); err != nil {
			return err
		}
		if batch.Delete, err = nl2cm.ParseTriples(strings.NewReader(deleteFor(chk.writes, req.write))); err != nil {
			return err
		}
		if tr != nil {
			tr.begin("rdf.apply")
		}
		_, _, _, err = e.onto.Store.Apply(batch)
		if tr != nil {
			tr.end("rdf.apply")
			tr.begin("ontology.derive")
		}
		// The first lookup after a write derives the new epoch's index;
		// a phrase no label contains keeps the lookup itself trivial.
		e.onto.Lookup("zzzzzz")
		if tr != nil {
			tr.end("ontology.derive")
		}
		if err != nil {
			return err
		}
		want = append(want, "rdf.apply", "ontology.derive")
		_, got, err := translate(fmt.Sprintf(probeTemplate, w.label), nl2cm.DefaultBackend)
		if err != nil {
			return err
		}
		if !got.supported || !strings.Contains(got.query, w.local()) {
			return fmt.Errorf("probe does not bind %s", w.local())
		}
	}
	if tr != nil {
		if got := tr.children(root); !slices.Equal(got, want) {
			chk.fail("replay request %d: spans %v, want %v", i, got, want)
		}
	}
	return nil
}

// spanStats turns recorded spans into per-layer self times. A span's
// self time is its duration minus the union of its children's
// intervals; the root's self time is the untraced remainder. Spans nest
// strictly (the tracer is a stack), so a request's self times add up to
// its span by construction.
type spanStats struct {
	self     map[string][]int64 // span name → self times
	total    map[string]int64   // span name → summed self time
	rootSum  int64              // summed request durations
	requests int
}

func analyzeSpans(spans []span) *spanStats {
	st := &spanStats{self: map[string][]int64{}, total: map[string]int64{}}
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i, s := range spans {
		cs := children[i]
		sort.Slice(cs, func(a, b int) bool { return spans[cs[a]].Start < spans[cs[b]].Start })
		var covered, curS, curE int64
		curS, curE = -1, -1
		for _, c := range cs {
			cs, ce := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if ce <= cs {
				continue
			}
			if cs > curE {
				if curE > curS {
					covered += curE - curS
				}
				curS, curE = cs, ce
			} else if ce > curE {
				curE = ce
			}
		}
		if curE > curS {
			covered += curE - curS
		}
		self := s.End - s.Start - covered
		st.self[s.Name] = append(st.self[s.Name], self)
		st.total[s.Name] += self
		if s.Parent < 0 {
			st.rootSum += s.End - s.Start
			st.requests++
		}
	}
	return st
}

// writeSpans dumps the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
