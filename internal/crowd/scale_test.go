package crowd

import (
	"context"
	"testing"

	"nl2cm/internal/crowdscale"
	"nl2cm/internal/ontology"
	"nl2cm/internal/sparql"
)

func scaleEngine(t *testing.T, cfg crowdscale.Config) *Engine {
	t.Helper()
	eng := demoEngine()
	x, err := NewScaleExecutor(eng.Crowd, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(x.Close)
	eng.Scale = x
	return eng
}

// The scale path (both stopping rules) must reproduce the exhaustive
// path's significant tasks and final bindings on the running example —
// which exercises both criteria: top-5 desc, then a 0.1 threshold.
func TestScaleMatchesExhaustive(t *testing.T) {
	q := runningExampleQuery(t)
	base := demoEngine()
	want, err := base.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	for _, rule := range []crowdscale.Rule{crowdscale.RuleExact, crowdscale.RuleConfidence} {
		eng := scaleEngine(t, crowdscale.Config{Rule: rule})
		got, err := eng.Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Subclauses) != len(want.Subclauses) {
			t.Fatalf("rule=%v subclause counts differ", rule)
		}
		for i := range want.Subclauses {
			ws := map[string]bool{}
			for _, task := range want.Subclauses[i].Significant() {
				ws[task.Key] = true
			}
			gs := map[string]bool{}
			for _, task := range got.Subclauses[i].Significant() {
				gs[task.Key] = true
			}
			if len(ws) != len(gs) {
				t.Fatalf("rule=%v subclause %d: %d significant vs %d exhaustive", rule, i, len(gs), len(ws))
			}
			for k := range ws {
				if !gs[k] {
					t.Errorf("rule=%v subclause %d: exhaustive keeps %q, scale does not", rule, i, k)
				}
			}
		}
		wb := map[string]bool{}
		for _, b := range want.Bindings {
			wb[sparql.BindingKey(b)] = true
		}
		for _, b := range got.Bindings {
			if !wb[sparql.BindingKey(b)] {
				t.Errorf("rule=%v extra binding %v", rule, b)
			}
		}
		if len(got.Bindings) != len(want.Bindings) {
			t.Errorf("rule=%v bindings %d, want %d", rule, len(got.Bindings), len(want.Bindings))
		}
	}
}

// Full sampling through the executor's queue (Supports) must agree
// support-for-support with the synchronous Crowd.Support over the
// running example's task keys.
func TestScaleSupportsOracle(t *testing.T) {
	eng := demoEngine()
	res, err := eng.Execute(context.Background(), runningExampleQuery(t))
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, sc := range res.Subclauses {
		for _, task := range sc.Tasks {
			keys = append(keys, task.Key)
		}
	}
	if len(keys) == 0 {
		t.Fatal("running example issued no tasks")
	}
	x, err := NewScaleExecutor(eng.Crowd, crowdscale.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	got, err := x.Supports(context.Background(), keys, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, key := range keys {
		want := eng.Crowd.Support(key, 0)
		if diff := got[i] - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("task %q: executor support %v, Crowd.Support %v", key, got[i], want)
		}
	}
}

// Result.Scale carries per-execution executor deltas; Engine.Stats
// carries the lifetime view and survives ResetCache.
func TestScaleMetrics(t *testing.T) {
	q := runningExampleQuery(t)
	eng := scaleEngine(t, crowdscale.Config{})
	res, err := eng.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scale == nil {
		t.Fatal("Result.Scale not populated")
	}
	if res.Scale.TasksDecided != uint64(res.TasksIssued) {
		t.Errorf("scale tasks %d, issued %d", res.Scale.TasksDecided, res.TasksIssued)
	}
	if res.Scale.MemberAnswers == 0 {
		t.Error("no member answers recorded")
	}
	if res.CacheHits != 0 || res.CacheMisses != 0 {
		t.Errorf("scale path touched the support cache: hits=%d misses=%d", res.CacheHits, res.CacheMisses)
	}
	st := eng.Stats()
	if st.Scale == nil || st.Scale.TasksDecided != res.Scale.TasksDecided {
		t.Errorf("engine stats scale section = %+v", st.Scale)
	}
	if st.Executions != 1 || st.TasksIssued != uint64(res.TasksIssued) {
		t.Errorf("engine stats = %+v", st)
	}

	// A repeat run reuses the executor's sampling states: no new answers.
	res2, err := eng.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Scale.MemberAnswers != 0 {
		t.Errorf("repeat run sampled %d answers despite cached states", res2.Scale.MemberAnswers)
	}
	if res2.Scale.StateHits == 0 {
		t.Error("repeat run recorded no state hits")
	}

	// ResetCache drops the states (next run resamples) but keeps the
	// lifetime counters monotonic.
	before := eng.Stats()
	eng.ResetCache()
	mid := eng.Stats()
	if mid.Scale.States != 0 {
		t.Errorf("ResetCache left %d sampling states", mid.Scale.States)
	}
	if mid.Scale.MemberAnswers != before.Scale.MemberAnswers || mid.Executions != before.Executions {
		t.Error("ResetCache rewound counters")
	}
	res3, err := eng.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Scale.MemberAnswers == 0 {
		t.Error("post-reset run resampled nothing")
	}
}

// The engine-level significance semantics must hold on a Population
// source too (a million-member crowd is addressed lazily; SampleSize
// limits the effective population).
func TestScalePopulationSource(t *testing.T) {
	pop := &crowdscale.Population{N: 1_000_000, Seed: 7, Truth: DemoTruth(), Skew: 1}
	x := crowdscale.New(pop, crowdscale.Config{})
	defer x.Close()
	eng := NewEngine(ontology.NewDemoOntology(), NewCrowd(1_000_000, 7))
	eng.Crowd.Truth = DemoTruth()
	eng.Scale = x
	res, err := eng.Execute(context.Background(), runningExampleQuery(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bindings) == 0 {
		t.Fatal("no significant bindings at 1M members")
	}
	if res.Scale.MemberAnswers >= res.Scale.AnswersSaved {
		t.Errorf("at 1M members early termination should dominate: asked %d, saved %d",
			res.Scale.MemberAnswers, res.Scale.AnswersSaved)
	}
}

func TestNewScaleExecutorRejectsTrimmedMean(t *testing.T) {
	c := NewCrowd(100, 1)
	c.TrimFraction = 0.1
	if _, err := NewScaleExecutor(c, crowdscale.Config{}); err == nil {
		t.Fatal("trimmed-mean crowd accepted")
	}
	if _, err := NewScaleExecutor(nil, crowdscale.Config{}); err == nil {
		t.Fatal("nil crowd accepted")
	}
}
