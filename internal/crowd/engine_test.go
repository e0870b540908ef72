package crowd

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"nl2cm/internal/core"
	"nl2cm/internal/oassisql"
	"nl2cm/internal/ontology"
	"nl2cm/internal/rdf"
	"nl2cm/internal/sparql"
)

// runningExampleQuery returns the rebased Figure 1 query (two
// subclauses) for engine-level tests.
func runningExampleQuery(t *testing.T) *oassisql.Query {
	t.Helper()
	q := oassisql.MustParse(`SELECT VARIABLES
WHERE
{$x instanceOf Place.
$x near Forest_Hotel,_Buffalo,_NY}
SATISFYING
{$x hasLabel "interesting"}
ORDER BY DESC(SUPPORT)
LIMIT 5
AND
{[] visit $x.
[] in Fall}
WITH SUPPORT THRESHOLD = 0.1`)
	rebase(q)
	return q
}

// Regression for a binding-loss bug: distinct bindings that ground to
// the same fact-set shared one crowd task, but only the first binding
// per fact key survived the subclause — the others were silently
// dropped from the result.
func TestSharedFactKeyKeepsAllBindings(t *testing.T) {
	onto := ontology.New("test")
	place := onto.AddClass("Place", "place", rdf.Term{})
	park := onto.AddEntity("Park1", "Park 1", "", place)
	nearby := rdf.NewIRI("nearby")
	spotA := onto.AddEntity("Spot_A", "Spot A", "", rdf.Term{})
	spotB := onto.AddEntity("Spot_B", "Spot B", "", rdf.Term{})
	onto.Add(park, nearby, spotA)
	onto.Add(park, nearby, spotB)

	thr := 0.0
	q := &oassisql.Query{
		Select: oassisql.SelectClause{All: true},
		Where: oassisql.Pattern{Triples: []rdf.Triple{
			rdf.T(rdf.NewVar("x"), ontology.PredInstanceOf, place),
			rdf.T(rdf.NewVar("x"), nearby, rdf.NewVar("p")),
		}},
		Satisfying: []oassisql.Subclause{{
			// The pattern uses only $x, so both ($x, $p) bindings
			// ground to the same fact-set.
			Pattern: oassisql.Pattern{Triples: []rdf.Triple{
				rdf.T(rdf.NewVar("x"), rdf.NewIRI("hasLabel"), rdf.NewLiteral("interesting")),
			}},
			Threshold: &thr,
		}},
	}
	eng := NewEngine(onto, NewCrowd(10, 1))
	res, err := eng.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.WhereBindings != 2 {
		t.Fatalf("WHERE bindings = %d, want 2", res.WhereBindings)
	}
	// One crowd task (the crowd is asked once per distinct fact-set)…
	if res.TasksIssued != 1 {
		t.Errorf("tasks issued = %d, want 1", res.TasksIssued)
	}
	// …but both bindings survive.
	got := map[string]bool{}
	for _, b := range res.Bindings {
		if p, ok := b["p"]; ok {
			got[p.Local()] = true
		}
	}
	if !got["Spot_A"] || !got["Spot_B"] {
		t.Errorf("surviving bindings = %v, want both Spot_A and Spot_B", res.Bindings)
	}
}

// Regression for the open-variable mis-detection bug: boundness was
// decided by inspecting only bindings[0], so with heterogeneous
// upstream bindings (e.g. after OPTIONAL/UNION) a variable bound in
// the first row but open in another was never instantiated.
func TestExpandOpenVarsHeterogeneousBindings(t *testing.T) {
	eng := demoEngine()
	sc := oassisql.Subclause{Pattern: oassisql.Pattern{Triples: []rdf.Triple{
		rdf.T(rdf.NewVar("_anon1"), rdf.NewIRI("visit"), rdf.NewVar("x")),
	}}}
	bindings := []sparql.Binding{
		// bound row (the extra $y marks it apart from expansion output)
		{"x": ontology.E("Delaware_Park"), "y": ontology.E("Fall")},
		{}, // open row
	}
	out, err := eng.expandOpenVars(sc, bindings, eng.Onto.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) <= 2 {
		t.Fatalf("open row not expanded: got %d bindings", len(out))
	}
	for i, b := range out {
		if _, ok := b["x"]; !ok {
			t.Fatalf("binding %d leaves $x unbound: %v", i, b)
		}
	}
	// The bound row passes through unchanged, exactly once.
	n := 0
	for _, b := range out {
		if len(b) == 2 && b["x"].Equal(ontology.E("Delaware_Park")) {
			n++
		}
	}
	if n != 1 {
		t.Errorf("bound row appears %d times, want 1", n)
	}
}

func TestExecutePreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := demoEngine().Execute(ctx, runningExampleQuery(t))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var se *core.StageError
	if !errors.As(err, &se) || se.Stage != core.StageCrowd {
		t.Fatalf("err = %v, want StageError with stage %q", err, core.StageCrowd)
	}
}

// Cancellation mid-subclause: cancelling when the first subclause
// starts aborts before its crowd tasks are evaluated.
func TestExecuteCancelledMidSubclause(t *testing.T) {
	eng := demoEngine()
	eng.Workers = 1
	ctx, cancel := context.WithCancel(context.Background())
	eng.Observer = &cancelObserver{cancel: cancel, onStart: "SATISFYING 1"}
	_, err := eng.Execute(ctx, runningExampleQuery(t))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// Cancellation between subclauses: cancelling when the first subclause
// ends prevents the second from running.
func TestExecuteCancelledBetweenSubclauses(t *testing.T) {
	eng := demoEngine()
	ctx, cancel := context.WithCancel(context.Background())
	obs := &cancelObserver{cancel: cancel, onEnd: "SATISFYING 1"}
	eng.Observer = obs
	_, err := eng.Execute(ctx, runningExampleQuery(t))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if obs.started["SATISFYING 2"] {
		t.Error("second subclause ran despite cancellation")
	}
}

// cancelObserver cancels a context when a named stage starts or ends,
// and records which stages started.
type cancelObserver struct {
	cancel  context.CancelFunc
	onStart string
	onEnd   string
	started map[string]bool
}

func (o *cancelObserver) StageStart(stage string) {
	if o.started == nil {
		o.started = map[string]bool{}
	}
	o.started[stage] = true
	if stage == o.onStart {
		o.cancel()
	}
}

func (o *cancelObserver) StageEnd(stage string, d time.Duration, err error) {
	if stage == o.onEnd {
		o.cancel()
	}
}

// The parallel worker pool must not change results: a Workers=1 engine
// and a Workers=8 engine agree task by task.
func TestExecuteParallelMatchesSequential(t *testing.T) {
	q := runningExampleQuery(t)
	seq := demoEngine()
	seq.Workers = 1
	par := demoEngine()
	par.Workers = 8
	rs, err := seq.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := par.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Subclauses) != len(rp.Subclauses) {
		t.Fatalf("subclause counts differ: %d vs %d", len(rs.Subclauses), len(rp.Subclauses))
	}
	for i := range rs.Subclauses {
		a, b := rs.Subclauses[i].Tasks, rp.Subclauses[i].Tasks
		if len(a) != len(b) {
			t.Fatalf("subclause %d task counts differ: %d vs %d", i, len(a), len(b))
		}
		for j := range a {
			if a[j].Key != b[j].Key || a[j].Support != b[j].Support || a[j].Significant != b[j].Significant {
				t.Fatalf("subclause %d task %d differs: %+v vs %+v", i, j, a[j], b[j])
			}
		}
	}
	if len(rs.Bindings) != len(rp.Bindings) {
		t.Fatalf("binding counts differ: %d vs %d", len(rs.Bindings), len(rp.Bindings))
	}
}

// Concurrent executions on one shared engine (run under -race in CI).
func TestExecuteConcurrentStress(t *testing.T) {
	eng := demoEngine()
	q := runningExampleQuery(t)
	want, err := eng.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8*5)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				res, err := eng.Execute(context.Background(), q)
				if err != nil {
					errs <- err
					return
				}
				if res.TasksIssued != want.TasksIssued || len(res.Bindings) != len(want.Bindings) {
					errs <- errors.New("concurrent execution diverged")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestSupportCache(t *testing.T) {
	eng := demoEngine()
	q := runningExampleQuery(t)
	r1, err := eng.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheMisses != r1.TasksIssued || r1.CacheHits != 0 {
		t.Errorf("first run: hits=%d misses=%d tasks=%d, want all misses", r1.CacheHits, r1.CacheMisses, r1.TasksIssued)
	}
	r2, err := eng.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if r2.CacheHits != r2.TasksIssued || r2.CacheMisses != 0 {
		t.Errorf("second run: hits=%d misses=%d tasks=%d, want all hits", r2.CacheHits, r2.CacheMisses, r2.TasksIssued)
	}
	if r1.Subclauses[0].Tasks[0].Support != r2.Subclauses[0].Tasks[0].Support {
		t.Error("cached support differs from computed support")
	}
	hits, misses := eng.CacheStats()
	if int(hits) != r2.CacheHits || int(misses) != r1.CacheMisses {
		t.Errorf("CacheStats = (%d, %d), want (%d, %d)", hits, misses, r2.CacheHits, r1.CacheMisses)
	}

	// The cache keys on the effective sample size: changing it misses.
	eng.SampleSize = 7
	r3, err := eng.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if r3.CacheMisses != r3.TasksIssued {
		t.Errorf("sample-size change: misses=%d tasks=%d, want all misses", r3.CacheMisses, r3.TasksIssued)
	}

	// ResetCache drops memoized supports but never rewinds the
	// engine-lifetime counters (the monotonic-stats contract).
	hBefore, mBefore := eng.CacheStats()
	eng.ResetCache()
	if h, m := eng.CacheStats(); h != hBefore || m != mBefore {
		t.Errorf("ResetCache rewound counters: (%d, %d) -> (%d, %d)", hBefore, mBefore, h, m)
	}
	r4, err := eng.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if r4.CacheMisses != r4.TasksIssued {
		t.Errorf("post-reset run: misses=%d tasks=%d, want all misses (cache dropped)", r4.CacheMisses, r4.TasksIssued)
	}
	if _, m := eng.CacheStats(); m != mBefore+uint64(r4.CacheMisses) {
		t.Errorf("post-reset misses %d, want %d", m, mBefore+uint64(r4.CacheMisses))
	}
}

// The monotonic-counter contract must hold under concurrent Execute and
// ResetCache (run under -race by make check).
func TestResetCacheRaceSafe(t *testing.T) {
	eng := demoEngine()
	q := runningExampleQuery(t)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				eng.ResetCache()
				eng.Stats()
			}
		}
	}()
	var lastExecs uint64
	for i := 0; i < 10; i++ {
		if _, err := eng.Execute(context.Background(), q); err != nil {
			t.Fatal(err)
		}
		st := eng.Stats()
		if st.Executions <= lastExecs {
			t.Fatalf("Executions not monotonic: %d after %d", st.Executions, lastExecs)
		}
		lastExecs = st.Executions
	}
	close(stop)
	wg.Wait()
	st := eng.Stats()
	if st.Executions != 10 {
		t.Fatalf("Executions = %d, want 10", st.Executions)
	}
	if st.TasksIssued == 0 {
		t.Fatal("TasksIssued not recorded")
	}
}

// Observer callbacks: one Crowd Execution stage wrapping one
// "SATISFYING n" stage per subclause, with durations recorded on the
// result as well.
func TestExecuteObserverAndDurations(t *testing.T) {
	eng := demoEngine()
	var mu sync.Mutex
	var stages []string
	eng.Observer = core.ObserverFunc(func(stage string, d time.Duration, err error) {
		mu.Lock()
		stages = append(stages, stage)
		mu.Unlock()
	})
	res, err := eng.Execute(context.Background(), runningExampleQuery(t))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"SATISFYING 1", "SATISFYING 2", core.StageCrowd}
	if len(stages) != len(want) {
		t.Fatalf("observer stages = %v, want %v", stages, want)
	}
	for i := range want {
		if stages[i] != want[i] {
			t.Fatalf("observer stages = %v, want %v", stages, want)
		}
	}
	if res.Elapsed <= 0 {
		t.Error("Elapsed not recorded")
	}
	for _, sc := range res.Subclauses {
		if sc.Duration <= 0 {
			t.Errorf("subclause %d duration not recorded", sc.Index)
		}
	}
}

// Table-driven coverage of both significance criteria, including the
// threshold boundary and top-k ties (supports arrive sorted descending,
// as evalSubclause produces them).
func TestApplySignificance(t *testing.T) {
	thr := func(v float64) oassisql.Subclause { return oassisql.Subclause{Threshold: &v} }
	topk := func(k int, desc bool) oassisql.Subclause {
		return oassisql.Subclause{TopK: &oassisql.TopK{K: k, Desc: desc}}
	}
	cases := []struct {
		name     string
		sc       oassisql.Subclause
		supports []float64
		want     []bool
	}{
		{"threshold-boundary", thr(0.5), []float64{0.51, 0.5, 0.4999}, []bool{true, true, false}},
		{"threshold-zero-accepts-zero", thr(0), []float64{0.2, 0}, []bool{true, true}},
		{"threshold-none-pass", thr(0.9), []float64{0.5, 0.1}, []bool{false, false}},
		{"topk-desc", topk(2, true), []float64{0.9, 0.5, 0.1}, []bool{true, true, false}},
		{"topk-desc-tie-at-boundary", topk(2, true), []float64{0.9, 0.5, 0.5, 0.1}, []bool{true, true, false, false}},
		{"topk-desc-k-exceeds-len", topk(5, true), []float64{0.9, 0.1}, []bool{true, true}},
		{"topk-asc", topk(2, false), []float64{0.9, 0.5, 0.1, 0.05}, []bool{false, false, true, true}},
		{"topk-asc-tie-at-boundary", topk(1, false), []float64{0.9, 0.1, 0.1}, []bool{false, true, false}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := applySignificance(0, c.sc, c.supports)
			if err != nil {
				t.Fatal(err)
			}
			for i := range c.want {
				if got[i] != c.want[i] {
					t.Fatalf("significance = %v, want %v", got, c.want)
				}
			}
		})
	}
	if _, err := applySignificance(0, oassisql.Subclause{}, []float64{0.1}); err == nil {
		t.Error("missing criterion accepted")
	}
}
