package nl2cm

// The benchmark harness: one bench per reproduced paper artifact (E1-E11,
// ablations A1-A2) plus engineering benches (P1-P5). Run with
//
//	go test -bench=. -benchmem
//
// EXPERIMENTS.md records the correspondence between benches and the
// paper's figures and claims.

import (
	"context"
	"fmt"
	"testing"

	"nl2cm/internal/core"
	"nl2cm/internal/corpus"
	"nl2cm/internal/crowd"
	"nl2cm/internal/eval"
	"nl2cm/internal/interact"
	"nl2cm/internal/ix"
	"nl2cm/internal/nlp"
	"nl2cm/internal/oassisql"
	"nl2cm/internal/ontology"
	"nl2cm/internal/rdf"
	"nl2cm/internal/sparql"
	"nl2cm/internal/verify"
)

const runningExample = "What are the most interesting places near Forest Hotel, Buffalo, we should visit in the fall?"

// benchTranslator builds the standard demo pipeline once per bench.
func benchTranslator(b *testing.B) (*ontology.Ontology, *core.Translator) {
	b.Helper()
	onto := ontology.NewDemoOntology()
	return onto, core.New(onto)
}

// BenchmarkE1_Figure1RunningExample translates the paper's running
// example into the Figure 1 query.
func BenchmarkE1_Figure1RunningExample(b *testing.B) {
	_, tr := benchTranslator(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := tr.Translate(context.Background(), runningExample, core.Options{})
		if err != nil || len(res.Query.Satisfying) != 2 {
			b.Fatalf("bad translation: %v", err)
		}
	}
}

// BenchmarkE2_Figure2PipelineTrace runs the pipeline with the admin-mode
// trace (Figure 2's data flow) enabled.
func BenchmarkE2_Figure2PipelineTrace(b *testing.B) {
	_, tr := benchTranslator(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := tr.Translate(context.Background(), runningExample, core.Options{Trace: true})
		if err != nil || len(res.Trace) < 5 {
			b.Fatalf("bad trace: %v", err)
		}
	}
}

// BenchmarkE3_Figure3Verification checks the verification gate over the
// whole corpus (Figure 3's entry step).
func BenchmarkE3_Figure3Verification(b *testing.B) {
	qs := corpus.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			v := verify.Check(q.Text)
			if v.Supported != q.Supported {
				b.Fatalf("verification flipped for %s", q.ID)
			}
		}
	}
}

// BenchmarkE4_Figure4IXVerification runs the IX verification dialogue
// with a scripted user.
func BenchmarkE4_Figure4IXVerification(b *testing.B) {
	_, tr := benchTranslator(b)
	policy := interact.Policy{Ask: map[interact.Point]bool{interact.PointIXVerification: true}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := core.Options{
			Interactor: &interact.Scripted{IXAnswers: [][]bool{{true, true}}},
			Policy:     policy,
		}
		if _, err := tr.Translate(context.Background(), runningExample, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5_Figure5LimitThreshold runs the significance dialogue.
func BenchmarkE5_Figure5LimitThreshold(b *testing.B) {
	_, tr := benchTranslator(b)
	policy := interact.Policy{Ask: map[interact.Point]bool{interact.PointSignificance: true}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := core.Options{
			Interactor: &interact.Scripted{TopKAnswers: []int{5}, ThresholdAnswers: []float64{0.1}},
			Policy:     policy,
		}
		res, err := tr.Translate(context.Background(), runningExample, opt)
		if err != nil || res.Query.Satisfying[0].TopK.K != 5 {
			b.Fatal("dialogue not applied")
		}
	}
}

// BenchmarkE6_Figure6FinalQuery measures the final-query display and the
// manual-edit round trip (print -> parse).
func BenchmarkE6_Figure6FinalQuery(b *testing.B) {
	_, tr := benchTranslator(b)
	res, err := tr.Translate(context.Background(), runningExample, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		text := res.Query.String()
		if _, err := oassisql.Parse(text); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7_TranslationQuality scores IX detection, verification and
// end-to-end translation over the gold corpus (the §4.1 claim).
func BenchmarkE7_TranslationQuality(b *testing.B) {
	qs := corpus.All()
	onto := ontology.NewDemoOntology()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := eval.ScoreIXDetection(ix.NewDetector(), qs)
		if err != nil || s.F1() < 0.85 {
			b.Fatalf("quality regressed: %v %v", s, err)
		}
		tr := core.New(onto)
		if r := eval.SuccessRate(eval.TranslateAll(tr, qs)); r < 0.95 {
			b.Fatalf("translation success regressed: %v", r)
		}
	}
}

// BenchmarkE8_ForumQuestions translates the full forum corpus (demo
// stage i).
func BenchmarkE8_ForumQuestions(b *testing.B) {
	onto := ontology.NewDemoOntology()
	qs := corpus.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := core.New(onto)
		out := eval.TranslateAll(tr, qs)
		if len(out) != len(qs) {
			b.Fatal("missing outcomes")
		}
	}
}

// BenchmarkE9_EndToEndExecution translates the running example and runs
// the query on the ontology and the simulated crowd (demo stage ii).
func BenchmarkE9_EndToEndExecution(b *testing.B) {
	onto, tr := benchTranslator(b)
	c := crowd.NewCrowd(100, 7)
	c.Truth = crowd.DemoTruth()
	eng := crowd.NewEngine(onto, c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := tr.Translate(context.Background(), runningExample, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		out, err := eng.Execute(context.Background(), res.Query)
		if err != nil || len(out.Bindings) == 0 {
			b.Fatalf("execution failed: %v", err)
		}
	}
}

// BenchmarkE10_UnsupportedQuestions verifies the rejected-question path
// with tips (demo stage iii).
func BenchmarkE10_UnsupportedQuestions(b *testing.B) {
	qs := corpus.Unsupported()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			v := verify.Check(q.Text)
			if v.Supported || len(v.Tips) == 0 {
				b.Fatalf("%s not rejected with tips", q.ID)
			}
		}
	}
}

// BenchmarkE11_IXPatternMatch matches the paper's §2.3 example pattern
// against the running example's dependency graph.
func BenchmarkE11_IXPatternMatch(b *testing.B) {
	ps, err := ix.ParsePatterns(`PATTERN p TYPE participant ANCHOR $x
{$x subject $y
filter(POS($x) = "verb" && $y in V_participant)}`)
	if err != nil {
		b.Fatal(err)
	}
	d := ix.NewDetector()
	d.Patterns = ps
	g, err := nlp.Parse(runningExample)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ixs, err := d.Detect(context.Background(), g)
		if err != nil || len(ixs) != 1 {
			b.Fatalf("pattern match failed: %v", err)
		}
	}
}

// BenchmarkA1_NaiveBaseline scores the naive KB-mismatch baseline the
// introduction argues against.
func BenchmarkA1_NaiveBaseline(b *testing.B) {
	onto := ontology.NewDemoOntology()
	qs := corpus.All()
	naive := &eval.NaiveDetector{Onto: onto}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.ScoreNaive(naive, qs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA2_PatternTypeAblation measures the leave-one-type-out
// detector variants.
func BenchmarkA2_PatternTypeAblation(b *testing.B) {
	qs := corpus.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := eval.PatternTypeAblation(qs)
		if err != nil || len(rows) != 4 {
			b.Fatal(err)
		}
	}
}

// ---- engineering benches ----

// BenchmarkP1_NLParser measures tokenize+tag+dependency parse.
func BenchmarkP1_NLParser(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := nlp.Parse(runningExample); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkP2_IXDetector measures pattern matching alone.
func BenchmarkP2_IXDetector(b *testing.B) {
	g, err := nlp.Parse(runningExample)
	if err != nil {
		b.Fatal(err)
	}
	d := ix.NewDetector()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Detect(context.Background(), g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkP3_CrowdEngine measures query execution alone.
func BenchmarkP3_CrowdEngine(b *testing.B) {
	onto, tr := benchTranslator(b)
	res, err := tr.Translate(context.Background(), runningExample, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	c := crowd.NewCrowd(100, 7)
	c.Truth = crowd.DemoTruth()
	eng := crowd.NewEngine(onto, c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Execute(context.Background(), res.Query); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkP4_SPARQLStore measures BGP matching over growing stores.
func BenchmarkP4_SPARQLStore(b *testing.B) {
	for _, size := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("triples=%d", size), func(b *testing.B) {
			s := rdf.NewShardedStore(0)
			for i := 0; i < size; i++ {
				s.AddTriple(
					rdf.NewIRI(fmt.Sprintf("e%d", i)),
					rdf.NewIRI(fmt.Sprintf("p%d", i%7)),
					rdf.NewIRI(fmt.Sprintf("e%d", (i*13)%size)),
				)
			}
			q, err := sparql.Parse(`SELECT $x $y WHERE { $x p0 $y . $y p1 $z }`)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sparql.Eval(q, s, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkP5_CrowdScaling measures support aggregation as the crowd
// grows.
func BenchmarkP5_CrowdScaling(b *testing.B) {
	for _, size := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("members=%d", size), func(b *testing.B) {
			c := crowd.NewCrowd(size, 7)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Support("pattern key", 0)
			}
		})
	}
}

// BenchmarkA3_FeedbackLearning measures the disambiguation learning
// curve (§4.1's ranking-improvement claim).
func BenchmarkA3_FeedbackLearning(b *testing.B) {
	onto := ontology.NewDemoOntology()
	intended := ontology.E("Buffalo,_IL")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curve, err := eval.FeedbackLearningCurve(onto, "Where do you visit in Buffalo?", "Buffalo", intended, 3)
		if err != nil || !curve[len(curve)-1].AutoCorrect {
			b.Fatalf("learning failed: %v", err)
		}
	}
}

// BenchmarkP6_SpamRobustness measures support aggregation under spam
// workers, with and without trimmed-mean aggregation.
func BenchmarkP6_SpamRobustness(b *testing.B) {
	for _, cfg := range []struct {
		name string
		spam float64
		trim float64
	}{
		{"clean", 0, 0},
		{"spam30", 0.3, 0},
		{"spam30-trimmed", 0.3, 0.2},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			c := crowd.NewCrowd(400, 9)
			c.Truth = map[string]float64{"k": 0.9}
			c.SpamFraction = cfg.spam
			c.TrimFraction = cfg.trim
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Support("k", 0)
			}
		})
	}
}

// BenchmarkTranslateParallel measures throughput of one shared
// Translator under concurrent load (the daemon's serving model after
// the global lock was dropped), including disambiguation feedback
// writes so the Feedback lock is on the hot path.
func BenchmarkTranslateParallel(b *testing.B) {
	_, tr := benchTranslator(b)
	opt := core.Options{
		Interactor: interact.Auto{},
		Policy:     interact.Policy{Ask: map[interact.Point]bool{interact.PointDisambiguation: true}},
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			res, err := tr.Translate(context.Background(), runningExample, opt)
			if err != nil || len(res.Query.Satisfying) != 2 {
				b.Fatalf("bad translation: %v", err)
			}
		}
	})
}

// BenchmarkE9_EndToEndExecutionParallel is E9 under concurrent load: one
// shared engine serving translate-and-execute rounds from all procs, the
// daemon's serving model. The shared support cache turns repeat crowd
// questions into lookups.
func BenchmarkE9_EndToEndExecutionParallel(b *testing.B) {
	onto, tr := benchTranslator(b)
	c := crowd.NewCrowd(100, 7)
	c.Truth = crowd.DemoTruth()
	eng := crowd.NewEngine(onto, c)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			res, err := tr.Translate(context.Background(), runningExample, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			out, err := eng.Execute(context.Background(), res.Query)
			if err != nil || len(out.Bindings) == 0 {
				b.Fatalf("execution failed: %v", err)
			}
		}
	})
}

// BenchmarkP7_CrowdEngineWorkers compares sequential and pooled crowd
// task evaluation on a support-heavy workload: an open-variable query
// fanning out over the ontology's places, each task polling a large
// crowd. The cache is reset every iteration so each measures cold
// executions.
func BenchmarkP7_CrowdEngineWorkers(b *testing.B) {
	thr := 0.3
	q := &oassisql.Query{
		Select: oassisql.SelectClause{All: true},
		Satisfying: []oassisql.Subclause{{
			Pattern: oassisql.Pattern{Triples: []rdf.Triple{
				rdf.T(rdf.NewVar("_anon1"), rdf.NewIRI("visit"), rdf.NewVar("x")),
			}},
			Threshold: &thr,
		}},
	}
	for _, cfg := range []struct {
		name    string
		workers int
	}{
		{"workers=1", 1},
		{"workers=all", 0},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			onto := ontology.NewDemoOntology()
			c := crowd.NewCrowd(4000, 7)
			c.Truth = crowd.DemoTruth()
			eng := crowd.NewEngine(onto, c)
			eng.Workers = cfg.workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.ResetCache()
				out, err := eng.Execute(context.Background(), q)
				if err != nil || out.TasksIssued == 0 {
					b.Fatalf("execution failed: %v (tasks=%d)", err, out.TasksIssued)
				}
			}
		})
	}
}
