package emit_test

import (
	"context"
	"testing"

	"nl2cm"
	"nl2cm/internal/corpus"
	"nl2cm/internal/emit"
)

// TestCorpusSQLDifferential is the cross-backend differential at corpus
// scale: for every supported question, the general (WHERE) part of the
// plan — the part the SQL emitter renders — must produce the same
// bindings from the in-memory table source (full-scan ExternalSource
// adapter) as from the native RDF store evaluator.
func TestCorpusSQLDifferential(t *testing.T) {
	onto := nl2cm.DemoOntology()
	tr := nl2cm.NewTranslator(onto)
	ext := &emit.Adapter{Ext: emit.LoadMemTable(onto.Store)}
	ctx := context.Background()
	checked, aggregated := 0, 0
	for _, q := range corpus.Supported() {
		res, err := tr.Translate(ctx, q.Text, nl2cm.Options{})
		if err != nil {
			t.Fatalf("%s: Translate: %v", q.ID, err)
		}
		if res.Plan == nil || len(res.Plan.Where) == 0 {
			continue
		}
		if _, err := emit.Emit("sql", res.Plan); err != nil {
			t.Errorf("%s: sql emission: %v", q.ID, err)
			continue
		}
		native, err := emit.ExecuteWhere(res.Plan, onto.Store)
		if err != nil {
			t.Errorf("%s: rdf evaluation: %v", q.ID, err)
			continue
		}
		external, err := emit.ExecuteWhere(res.Plan, ext)
		if err != nil {
			t.Errorf("%s: external evaluation: %v", q.ID, err)
			continue
		}
		if a, b := emit.BindingMultiset(native), emit.BindingMultiset(external); a != b {
			t.Errorf("%s: rdf and external bindings diverge\nrdf:\n%s\nexternal:\n%s", q.ID, a, b)
		}
		checked++
		if res.Plan.Aggregated() {
			aggregated++
		}
	}
	if checked == 0 {
		t.Fatal("no corpus question exercised the differential")
	}
	if aggregated == 0 {
		t.Fatal("no corpus question exercised the GROUP BY differential")
	}
}
