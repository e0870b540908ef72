package sparql

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"nl2cm/internal/rdf"
)

// The differential property test pins the streaming evaluator's
// semantics to the naive reference evaluator (refeval_test.go): for
// randomized stores and randomized queries mixing BGPs, OPTIONAL, UNION,
// FILTER, DISTINCT, ORDER BY, projection and OFFSET/LIMIT, Eval and
// EvalReference must produce the same solution multiset. The same seeds
// pin AggregateBindings, the post-hoc modifier path the crowd engine
// uses, against the reference as well.

var diffVarPool = []string{"a", "b", "c", "d", "e"}

func diffEntity(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("e%d", i)) }
func diffPred(i int) rdf.Term   { return rdf.NewIRI(fmt.Sprintf("p%d", i)) }

const (
	diffEntities = 8
	diffPreds    = 4
)

// diffNumPred is a dedicated predicate whose objects are numeric
// literals of mixed widths (and the occasional exactly-representable
// float), exercising the typed comparator in ORDER BY and aggregates.
// It sits outside the 0..diffPreds-1 pool used for random positions.
func diffNumPred() rdf.Term { return diffPred(diffPreds) }

func diffNumLiteral(r *rand.Rand) rdf.Term {
	if r.Intn(4) == 0 {
		// Quarters are exact in float64, so SUM/AVG accumulation is
		// order-independent and both evaluators agree bit-for-bit.
		return rdf.NewFloatLiteral(float64(r.Intn(600)) / 4)
	}
	return rdf.NewIntLiteral(int64(r.Intn(150))) // 1-3 digit widths
}

func randomStore(r *rand.Rand) *rdf.ShardedStore {
	st := rdf.NewShardedStore(0)
	n := 20 + r.Intn(30)
	for i := 0; i < n; i++ {
		st.MustAdd(rdf.T(
			diffEntity(r.Intn(diffEntities)),
			diffPred(r.Intn(diffPreds)),
			diffEntity(r.Intn(diffEntities)),
		))
	}
	for i := 5 + r.Intn(10); i > 0; i-- {
		st.MustAdd(rdf.T(
			diffEntity(r.Intn(diffEntities)),
			diffNumPred(),
			diffNumLiteral(r),
		))
	}
	return st
}

// randomPosition yields a variable (biased) or a concrete term for one
// triple-pattern position.
func randomPosition(r *rand.Rand, pred bool) rdf.Term {
	if r.Intn(3) > 0 {
		return rdf.NewVar(diffVarPool[r.Intn(len(diffVarPool))])
	}
	if pred {
		return diffPred(r.Intn(diffPreds))
	}
	return diffEntity(r.Intn(diffEntities))
}

func randomPatterns(r *rand.Rand, n int) []rdf.Triple {
	out := make([]rdf.Triple, n)
	for i := range out {
		out[i] = rdf.T(
			randomPosition(r, false),
			randomPosition(r, true),
			randomPosition(r, false),
		)
	}
	return out
}

func randomFilter(r *rand.Rand) Expr {
	x := &VarExpr{Name: diffVarPool[r.Intn(len(diffVarPool))]}
	switch r.Intn(3) {
	case 0:
		return &BinExpr{Op: "!=", L: x, R: &VarExpr{Name: diffVarPool[r.Intn(len(diffVarPool))]}}
	case 1:
		return &BinExpr{Op: "=", L: x, R: &LitExpr{Val: TermVal(diffEntity(r.Intn(diffEntities)))}}
	default:
		return &NotExpr{X: &BinExpr{Op: "=", L: x, R: &LitExpr{Val: TermVal(diffEntity(r.Intn(diffEntities)))}}}
	}
}

func randomQuery(r *rand.Rand) *Query {
	q := &Query{Limit: -1}
	q.Where = randomPatterns(r, 1+r.Intn(3))
	if r.Intn(3) == 0 {
		// Bind one variable to the numeric literals so ORDER BY keys and
		// aggregate arguments see numbers of mixed widths.
		q.Where = append(q.Where, rdf.T(
			randomPosition(r, false),
			diffNumPred(),
			rdf.NewVar(diffVarPool[r.Intn(len(diffVarPool))]),
		))
	}
	if r.Intn(10) < 3 {
		q.Unions = [][][]rdf.Triple{{randomPatterns(r, 1), randomPatterns(r, 1)}}
	}
	for i := r.Intn(3); i > 0; i-- {
		q.Optionals = append(q.Optionals, randomPatterns(r, 1+r.Intn(2)))
	}
	for i := r.Intn(3); i > 0; i-- {
		q.Filters = append(q.Filters, randomFilter(r))
	}
	if r.Intn(10) < 3 {
		return finishAggregateQuery(r, q)
	}
	if r.Intn(2) == 0 {
		for _, v := range diffVarPool {
			if r.Intn(2) == 0 {
				q.Vars = append(q.Vars, v)
			}
		}
	}
	q.Distinct = r.Intn(10) < 3
	if r.Intn(10) < 3 {
		// OFFSET/LIMIT cut rows by position, which is only comparable
		// across evaluators under a total order: sort by every variable,
		// so tied rows are identical and any cut yields the same multiset.
		for _, v := range diffVarPool {
			q.OrderBy = append(q.OrderBy, OrderKey{Var: v, Desc: r.Intn(2) == 0})
		}
		q.Offset = r.Intn(4)
		if r.Intn(2) == 0 {
			q.Limit = r.Intn(6)
		}
	} else if r.Intn(10) < 3 {
		q.OrderBy = append(q.OrderBy, OrderKey{Var: diffVarPool[r.Intn(len(diffVarPool))], Desc: r.Intn(2) == 0})
	}
	return q
}

// finishAggregateQuery turns a random pattern skeleton into a GROUP BY /
// aggregate query. Output rows carry exactly the group variables plus
// the aggregate aliases, so sorting by all of them is a total order and
// OFFSET/LIMIT windows stay comparable across evaluators.
func finishAggregateQuery(r *rand.Rand, q *Query) *Query {
	var used []string
	seen := map[string]bool{}
	for _, tr := range q.patternVarTriples() {
		tr.EachVar(func(v string) {
			if !seen[v] {
				seen[v] = true
				used = append(used, v)
			}
		})
	}
	if len(used) == 0 {
		return q
	}
	var groupBy []string
	for _, v := range used {
		if r.Intn(3) == 0 {
			groupBy = append(groupBy, v)
		}
	}
	pick := used[r.Intn(len(used))]
	aggs := []Aggregate{{Func: "COUNT", As: "cnt"}}
	switch r.Intn(5) {
	case 0:
		aggs = append(aggs, Aggregate{Func: "MIN", Var: pick, As: "agg"})
	case 1:
		aggs = append(aggs, Aggregate{Func: "MAX", Var: pick, As: "agg"})
	case 2:
		aggs = append(aggs, Aggregate{Func: "SUM", Var: pick, As: "agg"})
	case 3:
		aggs = append(aggs, Aggregate{Func: "AVG", Var: pick, As: "agg"})
	default:
		aggs[0].Var = pick // COUNT($v) instead of COUNT(*)
	}
	q.GroupBy, q.Aggs = groupBy, aggs
	if r.Intn(3) == 0 {
		q.Having = append(q.Having, &BinExpr{
			Op: ">",
			L:  &VarExpr{Name: "cnt"},
			R:  &LitExpr{Val: NumVal(float64(r.Intn(4)))},
		})
	}
	if r.Intn(2) == 0 {
		q.Vars = append(q.Vars, groupBy...)
		for _, a := range aggs {
			q.Vars = append(q.Vars, a.As)
		}
	}
	q.Distinct = r.Intn(10) < 2
	if r.Intn(2) == 0 {
		for _, v := range groupBy {
			q.OrderBy = append(q.OrderBy, OrderKey{Var: v, Desc: r.Intn(2) == 0})
		}
		for _, a := range aggs {
			q.OrderBy = append(q.OrderBy, OrderKey{Var: a.As, Desc: r.Intn(2) == 0})
		}
		q.Offset = r.Intn(3)
		if r.Intn(2) == 0 {
			q.Limit = r.Intn(4)
		}
	}
	return q
}

func multiset(bs []Binding) []string {
	keys := make([]string, len(bs))
	for i, b := range bs {
		keys[i] = BindingKey(b)
	}
	sort.Strings(keys)
	return keys
}

// sameSolutions fails the test unless got and want hold the same
// multiset of bindings, and, when ordered is set (every variable a sort
// key), the same sequence.
func sameSolutions(t *testing.T, what string, seed int64, q *Query, got, want []Binding, ordered bool) {
	t.Helper()
	gm, wm := multiset(got), multiset(want)
	if len(gm) != len(wm) {
		t.Fatalf("seed %d: %s: row count mismatch: got %d, reference %d\nquery: %+v", seed, what, len(gm), len(wm), q)
	}
	for i := range gm {
		if gm[i] != wm[i] {
			t.Fatalf("seed %d: %s: multiset mismatch at %d:\n  got: %s\n  ref: %s\nquery: %+v", seed, what, i, gm[i], wm[i], q)
		}
	}
	if ordered {
		for i := range got {
			if BindingKey(got[i]) != BindingKey(want[i]) {
				t.Fatalf("seed %d: %s: ordered row %d differs:\n  got: %v\n  ref: %v", seed, what, i, got[i], want[i])
			}
		}
	}
}

func TestDifferentialEvalMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		r := rand.New(rand.NewSource(seed))
		st := randomStore(r)
		q := randomQuery(r)
		// Under a total order (every variable a sort key) the sequences
		// must agree exactly, not just as multisets.
		ordered := len(q.OrderBy) == len(diffVarPool)
		got, gerr := Eval(q, st, nil)
		want, werr := EvalReference(q, st, nil)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("seed %d: error mismatch: Eval=%v EvalReference=%v\nquery: %+v", seed, gerr, werr, q)
		}
		if gerr != nil {
			continue
		}
		sameSolutions(t, "Eval", seed, q, got, want, ordered)

		// The crowd engine's path: evaluate the pattern part alone, then
		// apply the modifiers post hoc through AggregateBindings. Both
		// sides run without projection and DISTINCT, as the crowd engine
		// applies its own.
		pattern := &Query{Where: q.Where, Unions: q.Unions, Optionals: q.Optionals, Filters: q.Filters, Limit: -1}
		rows, err := Eval(pattern, st, nil)
		if err != nil {
			t.Fatalf("seed %d: pattern-only Eval: %v", seed, err)
		}
		mq := *q
		mq.Vars, mq.Distinct = nil, false
		got, gerr = AggregateBindings(&mq, rows, nil)
		want, werr = EvalReference(&mq, st, nil)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("seed %d: error mismatch: AggregateBindings=%v EvalReference=%v\nquery: %+v", seed, gerr, werr, &mq)
		}
		if gerr != nil {
			continue
		}
		sameSolutions(t, "AggregateBindings", seed, &mq, got, want, ordered)
	}
}

// TestEvalWideQuery pins that Eval has no width limit (in particular none
// at a 64-bit word of slots): a 130-variable query whose OPTIONAL binds
// slots past 64 for some rows only, ordered and projected on those
// slots, must match the reference evaluator row for row.
func TestEvalWideQuery(t *testing.T) {
	// A directed 5-cycle under p0: a 128-step walk from each node is one
	// solution of the chained main pattern. Only e1 and e3 have a p1
	// edge, so the OPTIONAL binds v128 and v129 in two rows of five.
	st := rdf.NewShardedStore(0)
	const cycle = 5
	for i := 0; i < cycle; i++ {
		st.MustAdd(rdf.T(diffEntity(i), diffPred(0), diffEntity((i+1)%cycle)))
	}
	st.MustAdd(rdf.T(diffEntity(1), diffPred(1), diffEntity(3)))
	st.MustAdd(rdf.T(diffEntity(3), diffPred(1), diffEntity(0)))
	v := func(i int) rdf.Term { return rdf.NewVar(fmt.Sprintf("v%d", i)) }
	q := &Query{Limit: -1}
	for i := 0; i < 127; i++ {
		q.Where = append(q.Where, rdf.T(v(i), diffPred(0), v(i+1)))
	}
	q.Optionals = [][]rdf.Triple{{
		rdf.T(v(127), diffPred(1), v(128)),
		rdf.T(v(128), diffPred(0), v(129)),
	}}
	q.OrderBy = []OrderKey{{Var: "v128", Desc: true}, {Var: "v100"}}
	q.Vars = []string{"v129", "v0", "v128", "v100"}
	if c := compileQuery(q, nil); len(c.vars) != 130 || c.slots["v128"] < 64 || c.slots["v100"] < 64 {
		t.Fatalf("query does not exercise slots past 64: %d slots, v128=%d v100=%d", len(c.vars), c.slots["v128"], c.slots["v100"])
	}
	got, err := Eval(q, st, nil)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	want, err := EvalReference(q, st, nil)
	if err != nil {
		t.Fatalf("EvalReference: %v", err)
	}
	if len(got) != cycle {
		t.Fatalf("want %d rows from the wide query, got %d: %v", cycle, len(got), got)
	}
	optional := 0
	for i := range got {
		if BindingKey(got[i]) != BindingKey(want[i]) {
			t.Fatalf("row %d differs:\n  eval: %v\n  ref:  %v", i, got[i], want[i])
		}
		if _, ok := got[i]["v128"]; ok {
			optional++
		}
	}
	if optional != 2 {
		t.Fatalf("want the OPTIONAL to bind v128 in 2 rows, got %d: %v", optional, got)
	}
	// DESC puts the bound v128 values first, greatest first.
	if got[0]["v128"] != diffEntity(3) || got[1]["v128"] != diffEntity(0) {
		t.Fatalf("rows not ordered by DESC(v128): %v", got)
	}
}

func TestBindingKeyCollisionFree(t *testing.T) {
	// Under the old "name=value;" concatenation both bindings encoded to
	// `x=<a>;y=<b>;`: the first value smuggles the delimiter characters.
	b1 := Binding{"x": rdf.NewIRI("a>;y=<b")}
	b2 := Binding{"x": rdf.NewIRI("a"), "y": rdf.NewIRI("b")}
	if BindingKey(b1) == BindingKey(b2) {
		t.Fatalf("BindingKey collision: %q", BindingKey(b1))
	}
	// Literal vs IRI with the same text must also stay distinct, as must
	// language-tagged vs plain literals.
	if BindingKey(Binding{"x": rdf.NewIRI("v")}) == BindingKey(Binding{"x": rdf.NewLiteral("v")}) {
		t.Fatalf("BindingKey conflates IRI and literal")
	}
	if BindingKey(Binding{"x": rdf.NewLangLiteral("v", "en")}) == BindingKey(Binding{"x": rdf.NewLiteral("v")}) {
		t.Fatalf("BindingKey conflates language-tagged and plain literal")
	}
	if BindingKey(b1) != BindingKey(Binding{"x": rdf.NewIRI("a>;y=<b")}) {
		t.Fatalf("BindingKey not deterministic")
	}
}

// TestDistinctRowKeyCollisionFree pins DISTINCT over rows that bind
// different slots. A key of slot numbers and term encodings written back
// to back ("1" "1" "15:abcde0:0:1201:x" ... against "11" "1" "5:abcde"
// ... "12" ...) encoded these two rows identically, so DISTINCT dropped
// one of them.
func TestDistinctRowKeyCollisionFree(t *testing.T) {
	st := rdf.NewShardedStore(0)
	e := rdf.NewIRI("e")
	st.MustAdd(rdf.T(e, diffPred(0), rdf.NewLiteral("abcde0:0:1201:x")))
	st.MustAdd(rdf.T(e, diffPred(1), rdf.NewLiteral("abcde")))
	st.MustAdd(rdf.T(e, diffPred(2), rdf.NewIRI("x")))
	v := func(i int) rdf.Term { return rdf.NewVar(fmt.Sprintf("v%d", i)) }
	// Slots follow first appearance: v0 and v1 from the first
	// alternative, v2..v10 from one that never matches, v11 and v12 from
	// the last.
	var never []rdf.Triple
	for i := 2; i <= 10; i++ {
		never = append(never, rdf.T(v(0), diffPred(3), v(i)))
	}
	q := &Query{
		Unions: [][][]rdf.Triple{{
			{rdf.T(v(0), diffPred(0), v(1))},
			never,
			{rdf.T(v(0), diffPred(1), v(11)), rdf.T(v(0), diffPred(2), v(12))},
		}},
		Distinct: true,
		Limit:    -1,
	}
	if c := compileQuery(q, nil); c.slots["v1"] != 1 || c.slots["v11"] != 11 || c.slots["v12"] != 12 {
		t.Fatalf("unexpected slots: %v", c.slots)
	}
	for name, rows := range bothEvals(t, q, st) {
		if len(rows) != 2 {
			t.Errorf("%s: DISTINCT kept %d rows, want 2: %v", name, len(rows), rows)
		}
	}
}

// TestOffsetLimitWindowIsCopied pins the fix for the slice-aliasing bug:
// the returned window must not retain capacity into (and thereby pin or
// expose) the full pre-OFFSET result.
func TestOffsetLimitWindowIsCopied(t *testing.T) {
	st := rdf.NewShardedStore(0)
	for i := 0; i < 6; i++ {
		st.MustAdd(rdf.T(diffEntity(i), diffPred(0), diffEntity(0)))
	}
	q := &Query{
		Where:   []rdf.Triple{rdf.T(rdf.NewVar("x"), diffPred(0), diffEntity(0))},
		OrderBy: []OrderKey{{Var: "x"}},
		Offset:  1,
		Limit:   2,
	}
	for name, eval := range map[string]func(*Query, Source, *Env) ([]Binding, error){
		"Eval": Eval, "EvalReference": EvalReference,
	} {
		rows, err := eval(q, st, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rows) != 2 {
			t.Fatalf("%s: want 2 rows, got %d", name, len(rows))
		}
		if cap(rows) != len(rows) {
			t.Fatalf("%s: window aliases a larger backing array: len=%d cap=%d", name, len(rows), cap(rows))
		}
	}
}
