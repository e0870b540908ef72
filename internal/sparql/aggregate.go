package sparql

import (
	"fmt"
	"strings"

	"nl2cm/internal/rdf"
)

// This file holds the grouping/aggregation step: the normalized
// aggregation spec (HAVING aggregate calls hoisted into hidden Aggregate
// entries), the per-group accumulator, and its semantics (which the
// differential tests' reference evaluator also implements):
//
//   - Grouping keys are the GROUP BY variables; an unbound group
//     variable is its own key component, distinct from every bound value.
//     No GROUP BY with aggregates means one global group — which exists
//     (COUNT = 0) even over zero input rows.
//   - COUNT(*) counts rows; COUNT($v) counts rows where $v is bound.
//   - SUM/AVG accumulate the numeric values of bound terms (non-numeric
//     terms are ignored); SUM is an xsd:integer when every contribution
//     is an integer, else an xsd:double; AVG is always an xsd:double;
//     both are the integer 0 over no numeric contributions.
//   - MIN/MAX return the original bound term that is least/greatest
//     under the typed rdf.Term.Compare ordering (numbers before strings,
//     numeric forms compared by value), or stay unbound in an empty
//     column.
//   - HAVING expressions run per group row — group variables and
//     aggregate aliases are bound — and an erroring expression drops the
//     group, like FILTER.
//
// Output rows carry exactly the group variables and aggregate aliases;
// ORDER BY, projection, DISTINCT and OFFSET/LIMIT then apply unchanged.

// AggRefExpr references an aggregate's per-group result inside a HAVING
// expression. It evaluates to the term bound to the aggregate's alias,
// and prints as the original call, so Query.String round-trips.
type AggRefExpr struct{ Agg Aggregate }

// Eval implements Expr.
func (e *AggRefExpr) Eval(b Vars, _ *Env) (Value, error) {
	t, ok := b.Get(e.Agg.As)
	if !ok {
		return Value{}, fmt.Errorf("sparql: aggregate %s unbound in group", e.Agg)
	}
	return TermVal(t), nil
}

func (e *AggRefExpr) String() string {
	arg := "*"
	if e.Agg.Var != "" {
		arg = "$" + e.Agg.Var
	}
	return e.Agg.Func + "(" + arg + ")"
}

// freshAlias derives an output alias for an aggregate without an
// explicit AS: count, count_x, sum_x, ... suffixed with _2, _3 … until
// it collides with nothing the taken predicate knows.
func freshAlias(fn, varName string, taken func(string) bool) string {
	base := strings.ToLower(fn)
	if varName != "" {
		base += "_" + varName
	}
	name := base
	for i := 2; taken(name); i++ {
		name = fmt.Sprintf("%s_%d", base, i)
	}
	return name
}

// resolveHavingAggs rewrites aggregate calls inside HAVING expressions
// into AggRefExpr references, reusing an existing Aggregate with the
// same function and argument or appending a hidden one (hidden aliases
// never join the projection). The inputs are not modified.
func resolveHavingAggs(having []Expr, aggs []Aggregate, patternVars map[string]bool) ([]Expr, []Aggregate, error) {
	out := make([]Aggregate, len(aggs))
	copy(out, aggs)
	resolve := func(fn, varName string) Aggregate {
		for _, a := range out {
			if a.Func == fn && a.Var == varName {
				return a
			}
		}
		alias := freshAlias(fn, varName, func(name string) bool {
			if patternVars[name] {
				return true
			}
			for _, a := range out {
				if a.As == name {
					return true
				}
			}
			return false
		})
		a := Aggregate{Func: fn, Var: varName, As: alias}
		out = append(out, a)
		return a
	}
	rewritten := make([]Expr, len(having))
	for i, h := range having {
		e, err := rewriteAggCalls(h, resolve)
		if err != nil {
			return nil, nil, err
		}
		rewritten[i] = e
	}
	return rewritten, out, nil
}

// rewriteAggCalls walks an expression, replacing every aggregate-named
// CallExpr with the AggRefExpr the resolve callback assigns. An existing
// AggRefExpr is re-resolved too, so a programmatically built expression
// referencing an aggregate the query does not list still gets a hidden
// Aggregate entry instead of evaluating against an unbound alias.
func rewriteAggCalls(e Expr, resolve func(fn, varName string) Aggregate) (Expr, error) {
	switch x := e.(type) {
	case *AggRefExpr:
		return &AggRefExpr{Agg: resolve(x.Agg.Func, x.Agg.Var)}, nil
	case *CallExpr:
		fn := strings.ToUpper(x.Name)
		if AggFuncs[fn] {
			varName := ""
			switch len(x.Args) {
			case 0:
				if fn != "COUNT" {
					return nil, fmt.Errorf("%s(*) is not valid; only COUNT takes *", fn)
				}
			case 1:
				v, ok := x.Args[0].(*VarExpr)
				if !ok {
					return nil, fmt.Errorf("%s() takes a variable argument", fn)
				}
				varName = v.Name
			default:
				return nil, fmt.Errorf("%s() takes one argument", fn)
			}
			return &AggRefExpr{Agg: resolve(fn, varName)}, nil
		}
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			na, err := rewriteAggCalls(a, resolve)
			if err != nil {
				return nil, err
			}
			args[i] = na
		}
		return &CallExpr{Name: x.Name, Args: args}, nil
	case *NotExpr:
		nx, err := rewriteAggCalls(x.X, resolve)
		if err != nil {
			return nil, err
		}
		return &NotExpr{X: nx}, nil
	case *BinExpr:
		l, err := rewriteAggCalls(x.L, resolve)
		if err != nil {
			return nil, err
		}
		r, err := rewriteAggCalls(x.R, resolve)
		if err != nil {
			return nil, err
		}
		return &BinExpr{Op: x.Op, L: l, R: r}, nil
	case *InExpr:
		nx, err := rewriteAggCalls(x.X, resolve)
		if err != nil {
			return nil, err
		}
		list := make([]Expr, len(x.List))
		for i, it := range x.List {
			ni, err := rewriteAggCalls(it, resolve)
			if err != nil {
				return nil, err
			}
			list[i] = ni
		}
		return &InExpr{X: nx, SetName: x.SetName, List: list, Negated: x.Negated}, nil
	default:
		return e, nil
	}
}

// aggSpec is the normalized grouping step of one query.
type aggSpec struct {
	groupBy []string
	aggs    []Aggregate
	having  []Expr
}

// aggregationSpec resolves a query's grouping step without modifying the
// query. It returns nil when the query has none. Parsed queries arrive
// pre-normalized (no aggregate calls left in HAVING), so the rewrite is
// a no-op for them; programmatically built queries may still carry raw
// calls and get them hoisted here.
func aggregationSpec(q *Query) (*aggSpec, error) {
	if !q.Aggregated() && len(q.Having) == 0 {
		return nil, nil
	}
	having, aggs, err := resolveHavingAggs(q.Having, q.Aggs, q.patternVars())
	if err != nil {
		return nil, fmt.Errorf("sparql: %w", err)
	}
	return &aggSpec{groupBy: q.GroupBy, aggs: aggs, having: having}, nil
}

// aggState accumulates one aggregate over one group.
type aggState struct {
	count  int64
	n      int64 // numeric contributions (SUM/AVG)
	sumI   int64
	sumF   float64
	allInt bool
	best   rdf.Term // MIN/MAX candidate
	has    bool
}

func (s *aggState) add(a Aggregate, t rdf.Term, bound bool) {
	switch a.Func {
	case "COUNT":
		if a.Var == "" || bound {
			s.count++
		}
	case "SUM", "AVG":
		if !bound {
			return
		}
		f, ok := t.Float()
		if !ok {
			return
		}
		s.n++
		s.sumF += f
		if i, ok := t.Int(); ok {
			s.sumI += i
		} else {
			s.allInt = false
		}
	case "MIN":
		if bound && (!s.has || t.Compare(s.best) < 0) {
			s.best, s.has = t, true
		}
	case "MAX":
		if bound && (!s.has || t.Compare(s.best) > 0) {
			s.best, s.has = t, true
		}
	}
}

// result materializes the accumulated value; ok=false means the alias
// stays unbound (MIN/MAX over an empty column).
func (s *aggState) result(a Aggregate) (rdf.Term, bool) {
	switch a.Func {
	case "COUNT":
		return rdf.NewIntLiteral(s.count), true
	case "SUM":
		if s.n == 0 {
			return rdf.NewIntLiteral(0), true
		}
		if s.allInt {
			return rdf.NewIntLiteral(s.sumI), true
		}
		return rdf.NewFloatLiteral(s.sumF), true
	case "AVG":
		if s.n == 0 {
			return rdf.NewIntLiteral(0), true
		}
		return rdf.NewFloatLiteral(s.sumF / float64(s.n)), true
	case "MIN", "MAX":
		return s.best, s.has
	}
	return rdf.Term{}, false
}

// aggArena hands out per-group aggregate-state slices from chunked
// blocks, so building many groups costs a handful of allocations instead
// of one per group. Blocks are abandoned (not grown) when full, so
// handed-out slices stay valid as more groups arrive.
type aggArena struct {
	n    int // states per group
	buf  []aggState
	used int
}

func newAggArena(n int) *aggArena { return &aggArena{n: n} }

func (a *aggArena) take() []aggState {
	if a.n == 0 {
		return nil
	}
	if len(a.buf)-a.used < a.n {
		a.buf = make([]aggState, 256*a.n)
		a.used = 0
	}
	s := a.buf[a.used : a.used+a.n : a.used+a.n]
	a.used += a.n
	for i := range s {
		s[i].allInt = true
	}
	return s
}

// termArena is the same chunked allocator for per-group slot-row term
// slices (the group representatives).
type termArena struct {
	w    int // row width
	buf  []rdf.Term
	used int
}

func newTermArena(w int) *termArena { return &termArena{w: w} }

func (a *termArena) take() []rdf.Term {
	if a.w == 0 {
		return nil
	}
	if len(a.buf)-a.used < a.w {
		a.buf = make([]rdf.Term, 256*a.w)
		a.used = 0
	}
	s := a.buf[a.used : a.used+a.w : a.used+a.w]
	a.used += a.w
	return s
}

// groupSizeHint sizes the group map and emission-order slice: most
// grouped queries collapse many rows per group, so a fraction of the row
// count avoids both rehashing and gross over-allocation.
func groupSizeHint(rows int) int {
	hint := rows/8 + 1
	if hint > 1024 {
		hint = 1024
	}
	return hint
}

// AggregateBindings applies a query's solution modifiers — grouping,
// aggregates, HAVING, ORDER BY, projection, DISTINCT and the
// OFFSET/LIMIT window — to already-computed solution rows. It is the
// post-hoc counterpart of Eval's modifier tail, for callers (the crowd
// engine) that interleave their own filtering between pattern matching
// and aggregation, and it runs the very same code. Where is read only to
// resolve HAVING aggregate aliases against pattern variables. Every
// variable an input row binds gets a slot, so a step without grouping
// keeps each row's full binding. Rows are not modified; the result is
// freshly allocated.
func AggregateBindings(q *Query, rows []Binding, env *Env) ([]Binding, error) {
	spec, err := aggregationSpec(q)
	if err != nil {
		return nil, err
	}
	c := compileQuery(q, spec)
	for _, b := range rows {
		for v := range b {
			c.addVar(v)
		}
	}
	w := len(c.vars)
	terms := make([]rdf.Term, len(rows)*w)
	in := make([]row, len(rows))
	for i, b := range rows {
		r := row(terms[i*w : (i+1)*w : (i+1)*w])
		copy(r, c.vars)
		for v, t := range b {
			r[c.slots[v]] = t
		}
		in[i] = r
	}
	e := &exec{c: c, env: env, view: &rowView{c: c}}
	return e.finish(q, spec, in), nil
}

func havingPass(having []Expr, b Vars, env *Env) bool {
	for _, h := range having {
		v, err := h.Eval(b, env)
		if err != nil || !v.Truthy() {
			return false
		}
	}
	return true
}

// appendGroupKeyPart appends one group-key component: a bound marker so
// an unbound variable can never collide with any bound value, then the
// collision-free term encoding. The append-based form lets grouping and
// DISTINCT reuse one buffer across rows instead of allocating a string
// per row.
func appendGroupKeyPart(buf []byte, t rdf.Term, bound bool) []byte {
	if !bound {
		return append(buf, '-')
	}
	buf = append(buf, '+')
	return appendTermKey(buf, t)
}

// aggregateRows is the grouping step over slot-indexed rows. Aggregate
// aliases occupy slots registered by compileQuery; output rows bind
// exactly the group slots and the alias slots. Groups emit in
// first-appearance order.
func (e *exec) aggregateRows(spec *aggSpec, rows []row) []row {
	type group struct {
		rep    row
		states []aggState
	}
	groupSlots := make([]int, len(spec.groupBy))
	for i, v := range spec.groupBy {
		slot, ok := e.c.slots[v]
		if !ok {
			slot = -1 // variable no pattern binds: always unbound
		}
		groupSlots[i] = slot
	}
	argSlots := make([]int, len(spec.aggs))
	for i, a := range spec.aggs {
		slot, ok := e.c.slots[a.Var]
		if !ok || a.Var == "" {
			slot = -1
		}
		argSlots[i] = slot
	}
	hint := groupSizeHint(len(rows))
	// Groups live in a slice in first-appearance order; the map holds
	// indexes into it. Group representatives and aggregate states come
	// from chunked arenas — with many small groups (the superlative-plan
	// shape) the per-row and per-group allocations dominate the analytic
	// path, so each is amortized over a chunk.
	arr := make([]group, 0, hint)
	groups := make(map[string]int32, hint)
	states := newAggArena(len(spec.aggs))
	terms := newTermArena(len(e.c.vars))
	newRep := func() row {
		rep := row(terms.take())
		copy(rep, e.c.vars)
		return rep
	}
	var keyBuf []byte
	for _, r := range rows {
		keyBuf = keyBuf[:0]
		for _, slot := range groupSlots {
			var t rdf.Term
			ok := false
			if slot >= 0 {
				t, ok = r.get(slot)
			}
			keyBuf = appendGroupKeyPart(keyBuf, t, ok)
		}
		idx, ok := groups[string(keyBuf)]
		if !ok {
			rep := newRep()
			for _, slot := range groupSlots {
				if slot >= 0 {
					rep[slot] = r[slot]
				}
			}
			idx = int32(len(arr))
			arr = append(arr, group{rep: rep, states: states.take()})
			groups[string(keyBuf)] = idx
		}
		g := &arr[idx]
		for i, a := range spec.aggs {
			var t rdf.Term
			ok := false
			if argSlots[i] >= 0 {
				t, ok = r.get(argSlots[i])
			}
			g.states[i].add(a, t, ok)
		}
	}
	if len(arr) == 0 && len(spec.groupBy) == 0 {
		// A global aggregate over zero rows still produces one group.
		arr = append(arr, group{rep: newRep(), states: states.take()})
	}
	out := make([]row, 0, len(arr))
	for gi := range arr {
		g := &arr[gi]
		for i, a := range spec.aggs {
			if t, ok := g.states[i].result(a); ok {
				g.rep[e.c.slots[a.As]] = t
			}
		}
		if len(spec.having) > 0 {
			e.view.r = g.rep
			if !havingPass(spec.having, e.view, e.env) {
				continue
			}
		}
		out = append(out, g.rep)
	}
	return out
}
