// Package emit separates "translate" from "render": the
// translation pipeline produces a backend-neutral logical query IR (the
// Plan), and pluggable Backends render it into concrete query dialects —
// OASSIS-QL (the paper's language), SQL, a MongoDB-style document filter
// and a Cypher-like graph dialect.
//
// The Plan mirrors the structure the Query Composition module assembles
// (paper §2.6) without committing to any concrete syntax: general triple
// patterns with filters and projection, plus crowd-mining clauses with
// their significance criteria. Every pattern carries the provenance of
// its source tokens, so each backend's rendering can be traced back to
// the question phrase it derives from, clause by clause.
package emit

import (
	"nl2cm/internal/prov"
	"nl2cm/internal/rdf"
	"nl2cm/internal/sparql"
)

// Pattern is one logical triple pattern with its source provenance.
type Pattern struct {
	// Triple is the pattern itself; variables are rdf.KindVariable terms.
	Triple rdf.Triple
	// Tokens is the source-token set the pattern derives from (empty when
	// unknown, e.g. for hand-built plans).
	Tokens prov.TokenSet
	// Source is the question excerpt the pattern derives from ("" when
	// unknown), e.g. `near Forest Hotel , Buffalo`.
	Source string
}

// Significance is a crowd clause's significance criterion: a top/bottom-k
// selection when TopK > 0, a support threshold otherwise.
type Significance struct {
	// TopK selects the k highest- (Desc) or lowest-support bindings;
	// 0 means the Threshold applies instead.
	TopK int
	// Desc orders a top-k selection by descending support.
	Desc bool
	// Threshold is the minimal support in [0,1]; meaningful when TopK==0.
	Threshold float64
}

// CrowdClause is one crowd-mining data pattern (an OASSIS-QL SATISFYING
// subclause): patterns to be mined from the crowd plus a significance
// criterion.
type CrowdClause struct {
	Patterns     []Pattern
	Filters      []sparql.Expr
	Significance Significance
}

// Aggregation is the plan's analytic part: grouping and aggregate
// outputs over the general selection, with optional HAVING conditions
// and a result window. A superlative question compiles to this shape —
// "Which city has the most attractions?" becomes GROUP BY city +
// COUNT(attraction) + ORDER BY count DESC + LIMIT 1. The types are the
// sparql package's, so a plan's aggregation drops straight into a
// sparql.Query for evaluation.
type Aggregation struct {
	// GroupBy lists the grouping variables; empty means one global group.
	GroupBy []string
	// Aggs lists the aggregate outputs; aliases act as output variables.
	Aggs []sparql.Aggregate
	// Having restricts groups after aggregation.
	Having []sparql.Expr
	// OrderBy sorts the grouped results (aliases are sortable).
	OrderBy []sparql.OrderKey
	// Limit caps the grouped results; 0 means no limit.
	Limit int
}

// Select is the plan's projection.
type Select struct {
	// All projects every variable that yields significant patterns
	// (OASSIS-QL "SELECT VARIABLES").
	All bool
	// Vars lists the projected variables when All is false.
	Vars []string
}

// Plan is the backend-neutral logical query: what the translation
// pipeline means, before any dialect renders it.
type Plan struct {
	// Question is the source NL request ("" for hand-built plans).
	Question string
	// Select is the projection.
	Select Select
	// Where holds the general (ontology) selection patterns.
	Where []Pattern
	// Filters restrict the general selection.
	Filters []sparql.Expr
	// Crowd holds the crowd-mining clauses; empty for pure-general plans.
	Crowd []CrowdClause
	// Agg is the analytic part; nil for plain selections.
	Agg *Aggregation
}

// Clone returns a deep-enough copy for re-binding: every slice that
// Rebind or a Source recomputation mutates is copied; immutable parts
// (token sets, filter expressions) are shared.
func (p *Plan) Clone() *Plan {
	q := *p
	q.Select.Vars = append([]string(nil), p.Select.Vars...)
	q.Where = append([]Pattern(nil), p.Where...)
	q.Filters = append([]sparql.Expr(nil), p.Filters...)
	q.Crowd = make([]CrowdClause, len(p.Crowd))
	for i, cc := range p.Crowd {
		q.Crowd[i] = CrowdClause{
			Patterns:     append([]Pattern(nil), cc.Patterns...),
			Filters:      append([]sparql.Expr(nil), cc.Filters...),
			Significance: cc.Significance,
		}
	}
	if p.Agg != nil {
		a := *p.Agg
		a.GroupBy = append([]string(nil), p.Agg.GroupBy...)
		a.Aggs = append([]sparql.Aggregate(nil), p.Agg.Aggs...)
		a.Having = append([]sparql.Expr(nil), p.Agg.Having...)
		a.OrderBy = append([]sparql.OrderKey(nil), p.Agg.OrderBy...)
		q.Agg = &a
	}
	return &q
}

// Rebind substitutes terms in every pattern (general and crowd): the
// entity-slot rehydration step of the plan cache, mapping a cached
// shape's entities onto a new question's. Filters are not rewritten —
// callers must not rebind plans whose filters could mention a
// substituted term.
func (p *Plan) Rebind(sub map[rdf.Term]rdf.Term) {
	apply := func(pats []Pattern) {
		for i := range pats {
			t := &pats[i].Triple
			if n, ok := sub[t.S]; ok {
				t.S = n
			}
			if n, ok := sub[t.P]; ok {
				t.P = n
			}
			if n, ok := sub[t.O]; ok {
				t.O = n
			}
		}
	}
	apply(p.Where)
	for i := range p.Crowd {
		apply(p.Crowd[i].Patterns)
	}
}

// PureGeneral reports whether the plan has no crowd-mining part, i.e. it
// is a plain ontology selection.
func (p *Plan) PureGeneral() bool { return len(p.Crowd) == 0 }

// Aggregated reports whether the plan has an analytic (grouping) step.
func (p *Plan) Aggregated() bool {
	return p.Agg != nil && (len(p.Agg.GroupBy) > 0 || len(p.Agg.Aggs) > 0)
}

// IsAnonVar reports whether a variable name denotes an anonymous term
// ("anything/anyone"); such variables are never projected. The naming
// convention is shared with the oassisql package ("[]" terms).
func IsAnonVar(name string) bool {
	return len(name) >= 5 && name[:5] == "_anon"
}

// Vars returns the named (non-anonymous) variables of the plan in
// first-appearance order: WHERE patterns first, then crowd clauses.
func (p *Plan) Vars() []string {
	var out []string
	seen := map[string]bool{}
	add := func(pats []Pattern) {
		for _, pat := range pats {
			pat.Triple.EachVar(func(v string) {
				if !seen[v] && !IsAnonVar(v) {
					seen[v] = true
					out = append(out, v)
				}
			})
		}
	}
	add(p.Where)
	for _, cc := range p.Crowd {
		add(cc.Patterns)
	}
	return out
}

// WhereTriples returns the bare general triples, for evaluation; nil
// when the plan has no general part.
func (p *Plan) WhereTriples() []rdf.Triple {
	if len(p.Where) == 0 {
		return nil
	}
	out := make([]rdf.Triple, len(p.Where))
	for i, pat := range p.Where {
		out[i] = pat.Triple
	}
	return out
}

// varPredicates reports whether any pattern (general or crowd) has a
// variable in predicate position.
func (p *Plan) varPredicates() bool {
	check := func(pats []Pattern) bool {
		for _, pat := range pats {
			if pat.Triple.P.IsVar() {
				return true
			}
		}
		return false
	}
	if check(p.Where) {
		return true
	}
	for _, cc := range p.Crowd {
		if check(cc.Patterns) {
			return true
		}
	}
	return false
}
