package nl2cm

// Ontology-scale benchmarks for the SPARQL/RDF data plane: multi-pattern
// join planning (P8), lookup + evaluation at 10k/100k triples (P9), and
// grouped aggregation over a full scan (P10). EXPERIMENTS.md records
// before/after numbers for the interned-store and planner rewrite.

import (
	"fmt"
	"testing"

	"nl2cm/internal/ontology"
	"nl2cm/internal/qgen"
	"nl2cm/internal/rdf"
	"nl2cm/internal/sparql"
)

// synthFor returns a synthetic ontology sized to approximately the given
// triple count (the generator emits ~4 triples per entity).
func synthFor(triples int) *ontology.Ontology {
	return ontology.NewSynthetic(triples / 4)
}

// BenchmarkP8_JoinPlan measures a three-pattern BGP join where the
// selective pattern (richIn appears on 1% of entities) is written last:
// the planner, ordering patterns by the store's CountMatch, must start
// from it rather than from the first, far larger pattern.
func BenchmarkP8_JoinPlan(b *testing.B) {
	for _, triples := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("triples=%d", triples), func(b *testing.B) {
			onto := synthFor(triples)
			q, err := sparql.Parse(fmt.Sprintf(`SELECT $x $y $z WHERE {
				$x <%snear> $y .
				$y <%sinstanceOf> <%sclass3> .
				$x <%srichIn> $z
			}`, ontology.NS, ontology.NS, ontology.NS, ontology.NS))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, err := sparql.Eval(q, onto.Store, nil)
				if err != nil || len(rows) == 0 {
					b.Fatalf("join failed: %v (%d rows)", err, len(rows))
				}
			}
		})
	}
}

// BenchmarkP9_ScaleLookup measures the qgen hot path at ontology scale:
// a feedback-ranked label lookup (which probes entity degree via
// CountMatch) followed by a two-pattern Eval over the store. One untimed
// lookup and evaluation first derive the label index, so the timed loop
// prices the steady state, not the one-time derivation.
func BenchmarkP9_ScaleLookup(b *testing.B) {
	for _, triples := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("triples=%d", triples), func(b *testing.B) {
			onto := synthFor(triples)
			gen := qgen.New(onto)
			q, err := sparql.Parse(fmt.Sprintf(`SELECT $x $y WHERE {
				$x <%sinstanceOf> <%sclass7> .
				$x <%snear> $y
			}`, ontology.NS, ontology.NS, ontology.NS))
			if err != nil {
				b.Fatal(err)
			}
			lookup := func() {
				cands := gen.RankCandidates("entity 42")
				if len(cands) == 0 {
					b.Fatal("lookup found nothing")
				}
				rows, err := sparql.Eval(q, onto.Store, nil)
				if err != nil || len(rows) == 0 {
					b.Fatalf("eval failed: %v (%d rows)", err, len(rows))
				}
			}
			lookup()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lookup()
			}
		})
	}
}

// BenchmarkP12_SnapshotRead prices sharding on the read path: the same
// two-pattern join evaluated against a published snapshot of a
// one-shard ShardedStore and of the default sixteen-shard store holding
// identical triples. The per-pattern cost added by sharding is one hash
// and, for subject-unbound patterns, a loop over (mostly empty) shards.
func BenchmarkP12_SnapshotRead(b *testing.B) {
	for _, triples := range []int{10_000, 100_000} {
		onto := synthFor(triples)
		snap := onto.Snapshot()
		one := rdf.NewShardedStore(1)
		for _, t := range snap.All() {
			one.MustAdd(t)
		}
		q, err := sparql.Parse(fmt.Sprintf(`SELECT $x $y WHERE {
			$x <%sinstanceOf> <%sclass7> .
			$x <%snear> $y
		}`, ontology.NS, ontology.NS, ontology.NS))
		if err != nil {
			b.Fatal(err)
		}
		for _, src := range []struct {
			name string
			s    sparql.Source
		}{{"1", one.Snapshot()}, {"16", snap}} {
			b.Run(fmt.Sprintf("shards=%s/triples=%d", src.name, triples), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rows, err := sparql.Eval(q, src.s, nil)
					if err != nil || len(rows) == 0 {
						b.Fatalf("eval failed: %v (%d rows)", err, len(rows))
					}
				}
			})
		}
	}
}

// BenchmarkP10_GroupBy measures the analytic path the superlative
// questions take: a grouped COUNT over every near-edge in the store,
// ordered descending on the alias with LIMIT 1 — the "which group is
// biggest" plan shape, dominated by grouping and the typed sort.
func BenchmarkP10_GroupBy(b *testing.B) {
	for _, triples := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("triples=%d", triples), func(b *testing.B) {
			onto := synthFor(triples)
			q, err := sparql.Parse(fmt.Sprintf(`SELECT $y COUNT($x) AS $n WHERE {
				$x <%snear> $y
			} GROUP BY $y ORDER BY DESC($n) LIMIT 1`, ontology.NS))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, err := sparql.Eval(q, onto.Store, nil)
				if err != nil || len(rows) != 1 {
					b.Fatalf("group-by failed: %v (%d rows)", err, len(rows))
				}
			}
		})
	}
}
