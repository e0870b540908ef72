package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"

	"nl2cm"
)

// pipelineStages maps the Observer's stage names to metric names.
var pipelineStages = []struct{ stage, metric string }{
	{nl2cm.StageVerification, "verify"},
	{nl2cm.StageParser, "nlp"},
	{nl2cm.StageIXDetector, "ix"},
	{nl2cm.StageIXVerify, "ix_verify"},
	{nl2cm.StageGenerator, "qgen"},
	{nl2cm.StageIndividual, "individual"},
	{nl2cm.StageComposer, "compose"},
	{nl2cm.StageEmitter, "emit"},
}

// ratio returns a/b, 0 when b is 0 (the base is printed beside it).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer fills the per-layer metrics: counters from the measured HTTP
// run (/api/stats deltas and response headers), span self times and
// exact counts from two in-process replays of the stream's first requests,
// one without spans and one with them.
func (b *bench) perLayer(m *measurement, out map[string]metric) error {
	set := func(name string, v float64, unit string) { out[name] = metric{v, unit} }

	// The handler and transport: client latency minus the daemon's own
	// translation time.
	var overhead []float64
	for _, s := range m.res.samples {
		if s.op == opTranslate && !s.failed && s.translate > 0 {
			overhead = append(overhead, float64(s.lat-s.translate))
		}
	}
	sort.Float64s(overhead)
	lat, _ := m.latencies()
	set("http.requests", float64(len(lat)), "count")
	set("http.latency_p99_ms", percentile(lat, 0.99)/1e6, "ms")
	set("http.translations", float64(len(overhead)), "count")
	set("nl2cmd.overhead_us_p50", percentile(overhead, 0.5)/1e3, "us")

	a0, a1 := m.before.Admission, m.after.Admission
	admitted := float64(a1.Admitted - a0.Admitted)
	waited := float64(a1.AvgWaitNs*a1.Admitted - a0.AvgWaitNs*a0.Admitted)
	set("admission.admitted", admitted, "count")
	set("admission.wait_us_avg", ratio(waited, admitted)/1e3, "us")
	set("admission.rejected", float64(a1.Rejected-a0.Rejected), "count")

	var hits, misses, rebinds, evictions float64
	if p0, p1 := m.before.PlanCache, m.after.PlanCache; p0 != nil && p1 != nil {
		hits, misses = float64(p1.Hits-p0.Hits), float64(p1.Misses-p0.Misses)
		rebinds, evictions = float64(p1.Rebinds-p0.Rebinds), float64(p1.Evictions-p0.Evictions)
	}
	set("qcache.lookups", hits+misses, "count")
	set("qcache.hit_rate", ratio(hits, hits+misses), "ratio")
	set("qcache.rebind_share", ratio(rebinds, hits), "ratio")
	set("qcache.evictions", evictions, "count")

	epochs := float64(m.after.Store.Epoch - m.before.Store.Epoch)
	set("store.writes", float64(m.writes), "count")
	set("store.epochs_per_write", ratio(epochs, float64(m.writes)), "ratio")
	vis := durations(m.res.visible)
	set("write.visible_samples", float64(len(vis)), "count")
	set("write.visible_p50_ms", percentile(vis, 0.5)/1e6, "ms")
	set("write.visible_p90_ms", percentile(vis, 0.9)/1e6, "ms")

	// The replays: a fixed number of the stream's first requests, so two
	// traced runs with one seed replay the same inputs however far their
	// HTTP windows got.
	n := b.wl.replayN
	tr := &tracer{}
	plain, traced, err := replayPair(b.wl, b.batches, b.chk, n, tr)
	if err != nil {
		return err
	}
	// Exact-count cross-check: spans must not change what the layers do.
	if !reflect.DeepEqual(plain.counts.comparable(), traced.counts.comparable()) {
		b.chk.fail("replays disagree on exact counts:\n untraced %+v\n   traced %+v", *plain.counts, *traced.counts)
	}
	st := analyzeSpans(tr.spans)
	spanPath := filepath.Join(b.outDir, fmt.Sprintf("spans-%s-%d.jsonl", b.wl.name, b.seed))
	if err := writeSpans(spanPath, tr.spans); err != nil {
		return err
	}
	fmt.Printf("replay: %d requests, %d spans written to %s\n", st.requests, len(tr.spans), spanPath)

	reqs := float64(st.requests)
	set("replay.requests", reqs, "count")
	tc := traced.counts
	for _, o := range []string{"hit", "rebound", "miss", "bypass"} {
		set("replay.cache_"+o, float64(tc.Outcomes[o]), "count")
	}
	selfP50 := func(name string) float64 {
		v := toFloats(st.self[name])
		return percentile(v, 0.5)
	}
	share := func(name string) float64 { return ratio(float64(st.total[name]), float64(st.rootSum)) }
	set("request.remainder_share", share("request"), "ratio")
	set("qcache.probe_us_p50", selfP50(nl2cm.StagePlanCache)/1e3, "us")
	set("qcache.probe_share", share(nl2cm.StagePlanCache), "ratio")
	for _, s := range pipelineStages {
		set("stage."+s.metric+".self_us_p50", selfP50(s.stage)/1e3, "us")
		set("stage."+s.metric+".share", share(s.stage), "ratio")
	}
	set("rdf.apply_us_p50", selfP50("rdf.apply")/1e3, "us")
	set("ontology.derive_ms_p50", selfP50("ontology.derive")/1e6, "ms")
	set("sparql.where_us_p50", selfP50(nl2cm.StageCrowd)/1e3, "us")

	var satisfying []int64
	for name, v := range st.self {
		if strings.HasPrefix(name, "SATISFYING ") {
			satisfying = append(satisfying, v...)
		}
	}
	execs := float64(tc.Executions)
	set("crowd.executions", execs, "count")
	set("crowd.satisfying_ms_p50", percentile(toFloats(satisfying), 0.5)/1e6, "ms")
	set("crowd.tasks_per_req", ratio(float64(tc.Tasks), execs), "count/req")
	set("sparql.rows_per_req", ratio(float64(tc.WhereRows), execs), "count/req")
	set("crowdscale.answers_per_req", ratio(float64(tc.Answers), execs), "count/req")
	set("crowdscale.batches_per_req", ratio(float64(tc.Batches), execs), "count/req")
	set("crowdscale.tasks_decided", float64(tc.Decided), "count")
	set("crowdscale.early_share", ratio(float64(tc.Early), float64(tc.Decided)), "ratio")
	set("crowdscale.queue_high_water", float64(tc.QueueHigh), "count")
	set("crowdscale.state_hit_rate", ratio(float64(tc.StateHits), float64(tc.StateHits+tc.StateMisses)), "ratio")
	set("trace.overhead_pct", 100*ratio(float64(traced.wall-plain.wall), float64(plain.wall)), "%")
	fmt.Fprintf(os.Stderr, "perfbench: replay request time %v untraced, %v traced\n", plain.wall, traced.wall)
	return nil
}

// comparable drops the gauge that depends on worker scheduling.
func (c *replayCounts) comparable() replayCounts {
	x := *c
	x.QueueHigh = 0
	return x
}

func toFloats(v []int64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	sort.Float64s(out)
	return out
}
