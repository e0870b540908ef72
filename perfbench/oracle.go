package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"nl2cm"
)

// answer is the part of a translation the benchmark checks byte for
// byte: the verdict, the OASSIS-QL query and the requested backend's
// rendering.
type answer struct {
	supported bool
	query     string
	rendering string
}

// buildOntology builds the daemon's ontology in-process: the demo
// ontology plus the world, applied in the batches the daemon receives.
func buildOntology(batches []string) (*nl2cm.Ontology, error) {
	onto := nl2cm.DemoOntology()
	for _, b := range batches {
		if err := applyNT(onto, b, ""); err != nil {
			return nil, err
		}
	}
	return onto, nil
}

// applyNT applies one insert/delete batch of N-Triples text.
func applyNT(onto *nl2cm.Ontology, insert, del string) error {
	var batch nl2cm.StoreBatch
	var err error
	if batch.Insert, err = nl2cm.ParseTriples(strings.NewReader(insert)); err != nil {
		return fmt.Errorf("parse insert: %w", err)
	}
	if batch.Delete, err = nl2cm.ParseTriples(strings.NewReader(del)); err != nil {
		return fmt.Errorf("parse delete: %w", err)
	}
	if _, _, _, err := onto.Store.Apply(batch); err != nil {
		return fmt.Errorf("apply: %w", err)
	}
	return nil
}

// extraBackends returns the non-default backends, the Options.Backends
// the daemon passes for a request naming backend b.
func extraBackends(b string) []string {
	if b == nl2cm.DefaultBackend {
		return nil
	}
	return []string{b}
}

// translateAnswer derives the checked answer from a result, as the
// daemon's /api/translate handler does; ok is false where the daemon
// answers 422 (the backend cannot express the plan).
func translateAnswer(res *nl2cm.Result, backend string) (answer, bool) {
	if !res.Verdict.Supported {
		return answer{}, true
	}
	rend, err := res.Render(backend)
	if err != nil {
		return answer{}, false
	}
	return answer{supported: true, query: res.Query.String(), rendering: rend.Query}, true
}

func oracleKey(question, backend string) string { return backend + "\x00" + question }

// readOracle translates every pool question cold (no plan cache) and
// returns the expected answer of every (question, backend) pair. Every
// pair must render: the daemon answers 422 where a backend cannot
// express a plan, and a stream that skipped such pairs would turn a
// rendering regression into a cheaper mix instead of an error.
func readOracle(onto *nl2cm.Ontology, pool, backends []string) (map[string]answer, error) {
	tr := nl2cm.NewTranslator(onto)
	var extra []string
	for _, b := range backends {
		extra = append(extra, extraBackends(b)...)
	}
	results := make([]map[string]answer, len(pool))
	errs := make([]error, len(pool))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2) // two translations at a time, one per core
	for i, q := range pool {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, q string) {
			defer func() { <-sem; wg.Done() }()
			res, err := tr.Translate(context.Background(), q, nl2cm.Options{Trace: true, Backends: extra})
			if err != nil {
				errs[i] = fmt.Errorf("oracle translate %q: %w", q, err)
				return
			}
			results[i] = map[string]answer{}
			for _, b := range backends {
				a, ok := translateAnswer(res, b)
				if !ok {
					errs[i] = fmt.Errorf("oracle: backend %s cannot render %q", b, q)
					return
				}
				results[i][b] = a
			}
		}(i, q)
	}
	wg.Wait()
	oracle := map[string]answer{}
	for i, q := range pool {
		if errs[i] != nil {
			return nil, errs[i]
		}
		for b, a := range results[i] {
			oracle[oracleKey(q, b)] = a
		}
	}
	return oracle, nil
}

// checkVariants asserts that every world-entity read variant is
// supported and its query binds the entity it names.
func checkVariants(oracle map[string]answer, entities map[string]string) error {
	for _, q := range sortedKeys(entities) {
		a := oracle[oracleKey(q, nl2cm.DefaultBackend)]
		if !a.supported || !strings.Contains(a.query, entities[q]) {
			return fmt.Errorf("read variant %q does not bind %s", q, entities[q])
		}
	}
	return nil
}

// checkWriteInvariance applies the write sequence to a copy of the
// world, through a full cycle of write hotels (the sequence repeats
// after that), and re-translates every read: each must be
// byte-identical, so a read has one correct answer at any epoch of a
// write-mix run.
func checkWriteInvariance(batches []string, writes []writeEntity, oracle map[string]answer, backends, questions []string) error {
	onto, err := buildOntology(batches)
	if err != nil {
		return err
	}
	for j := 0; j < len(writes)+writeKeep; j++ {
		if err := applyNT(onto, writeFor(writes, j).triples(), deleteFor(writes, j)); err != nil {
			return fmt.Errorf("write %d: %w", j, err)
		}
	}
	after, err := readOracle(onto, questions, backends)
	if err != nil {
		return err
	}
	for _, k := range sortedKeys(oracle) {
		if after[k] != oracle[k] {
			b, q, _ := strings.Cut(k, "\x00")
			return fmt.Errorf("read %q (backend %s) translates differently after the write sequence", q, b)
		}
	}
	return nil
}

// writeFor returns the hotel write j inserts.
func writeFor(writes []writeEntity, j int) writeEntity { return writes[j%len(writes)] }

// deleteFor returns the triples write j deletes: the hotel inserted
// writeKeep writes earlier.
func deleteFor(writes []writeEntity, j int) string {
	if j < writeKeep {
		return ""
	}
	return writeFor(writes, j-writeKeep).triples()
}

// newCrowdEngine builds the daemon's crowd engine for execute-fresh
// (-crowd-size crowdSize, seed 7, demo truth); scale attaches the
// streaming executor as -crowd-scale does.
func newCrowdEngine(onto *nl2cm.Ontology, scale bool) (*nl2cm.Engine, error) {
	c := nl2cm.NewCrowd(crowdSize, 7)
	c.Truth = nl2cm.DemoTruth()
	eng := nl2cm.NewEngine(onto, c)
	if scale {
		x, err := nl2cm.NewScaleExecutor(c, nl2cm.ScaleConfig{})
		if err != nil {
			return nil, err
		}
		eng.Scale = x
	}
	return eng, nil
}

// normBindings renders significant bindings order-independently: each
// row's "$var = Local" parts sorted, rows sorted.
func normBindings(rows [][]string) []string {
	out := make([]string, 0, len(rows))
	for _, r := range rows {
		parts := append([]string(nil), r...)
		sort.Strings(parts)
		out = append(out, strings.Join(parts, ", "))
	}
	sort.Strings(out)
	return out
}

// execOracle is the exhaustive reference for one execute request: a
// cold translation and the engine without the streaming executor.
func execOracle(onto *nl2cm.Ontology, eng *nl2cm.Engine, question string) (string, []string, error) {
	res, err := nl2cm.NewTranslator(onto).Translate(context.Background(), question, nl2cm.Options{Trace: true})
	if err != nil {
		return "", nil, err
	}
	if !res.Verdict.Supported {
		return "", nil, fmt.Errorf("execute question %q is unsupported", question)
	}
	out, err := eng.Execute(context.Background(), res.Query)
	if err != nil {
		return "", nil, err
	}
	var rows [][]string
	for _, b := range out.Bindings {
		var r []string
		for v, t := range b {
			r = append(r, "$"+v+" = "+t.Local())
		}
		rows = append(rows, r)
	}
	return res.Query.String(), normBindings(rows), nil
}
