package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"html"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nl2cm"
)

// sample is one HTTP request as the client saw it.
type sample struct {
	op        op
	lat       time.Duration // send to full response
	translate time.Duration // X-Translate-Time (0 when absent)
	outcome   string        // X-Plan-Cache
	failed    bool          // transport error, non-2xx or wrong output
}

// execReply is an /execute response kept for the exhaustive check.
type execReply struct {
	question string
	query    string
	bindings []string
}

// checker validates every response against the oracle and counts
// failures. It is shared by the client goroutines.
type checker struct {
	oracle map[string]answer
	writes []writeEntity
	// execCheck selects the execute requests whose replies are kept for
	// the exhaustive comparison after the run.
	execCheck func(i int) bool

	// failures counts every failed or wrong response; each failed
	// sample is reported here.
	failures atomic.Int64
	mu       sync.Mutex
	printed  int
	execKept map[int]execReply
}

// fail records a wrong or failed response; the first few are printed.
func (c *checker) fail(format string, args ...any) {
	c.failures.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.printed < 5 {
		c.printed++
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", fmt.Sprintf(format, args...))
	}
}

// runner drives one daemon.
type runner struct {
	base string
	http *http.Client
	chk  *checker
	// clients is the number of closed-loop client connections: each
	// waits for its reply before sending the next request.
	clients int
}

func newRunner(base string, chk *checker, clients int) *runner {
	tr := &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients, DisableCompression: true}
	return &runner{base: base, http: &http.Client{Transport: tr, Timeout: 60 * time.Second}, chk: chk, clients: clients}
}

func (r *runner) close() { r.http.CloseIdleConnections() }

// post sends one request and reads the whole response.
func (r *runner) post(path, ctype string, body []byte) (*http.Response, []byte, time.Duration, error) {
	t0 := time.Now()
	resp, err := r.http.Post(r.base+path, ctype, bytes.NewReader(body))
	if err != nil {
		return nil, nil, time.Since(t0), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, data, time.Since(t0), err
}

func headerSample(o op, resp *http.Response, lat time.Duration) sample {
	s := sample{op: o, lat: lat, outcome: resp.Header.Get("X-Plan-Cache")}
	s.translate, _ = time.ParseDuration(resp.Header.Get("X-Translate-Time")) // absent: 0
	return s
}

// apiReply is the checked part of /api/translate's JSON.
type apiReply struct {
	Supported bool   `json:"supported"`
	Query     string `json:"query"`
	Rendering *struct {
		Query string `json:"query"`
	} `json:"rendering"`
}

// translate sends one /api/translate request and decodes the answer.
func (r *runner) translate(question, backend string) (sample, answer, error) {
	body, _ := json.Marshal(map[string]string{"question": question, "backend": backend}) // strings always marshal
	resp, data, lat, err := r.post("/api/translate", "application/json", body)
	if err != nil {
		return sample{op: opTranslate, lat: lat, failed: true}, answer{}, err
	}
	s := headerSample(opTranslate, resp, lat)
	if resp.StatusCode != http.StatusOK {
		s.failed = true
		return s, answer{}, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	var rep apiReply
	if err := json.Unmarshal(data, &rep); err != nil {
		s.failed = true
		return s, answer{}, err
	}
	a := answer{supported: rep.Supported, query: rep.Query}
	if rep.Rendering != nil {
		a.rendering = rep.Rendering.Query
	}
	return s, a, nil
}

// do runs request i and returns its samples (a write yields two: the
// store POST and the visibility probe) and, for a write, the time from
// sending it to the probe's full response.
func (r *runner) do(i int, req request) ([]sample, time.Duration) {
	switch req.op {
	case opTranslate:
		s, got, err := r.translate(req.question, req.backend)
		if err != nil {
			r.chk.fail("translate %q (%s): %v", req.question, req.backend, err)
			return []sample{s}, 0
		}
		if want, ok := r.chk.oracle[oracleKey(req.question, req.backend)]; !ok || got != want {
			s.failed = true
			r.chk.fail("translate %q (%s): answer differs from the cold in-process translation\n got: %+v\nwant: %+v", req.question, req.backend, got, want)
		}
		return []sample{s}, 0
	case opExecute:
		return []sample{r.execute(i, req)}, 0
	default:
		return r.writeAndProbe(req)
	}
}

// execute sends one /execute request. Every reply must bind the named
// hotel; selected replies are kept for the exhaustive comparison.
func (r *runner) execute(i int, req request) sample {
	resp, data, lat, err := r.post("/execute", "application/x-www-form-urlencoded",
		[]byte(url.Values{"q": {req.question}}.Encode()))
	if err != nil {
		r.chk.fail("execute %q: %v", req.question, err)
		return sample{op: opExecute, lat: lat, failed: true}
	}
	s := headerSample(opExecute, resp, lat)
	if resp.StatusCode != http.StatusOK {
		s.failed = true
		r.chk.fail("execute %q: status %d", req.question, resp.StatusCode)
		return s
	}
	query, bindings, err := parseExecutePage(string(data))
	if err != nil || !strings.Contains(query, local(hotelLabel(req.hotel))) {
		s.failed = true
		r.chk.fail("execute %q: reply does not bind the hotel (%v)", req.question, err)
		return s
	}
	if r.chk.execCheck != nil && r.chk.execCheck(i) {
		r.chk.mu.Lock()
		r.chk.execKept[i] = execReply{question: req.question, query: query, bindings: bindings}
		r.chk.mu.Unlock()
	}
	return s
}

// parseExecutePage extracts the final query and the significant
// bindings from /execute's HTML. Binding parts print in map order, so
// they are normalized.
func parseExecutePage(page string) (string, []string, error) {
	const qOpen, qClose = "<h2>Final OASSIS-QL query</h2>\n<pre>", "</pre>"
	i := strings.Index(page, qOpen)
	if i < 0 {
		return "", nil, fmt.Errorf("no query in page")
	}
	rest := page[i+len(qOpen):]
	j := strings.Index(rest, qClose)
	if j < 0 {
		return "", nil, fmt.Errorf("unterminated query")
	}
	query := html.UnescapeString(rest[:j])
	const bOpen = "<h3>significant bindings</h3>\n<ul>"
	k := strings.Index(rest, bOpen)
	if k < 0 {
		return "", nil, fmt.Errorf("no bindings in page")
	}
	list, _, ok := strings.Cut(rest[k+len(bOpen):], "</ul>")
	if !ok {
		return "", nil, fmt.Errorf("unterminated bindings")
	}
	var rows [][]string
	for _, li := range strings.Split(list, "</li>") {
		li = strings.TrimPrefix(strings.TrimSpace(li), "<li>")
		if li == "" {
			continue
		}
		li = html.UnescapeString(li)
		// Parts are "$v = Local" joined by ", "; locals may contain ", ".
		parts := strings.Split(li, ", $")
		for p := 1; p < len(parts); p++ {
			parts[p] = "$" + parts[p]
		}
		rows = append(rows, parts)
	}
	return query, normBindings(rows), nil
}

// writeAndProbe inserts write j's hotel, deletes the one inserted
// writeKeep writes earlier, then translates a question naming the new
// hotel: the reply must bind it.
func (r *runner) writeAndProbe(req request) ([]sample, time.Duration) {
	e := writeFor(r.chk.writes, req.write)
	del := deleteFor(r.chk.writes, req.write)
	t0 := time.Now()
	body, _ := json.Marshal(map[string]string{"insert": e.triples(), "delete": del}) // strings always marshal
	resp, data, lat, err := r.post("/api/store", "application/json", body)
	ws := sample{op: opWrite, lat: lat}
	if err != nil || resp.StatusCode != http.StatusOK {
		ws.failed = true
		r.chk.fail("write %d: %v %s", req.write, err, data)
		return []sample{ws}, 0
	}
	var sr storeResponse
	wantAdded, wantRemoved := strings.Count(e.triples(), "\n"), strings.Count(del, "\n")
	if err := json.Unmarshal(data, &sr); err != nil || sr.Added != wantAdded || sr.Removed != wantRemoved {
		ws.failed = true
		r.chk.fail("write %d: reply %s (want %d added, %d removed)", req.write, data, wantAdded, wantRemoved)
	}
	q := fmt.Sprintf(probeTemplate, e.label)
	ps, got, err := r.translate(q, nl2cm.DefaultBackend)
	visible := time.Since(t0)
	switch {
	case err != nil:
		r.chk.fail("probe %q: %v", q, err)
	case !got.supported || !strings.Contains(got.query, e.local()):
		ps.failed = true
		r.chk.fail("probe %q does not bind %s:\n%s", q, e.local(), got.query)
	}
	return []sample{ws, ps}, visible
}

// runResult is what one drive produces.
type runResult struct {
	samples []sample
	visible []time.Duration // write-mix: write sent → probe answered
	// items is how many stream requests ran: exactly indices [0, items),
	// since clients take indices in order and run every one they take.
	items   int
	elapsed time.Duration
}

// drive runs the stream through the closed-loop clients until the
// deadline passes or the stream is exhausted. Requests are taken in
// stream order from a shared counter.
func (r *runner) drive(item func(i int) (request, bool), deadline time.Time) *runResult {
	var next atomic.Int64
	per := make([]*runResult, r.clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < r.clients; c++ {
		per[c] = &runResult{}
		wg.Add(1)
		go func(res *runResult) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				req, ok := item(i)
				if !ok {
					return
				}
				ss, vis := r.do(i, req)
				res.items++
				res.samples = append(res.samples, ss...)
				if vis > 0 {
					res.visible = append(res.visible, vis)
				}
			}
		}(per[c])
	}
	wg.Wait()
	out := &runResult{elapsed: time.Since(start)}
	for _, p := range per {
		out.items += p.items
		out.samples = append(out.samples, p.samples...)
		out.visible = append(out.visible, p.visible...)
	}
	return out
}

// runList sends a fixed request list through the clients (warm-up).
func (r *runner) runList(reqs []request) {
	r.drive(func(i int) (request, bool) {
		if i >= len(reqs) {
			return request{}, false
		}
		return reqs[i], true
	}, time.Now().Add(time.Hour))
}
