package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"omini/internal/core"
	"omini/internal/corpus"
	"omini/internal/eval"
)

// benchmarkSpec is the part of BENCHMARK.json the tests read.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestWorkloadsMatchSpec(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, ok := findWorkload(sw.Name)
		if !ok {
			t.Errorf("BENCHMARK.json workload %q is not defined", sw.Name)
			continue
		}
		// The why is the workload's own rationale, rate and zero list.
		if sw.Why != w.why() {
			t.Errorf("%s: BENCHMARK.json why\n\t%q\nwant\n\t%q", w.name, sw.Why, w.why())
		}
		if len(w.why()) > 200 {
			t.Errorf("%s: why is %d characters, more than 200", w.name, len(w.why()))
		}
	}
}

// The same seed must send byte-identical traffic; another seed must not.
// Nothing sent may carry a workload's name.
func TestStreamDigestIsSeeded(t *testing.T) {
	for _, w := range workloads {
		small := w
		small.warmHosts, small.poolSites = min(w.warmHosts, 8), min(w.poolSites, 8)
		digest := func(seed uint64) (string, *traffic) {
			tr, err := buildTraffic(small, seed)
			if err != nil {
				t.Fatal(err)
			}
			return tr.stream.digest(baseClosed, 512, tr.pages), tr
		}
		a, tr := digest(7)
		b, _ := digest(7)
		c, _ := digest(8)
		if a != b {
			t.Errorf("%s: seed 7 gave digests %s and %s", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", w.name, a)
		}
		for i := uint64(0); i < 512; i++ {
			r := tr.stream.at(i)
			for _, other := range workloads {
				for _, part := range strings.Split(other.name, "-") {
					if strings.Contains(r.site, part) || strings.Contains(tr.pages[r.page].html, other.name) {
						t.Fatalf("%s: request %d (%s) carries %q", w.name, i, r.site, part)
					}
				}
			}
		}
	}
}

// The checker's scorer must agree with eval.MeasureObjectPR.
func TestScorerMatchesEval(t *testing.T) {
	sites := (&corpus.Corpus{PagesPerSite: 4}).TestSet()[:4]
	ex := core.New(core.Options{})
	groups := make(map[string][]pageScore)
	for _, sp := range sites {
		for _, page := range sp.Pages {
			res, err := ex.Extract(page.HTML)
			if err != nil {
				t.Fatal(err)
			}
			texts := make([]string, len(res.Objects))
			for i, o := range res.Objects {
				texts[i] = o.Text()
			}
			p, r := scoreObjects(texts, page.Truth.ObjectTitles)
			groups[sp.Spec.Name] = append(groups[sp.Spec.Name], pageScore{p, r})
		}
	}
	p, r := averagePR(groups)
	want := eval.MeasureObjectPR("check", sites, core.Options{})
	if math.Abs(p-want.Precision) > 1e-9 || math.Abs(r-want.Recall) > 1e-9 {
		t.Fatalf("scorer P/R %.6f/%.6f, eval %.6f/%.6f", p, r, want.Precision, want.Recall)
	}
}

// A reply that differs from the reference is a failure, never a success.
func TestCheckerRejectsWrongReplies(t *testing.T) {
	replay := &reference{subtree: "html.body.ul", separator: "li", objects: 2, digest: textsDigest([]string{"Alpha x", "Beta y"})}
	page := &poolPage{titles: []string{"Alpha", "Beta"}, group: "g", warm: "www.h.example",
		replays:   []*reference{replay},
		discovery: &reference{subtree: "html.body", separator: "ul", objects: 1, digest: textsDigest([]string{"Alpha x Beta y"})}}
	c := newChecker([]*poolPage{page})
	req := request{site: "www.h.example"}
	good := `{"site":"www.h.example","subtreePath":"html.body.ul","separator":"li","fromRule":true,"objects":[{"text":"Alpha x"},{"text":"Beta y"}]}`
	if err := c.check(req, 200, []byte(good)); err != nil {
		t.Fatalf("good reply rejected: %v", err)
	}
	for name, body := range map[string]string{
		"not from rule": strings.Replace(good, `"fromRule":true`, `"fromRule":false`, 1),
		"wrong objects": strings.Replace(good, "Beta y", "Beta z", 1),
		"wrong site":    strings.Replace(good, `"site":"www.h.example"`, `"site":"other"`, 1),
		"undecodable":   good[:40],
	} {
		if err := c.check(req, 200, []byte(body)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := c.check(req, 429, []byte(`{"error":"server at capacity"}`)); err == nil {
		t.Error("429 accepted")
	}
	if p, r, n := c.precisionRecall(); n != 1 || p != 1 || r != 1 {
		t.Errorf("P/R %v/%v over %d pages, want 1/1 over 1", p, r, n)
	}

	// The figures score what was served: a valid discovery answer whose
	// one object holds both titles scores 0/0, and the page's score is
	// the mean over its replies.
	discovery := `{"site":"www.h.example","subtreePath":"html.body","separator":"ul","fromRule":false,"objects":[{"text":"Alpha x Beta y"}]}`
	if err := c.check(req, 200, []byte(discovery)); err != nil {
		t.Fatalf("discovery reply rejected: %v", err)
	}
	if p, r, _ := c.precisionRecall(); p != 0.5 || r != 0.5 {
		t.Errorf("P/R %v/%v after one replay and one discovery reply, want 0.5/0.5", p, r)
	}
}

// syntheticWindow is one traced request on a single node: 10 ms from
// due to read, nested spans, and /metricsz deltas that fit inside them.
func syntheticWindow() ([]spanRec, scrape, scrape) {
	const ms = 1_000_000
	spans := []spanRec{
		{Req: 1, Name: spanRequest, Start: 0, End: 10 * ms},
		{Req: 1, Name: spanClient, Start: 1 * ms, End: 10 * ms},
		{Req: 1, Name: spanServe, Node: "a", Start: 2 * ms, End: 9 * ms},
	}
	after := scrape{
		`omini_request_seconds_sum{path="/extract"}`:   0.006,
		`farm_path_seconds_sum{path="fast"}`:           0.005,
		phaseSum("farm.fast"):                          0.0045,
		phaseSum("tokenize"):                           0.001,
		phaseSum("tidy"):                               0.001,
		phaseSum("build"):                              0.001,
		phaseSum("subtree"):                            0.0005,
		phaseSum("extract"):                            0.0005,
		`omini_request_seconds_count{path="/extract"}`: 1,
	}
	return spans, scrape{}, after
}

func TestLedgerReconciles(t *testing.T) {
	spans, before, after := syntheticWindow()
	l, err := buildLedger(spans, before, after, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.reconcile(); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"loadgen.queue_ms": 1, "http.transport_ms": 2, "serve.handler_ms": 1,
		"serve.extract_self_ms": 1, "farm.self_ms": 0.5, "core.unattributed_ms": 0.5,
		"htmlparse.tokenize_ms": 1, "separator.combine_ms": 0,
	}
	for k, v := range want {
		if math.Abs(l.ms[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, l.ms[k], v)
		}
	}
	if math.Abs(l.clientMs-10) > 1e-9 {
		t.Errorf("client %v, want 10", l.clientMs)
	}
	sum := 0.0
	for _, k := range ledgerTerms {
		sum += l.ms[k]
	}
	if math.Abs(sum-l.clientMs) > 1e-9 {
		t.Errorf("self times sum to %v, client mean %v", sum, l.clientMs)
	}

	// A window in which the servers counted a request the spans did not
	// see (or missed one) pairs spans with the wrong totals.
	after[`omini_request_seconds_count{path="/records"}`] = 1
	l, err = buildLedger(spans, before, after, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.reconcile(); err == nil {
		t.Fatal("a request counted outside the spans reconciled")
	}
	delete(after, `omini_request_seconds_count{path="/records"}`)

	// A phase counted twice (say, work from outside the window) leaves
	// the path span a negative remainder: the ledger must refuse it.
	after[phaseSum("tokenize")] += 0.002
	l, err = buildLedger(spans, before, after, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.reconcile(); err == nil {
		t.Fatalf("double-counted phase reconciled: %+v", l.ms)
	}
}

func TestClusterLedgerReconciles(t *testing.T) {
	const ms = 1_000_000
	// Request 1 enters at node a and is served there; request 2 enters
	// at a and is proxied to b.
	spans := []spanRec{
		{Req: 1, Name: spanRequest, Start: 0, End: 10 * ms},
		{Req: 1, Name: spanClient, Start: 0, End: 10 * ms},
		{Req: 1, Name: spanFront, Node: "a", Start: 1 * ms, End: 9 * ms},
		{Req: 1, Name: spanLocal, Node: "a", Start: 2 * ms, End: 8 * ms},
		{Req: 2, Name: spanRequest, Start: 0, End: 10 * ms},
		{Req: 2, Name: spanClient, Start: 0, End: 10 * ms},
		{Req: 2, Name: spanFront, Node: "a", Start: 1 * ms, End: 9 * ms},
		{Req: 2, Name: spanForwarded, Node: "b", Start: 3 * ms, End: 7 * ms},
		{Req: 2, Name: spanLocal, Node: "b", Start: 4 * ms, End: 6 * ms},
	}
	after := scrape{
		phaseSum("route"): 0.007 + 0.007,
		phaseSum("hop"):   0.005,
		`omini_request_seconds_sum{path="/extract"}`:   0.006 + 0.002,
		`farm_path_seconds_sum{path="fast"}`:           0.007,
		phaseSum("farm.fast"):                          0.007,
		phaseSum("tokenize"):                           0.007,
		`omini_request_seconds_count{path="/extract"}`: 2,
	}
	l, err := buildLedger(spans, scrape{}, after, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.reconcile(); err != nil {
		t.Fatal(err)
	}
	// Transport: 2 ms client→a on each request, plus hop 5 ms minus
	// forwarded 4 ms on request 2.
	if got := l.ms["http.transport_ms"]; math.Abs(got-2.5) > 1e-9 {
		t.Errorf("transport %v ms per request, want 2.5", got)
	}
	sum := 0.0
	for _, k := range ledgerTerms {
		sum += l.ms[k]
	}
	if math.Abs(sum-l.clientMs) > 1e-9 {
		t.Errorf("self times sum to %v, client mean %v", sum, l.clientMs)
	}
}

// TestSmoke runs every workload briefly, end to end and traced, and
// checks the metric set, the failure count and the bypass predictions.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the serving stack; skipped with -short")
	}
	spec := loadSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := run(options{workload: w.name, seed: 3, seconds: 2})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("end-to-end: correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
			}
			for _, m := range spec.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("end-to-end %s: got %+v, want a positive value in %s", m.Name, got, m.Unit)
				}
			}
			if len(res.Metrics) != len(spec.EndToEnd) {
				t.Errorf("end-to-end run reports %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(spec.EndToEnd))
			}

			// The traced window must hold a replication round.
			secs := max(2, 3*w.syncEvery.Seconds())
			res, err = run(options{workload: w.name, seed: 3, seconds: secs, trace: true, spansDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced: correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
			}
			for _, m := range spec.PerLayer {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v, want unit %s", m.Name, got, m.Unit)
				}
			}
			if len(res.Metrics) != len(spec.PerLayer) {
				t.Errorf("traced run reports %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(spec.PerLayer))
			}
			v := func(name string) float64 { return res.Metrics[name].Value }
			if v("failed_ratio") != 0 {
				t.Errorf("failed_ratio %v", v("failed_ratio"))
			}
			for _, name := range w.zero {
				if got, ok := res.Metrics[name]; !ok || !nearZero(got, v("ledger.client_ms")) {
					t.Errorf("predicted ~0: %s = %+v", name, got)
				}
			}
			switch w.name {
			case "warm-repeat":
				if v("farm.slow_count") != 0 || v("separator.combine_count") != 0 {
					t.Errorf("warm traffic left the fast path: slow=%v separator=%v",
						v("farm.slow_count"), v("separator.combine_count"))
				}
				if v("farm.hit_ratio") != 1 {
					t.Errorf("farm.hit_ratio %v, want 1", v("farm.hit_ratio"))
				}
			case "cold-discovery":
				if v("farm.hit_ratio") != 0 || v("farm.evictions") <= 0 {
					t.Errorf("cold traffic: hit_ratio=%v evictions=%v, want 0 and > 0",
						v("farm.hit_ratio"), v("farm.evictions"))
				}
			case "cluster-3node":
				if p := v("cluster.proxied_ratio"); math.Abs(p-2.0/3) > 0.12 {
					t.Errorf("cluster.proxied_ratio %v, want about 2/3", p)
				}
				if v("ruledist.rounds") <= 0 {
					t.Error("no replication rounds in the traced window")
				}
			}
		})
	}
}

// The closed loop must leave the servers' kept state as set-up left it:
// no warm page under a never-seen name, no /records on a never-seen
// host. The open loop may do both.
func TestClosedLoopKeepsStateFixed(t *testing.T) {
	for _, w := range workloads {
		small := w
		small.warmHosts, small.poolSites = min(w.warmHosts, 8), min(w.poolSites, 8)
		tr, err := buildTraffic(small, 5)
		if err != nil {
			t.Fatal(err)
		}
		var fresh, freshRecords int
		for _, base := range []uint64{baseClosed, baseOpen} {
			for i := base; i < base+4096; i++ {
				r := tr.stream.at(i)
				isFresh := r.site != tr.pages[r.page].warm
				if base == baseClosed && isFresh && (tr.pages[r.page].warm != "" || r.records) {
					t.Fatalf("%s: closed-loop request %d (%s %s) grows the servers' state", w.name, i, r.path(), r.site)
				}
				if base == baseOpen && isFresh {
					fresh++
					if r.records {
						freshRecords++
					}
				}
			}
		}
		if (w.freshShare > 0 || w.poolSites > 0) && fresh == 0 {
			t.Errorf("%s: the open loop names no never-seen host", w.name)
		}
		if w.poolSites > 0 && w.recordsShare > 0 && freshRecords == 0 {
			t.Errorf("%s: the open loop sends no /records on a never-seen host", w.name)
		}
	}
}

// A route's fastest reply stands for all its replies, each route
// weighted by how often it was sent.
func TestServiceTimes(t *testing.T) {
	s := newServiceTimes(2, 3)
	ms := time.Millisecond
	s.observe(request{page: 0, front: 0}, 3*ms)
	s.observe(request{page: 0, front: 0}, 1*ms)
	s.observe(request{page: 0, front: 0}, 2*ms)
	s.observe(request{page: 0, front: 1}, 4*ms) // another front door is another route
	s.observe(request{page: 1, records: true, front: 2}, 8*ms)
	if got, want := s.meanMs(), (3*1.0+4+8)/5; math.Abs(got-want) > 1e-9 {
		t.Fatalf("meanMs %v, want %v", got, want)
	}
}
