package main

import (
	"fmt"
	"time"
)

// reconcileTolerance is the share of the client-measured mean by which
// any one self time may read below zero before the traced run counts as
// inconsistent.
const reconcileTolerance = 0.02

// phaseLayers maps the pipeline's phase spans (omini_phase_seconds) to
// the layer metrics they report.
var phaseLayers = []struct{ phase, metric string }{
	{"tokenize", "htmlparse.tokenize_ms"},
	{"tidy", "tidy.normalize_ms"},
	{"build", "tagtree.build_ms"},
	{"subtree", "subtree.rank_ms"},
	{"separator", "separator.combine_ms"},
	{"extract", "extract.construct_ms"},
}

// ledgerTerms are the self-time metrics that together make up a
// request's latency from its due time; everything else the ledger
// reports is an inclusive view or a count.
var ledgerTerms = []string{
	"loadgen.queue_ms", "http.transport_ms",
	"cluster.self_ms", "cluster.route_ms",
	"serve.handler_ms", "serve.extract_self_ms", "serve.records_ms",
	"farm.self_ms",
	"htmlparse.tokenize_ms", "tidy.normalize_ms", "tagtree.build_ms",
	"subtree.rank_ms", "separator.combine_ms", "extract.construct_ms",
	"core.unattributed_ms",
}

// ledger is the traced window's per-request time split.
type ledger struct {
	requests int
	// ms holds every time metric, per request, in milliseconds.
	ms map[string]float64
	// clientMs is the client-measured mean latency from due time.
	clientMs float64
	// handled is how many server-side handler calls the benchmark's own
	// spans saw in the window (serve.Server.ServeHTTP on a single node,
	// the coordinator's Local handler in a cluster); counted is how many
	// /extract and /records requests the servers' own request series
	// counted over the same window.
	handled, counted int
}

// reqSpans gathers the benchmark spans of one request.
type reqSpans struct {
	due, done, sent, clientDur time.Duration
	frontNode                  string
	front, forwarded           time.Duration
	local, localAtFront        time.Duration
	seen                       bool
}

// buildLedger splits the traced window's latency into layer self times.
// Spans are the benchmark's own (client, listener handler, Local
// handler); program-internal totals are /metricsz deltas over the same
// window. Self time is a span's total minus its children's:
//
//	request   = queue + client
//	client    = transport + front
//	front     = serve (single node)
//	front     = cluster.self + route                        (cluster)
//	route     = cluster.route + hop + local served at the front door
//	hop       = transport + forwarded
//	forwarded = cluster.self + local served at the owner
//	serve     = serve.handler + /extract + /records
//	/extract  = serve.extract_self + farm paths
//	farm path = farm.self + farm path spans
//	path spans = six phases + core.unattributed
func buildLedger(spans []spanRec, before, after scrape, clustered bool) (*ledger, error) {
	reqs := make(map[int64]*reqSpans)
	get := func(id int64) *reqSpans {
		r := reqs[id]
		if r == nil {
			r = &reqSpans{}
			reqs[id] = r
		}
		return r
	}
	for _, s := range spans {
		if s.Name != spanRequest && s.Name != spanServe && s.Name != spanFront {
			continue
		}
		r := get(s.Req)
		switch s.Name {
		case spanRequest:
			r.due, r.done, r.seen = time.Duration(s.Start), time.Duration(s.End), true
		default:
			r.front += s.dur()
			r.frontNode = s.Node
		}
	}
	for _, s := range spans {
		r := get(s.Req)
		switch s.Name {
		case spanClient:
			r.sent = time.Duration(s.Start)
			r.clientDur += s.dur()
		case spanForwarded:
			r.forwarded += s.dur()
		case spanLocal:
			r.local += s.dur()
			if s.Node == r.frontNode {
				r.localAtFront += s.dur()
			}
		}
	}
	var total, queue, client, front, forwarded, local, localAtFront float64
	n, serveCalls, localCalls := 0, 0, 0
	for _, s := range spans {
		switch s.Name {
		case spanServe:
			serveCalls++
		case spanLocal:
			localCalls++
		}
	}
	for id, r := range reqs {
		if !r.seen {
			return nil, fmt.Errorf("ledger: request %d has spans but no %s span", id, spanRequest)
		}
		n++
		total += (r.done - r.due).Seconds()
		queue += (r.sent - r.due).Seconds()
		client += r.clientDur.Seconds()
		front += r.front.Seconds()
		forwarded += r.forwarded.Seconds()
		local += r.local.Seconds()
		localAtFront += r.localAtFront.Seconds()
	}
	if n == 0 {
		return nil, fmt.Errorf("ledger: no traced requests")
	}
	d := func(name string) float64 { return delta(before, after, name) }
	hop, route := d(phaseSum("hop")), d(phaseSum("route"))
	reqExtract := d(`omini_request_seconds_sum{path="/extract"}`)
	reqRecords := d(`omini_request_seconds_sum{path="/records"}`)
	pathFast := d(`farm_path_seconds_sum{path="fast"}`)
	pathSlow := d(`farm_path_seconds_sum{path="slow"}`)
	spanFast, spanSlow := d(phaseSum("farm.fast")), d(phaseSum("farm.slow"))

	sec := map[string]float64{
		"loadgen.queue_ms":      queue,
		"http.transport_ms":     client - front,
		"serve.extract_self_ms": reqExtract - pathFast - pathSlow,
		"serve.records_ms":      reqRecords,
		"farm.self_ms":          pathFast + pathSlow - spanFast - spanSlow,
		"farm.fast_ms":          spanFast,
		"farm.slow_ms":          spanSlow,
		"cluster.hop_ms":        hop,
	}
	served := front
	if clustered {
		served = local
		sec["http.transport_ms"] += hop - forwarded
		sec["cluster.self_ms"] = front - route + forwarded - (local - localAtFront)
		sec["cluster.route_ms"] = route - hop - localAtFront
	}
	sec["serve.handler_ms"] = served - reqExtract - reqRecords
	phases := 0.0
	for _, p := range phaseLayers {
		v := d(phaseSum(p.phase))
		sec[p.metric] = v
		phases += v
	}
	sec["core.unattributed_ms"] = spanFast + spanSlow - phases

	l := &ledger{requests: n, ms: make(map[string]float64, len(sec)), handled: serveCalls,
		counted: int(d(`omini_request_seconds_count{path="/extract"}`) + d(`omini_request_seconds_count{path="/records"}`))}
	if clustered {
		l.handled = localCalls
	}
	perReq := 1000 / float64(n)
	for k, v := range sec {
		l.ms[k] = v * perReq
	}
	l.clientMs = total * perReq
	return l, nil
}

// reconcile checks the ledger against what it cannot derive from itself.
// The self times are remainders of nested spans, so by construction they
// sum to the client-measured mean; what can go wrong is the pairing of
// the benchmark's spans with the servers' /metricsz totals. Two checks
// catch it: the servers must have counted exactly the requests the
// benchmark's spans saw them handle (a scrape window that missed or
// took in other requests fails this), and no self time may be negative
// beyond the stated tolerance (a child counted that its parent never
// contained: a double-counted span, or a series from outside the window).
func (l *ledger) reconcile() error {
	if l.handled != l.counted {
		return fmt.Errorf("ledger: the servers counted %d /extract and /records requests, the benchmark's spans saw %d handled",
			l.counted, l.handled)
	}
	tol := reconcileTolerance * l.clientMs
	for _, k := range ledgerTerms {
		if l.ms[k] < -tol {
			return fmt.Errorf("ledger: %s is %.4f ms, below zero by more than %.4f", k, l.ms[k], tol)
		}
	}
	return nil
}
