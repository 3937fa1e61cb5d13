package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"

	"omini/internal/core"
	"omini/internal/rules"
	"omini/internal/sitegen"
	"omini/internal/wrapgen"
)

// poolPage is one page the measured traffic sends, with the answers the
// serving stack may give for it and the truth titles its replies are
// scored against. The references come from the library
// run in-process. A warm host's page is answered by replaying the rule
// learned from its training page; the farm's drift revalidation may
// later relearn the host's rule from another of its pages, and a rule
// that does not match the page is rediscovered inline, so replays under
// those rules and discovery on the page itself are valid answers too. A
// host the servers have never seen gets discovery.
type poolPage struct {
	html   string
	titles []string
	// group is the site the page belongs to; precision and recall are
	// averaged per group, then over groups, as eval.MeasureObjectPR does.
	group string
	// warm is the host the page travels under when it is not sent
	// under a fresh name ("" when it never is).
	warm string
	// replays are the fast-path answers: replays of the host's learned
	// rules that match the page.
	replays []*reference
	// discovery is the full-discovery answer.
	discovery *reference
	// records are the valid /records counts under the warm host: one per
	// wrapper the host may hold, applied to the page; freshRecords is the
	// count under a never-seen host.
	records      []int
	freshRecords int
}

// reference is one expected /extract answer, reduced to what the checker
// compares.
type reference struct {
	subtree   string
	separator string
	objects   int
	digest    uint64
}

func newReference(res *core.Result) *reference {
	return &reference{subtree: res.SubtreePath, separator: res.Separator,
		objects: len(res.Objects), digest: textsDigest(objectTexts(res))}
}

func objectTexts(res *core.Result) []string {
	texts := make([]string, len(res.Objects))
	for i, o := range res.Objects {
		texts[i] = o.Text()
	}
	return texts
}

func textsDigest(texts []string) uint64 {
	h := fnv.New64a()
	for _, t := range texts {
		h.Write([]byte(t))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// buildPool generates the pool pages of the warm hosts and of the
// fresh-host sites, with their references. Warm hosts learn from page 0
// and serve pages 1..perHost, so the measured pages are ones the stack
// has never seen. withRecords adds the /records answers.
func buildPool(warm, poolSites []sitegen.SiteSpec, perHost int, withRecords bool) ([]*poolPage, []sitegen.Page, error) {
	ex := core.New(core.Options{})
	discover := func(p sitegen.Page) (*core.Result, error) {
		res, err := ex.Extract(p.HTML)
		if err != nil {
			return nil, fmt.Errorf("reference for %s: %w", p.Name, err)
		}
		return res, nil
	}
	var pages []*poolPage
	training := make([]sitegen.Page, 0, len(warm))
	for _, spec := range warm {
		train := spec.Page(0)
		res, err := discover(train)
		if err != nil {
			return nil, nil, err
		}
		training = append(training, train)
		// Every page the host is served from can become the source of
		// its rule and wrapper: set-up learns from the training page;
		// relearns (drift, mismatch, stale wrapper) learn from the page
		// at hand.
		sources := []*core.Result{res}
		host := make([]*poolPage, perHost)
		for k := range host {
			p := spec.Page(k + 1)
			dr, err := discover(p)
			if err != nil {
				return nil, nil, err
			}
			sources = append(sources, dr)
			host[k] = &poolPage{html: p.HTML, titles: p.Truth.ObjectTitles, group: spec.Name,
				warm: spec.Name, discovery: newReference(dr)}
		}
		var learned []rules.Rule
		for _, src := range sources {
			r := src.Rule(spec.Name)
			if !slices.ContainsFunc(learned, func(have rules.Rule) bool { return sameRule(have, r) }) {
				learned = append(learned, r)
			}
		}
		for _, pp := range host {
			replays := make([]*core.Result, len(learned))
			for i, r := range learned {
				rr, err := ex.ExtractWithRule(pp.html, r)
				if err != nil {
					continue // the farm would rediscover: discovery is the answer
				}
				replays[i] = rr
				pp.replays = append(pp.replays, newReference(rr))
			}
			if !withRecords {
				continue
			}
			for _, src := range sources {
				w, err := wrapgen.LearnFromResult(spec.Name, src)
				if err != nil {
					continue
				}
				i := slices.IndexFunc(learned, func(r rules.Rule) bool { return sameRule(r, w.Rule) })
				if replays[i] != nil {
					pp.records = append(pp.records, len(w.Project(replays[i].Objects)))
				}
			}
		}
		pages = append(pages, host...)
	}
	for _, spec := range poolSites {
		p := spec.Page(1)
		dr, err := discover(p)
		if err != nil {
			return nil, nil, err
		}
		pp := &poolPage{html: p.HTML, titles: p.Truth.ObjectTitles,
			group: spec.Name, discovery: newReference(dr)}
		if withRecords {
			// A fresh host's wrapper is learned from the page itself, then
			// applied to it, as serve does.
			w, err := wrapgen.Learn(spec.Name, p.HTML)
			if err != nil {
				return nil, nil, fmt.Errorf("records reference for %s: %w", p.Name, err)
			}
			recs, err := w.Extract(p.HTML)
			if err != nil {
				return nil, nil, fmt.Errorf("records reference for %s: %w", p.Name, err)
			}
			pp.freshRecords = len(recs)
		}
		pages = append(pages, pp)
	}
	return pages, training, nil
}

func sameRule(a, b rules.Rule) bool {
	return a.SubtreePath == b.SubtreePath && a.Separator == b.Separator
}

// extractReply is the part of an /extract response the checker reads.
type extractReply struct {
	Site        string `json:"site"`
	SubtreePath string `json:"subtreePath"`
	Separator   string `json:"separator"`
	FromRule    bool   `json:"fromRule"`
	Objects     []struct {
		Text string `json:"text"`
	} `json:"objects"`
}

// recordsReply is the part of a /records response the checker reads.
type recordsReply struct {
	Site    string            `json:"site"`
	Fields  []json.RawMessage `json:"fields"`
	Records []json.RawMessage `json:"records"`
}

// checker verifies every response and scores the objects of every valid
// /extract reply against the page's sitegen truth titles. A body already
// verified for the same page, endpoint and expectation is accepted by
// its hash, with the score its first decoding gave: identical bytes
// decode identically, so re-decoding them would only add client CPU.
type checker struct {
	pages []*poolPage

	mu       sync.Mutex
	verified map[uint64]pageScore
	scored   map[int]*servedScore
}

// pageScore is one reply's, or one page's, object precision and recall.
type pageScore struct{ precision, recall float64 }

// servedScore gathers the scores of one page's replies.
type servedScore struct {
	first   pageScore
	varied  bool
	sum     pageScore
	replies int
}

func (s *servedScore) add(sc pageScore) {
	if s.replies == 0 {
		s.first = sc
	}
	s.varied = s.varied || sc != s.first
	s.sum.precision += sc.precision
	s.sum.recall += sc.recall
	s.replies++
}

// mean is the page's score: the mean over its replies, and exactly the
// replies' score when they all scored the same, so a page served the
// same answer throughout reads the same however many times it was sent.
func (s *servedScore) mean() pageScore {
	if !s.varied {
		return s.first
	}
	return pageScore{s.sum.precision / float64(s.replies), s.sum.recall / float64(s.replies)}
}

func newChecker(pages []*poolPage) *checker {
	return &checker{pages: pages, verified: make(map[uint64]pageScore), scored: make(map[int]*servedScore)}
}

// check returns nil when the response is a valid answer to the request.
// A request names either its page's warm host (answered from the farm)
// or a fresh host no node has learned (answered by discovery).
func (c *checker) check(req request, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %.200s", req.path(), req.site, status, body)
	}
	page := c.pages[req.page]
	fresh := req.site != page.warm
	h := fnv.New64a()
	h.Write(body)
	key := h.Sum64() ^ uint64(req.page)<<1
	if req.records {
		key ^= 1
	}
	// Replies are scored when they travel the page's own route: a warm
	// host's page under its host, a pool page under a fresh name. A warm
	// page sent under a fresh name (cluster traffic) is checked, but its
	// discovery answer is not scored: whether the run reached it depends
	// on the run's length, and the figures must repeat for one seed.
	scored := !req.records && fresh == (page.warm == "")
	c.mu.Lock()
	sc, done := c.verified[key]
	if done && scored {
		c.credit(req.page, sc)
	}
	c.mu.Unlock()
	if done {
		return nil
	}
	// The valid answers: the fast-path replays, then discovery; a fresh
	// host gets discovery only.
	refs := append(page.replays[:len(page.replays):len(page.replays)], page.discovery)
	if fresh {
		refs = []*reference{page.discovery}
	}
	if req.records {
		counts := page.records
		if fresh {
			counts = []int{page.freshRecords}
		}
		if err := checkRecords(req, body, counts); err != nil {
			return err
		}
	} else {
		texts, err := checkExtract(req, body, refs, page.discovery)
		if err != nil {
			return err
		}
		sc.precision, sc.recall = scoreObjects(texts, page.titles)
	}
	c.mu.Lock()
	c.verified[key] = sc
	if scored {
		c.credit(req.page, sc)
	}
	c.mu.Unlock()
	return nil
}

// credit adds one reply's score to its page; c.mu is held.
func (c *checker) credit(page int, sc pageScore) {
	s := c.scored[page]
	if s == nil {
		s = &servedScore{}
		c.scored[page] = s
	}
	s.add(sc)
}

// checkExtract decodes an /extract reply, checks that it equals one of
// refs: discovery (fromRule false) or a fast-path replay (fromRule
// true), and returns its objects' texts.
func checkExtract(req request, body []byte, refs []*reference, discovery *reference) ([]string, error) {
	var rep extractReply
	if err := json.Unmarshal(body, &rep); err != nil {
		return nil, fmt.Errorf("/extract %s: undecodable reply: %w", req.site, err)
	}
	if rep.Site != req.site {
		return nil, fmt.Errorf("/extract %s: reply names site %q", req.site, rep.Site)
	}
	texts := make([]string, len(rep.Objects))
	for i, o := range rep.Objects {
		texts[i] = o.Text
	}
	digest := textsDigest(texts)
	for _, ref := range refs {
		if rep.FromRule == (ref != discovery) && rep.SubtreePath == ref.subtree &&
			rep.Separator == ref.separator && len(texts) == ref.objects && digest == ref.digest {
			return texts, nil
		}
	}
	return nil, fmt.Errorf("/extract %s: reply (fromRule=%v, rule %s/%s, %d objects) matches none of the %d valid answers",
		req.site, rep.FromRule, rep.SubtreePath, rep.Separator, len(texts), len(refs))
}

// checkRecords decodes a /records reply: it must name the site, carry a
// field schema, and hold as many records as one of the wrappers the host
// may hold projects from the page.
func checkRecords(req request, body []byte, counts []int) error {
	var rep recordsReply
	if err := json.Unmarshal(body, &rep); err != nil {
		return fmt.Errorf("/records %s: undecodable reply: %w", req.site, err)
	}
	switch {
	case rep.Site != req.site:
		return fmt.Errorf("/records %s: reply names site %q", req.site, rep.Site)
	case len(rep.Fields) == 0:
		return fmt.Errorf("/records %s: no fields", req.site)
	case !slices.Contains(counts, len(rep.Records)):
		return fmt.Errorf("/records %s: %d records, want one of %v", req.site, len(rep.Records), counts)
	}
	return nil
}

// scoreObjects is eval.scoreObjects on reply texts: an object is correct
// when it contains exactly one truth title; an item is found when some
// correct object contains its title.
func scoreObjects(texts, titles []string) (precision, recall float64) {
	if len(titles) == 0 || len(texts) == 0 {
		return 0, 0
	}
	matched := make([]bool, len(titles))
	tp := 0
	for _, text := range texts {
		hits, idx := 0, -1
		for i, title := range titles {
			if strings.Contains(text, title) {
				hits++
				idx = i
			}
		}
		if hits == 1 {
			tp++
			matched[idx] = true
		}
	}
	found := 0
	for _, m := range matched {
		if m {
			found++
		}
	}
	return float64(tp) / float64(len(texts)), float64(found) / float64(len(titles))
}

// precisionRecall averages the scored pages per group, then over groups.
// Only pages the traffic reached count; every pool page is reached once
// the traffic covers one pass over the pool.
func (c *checker) precisionRecall() (precision, recall float64, pages int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	groups := make(map[string][]pageScore)
	for idx, s := range c.scored {
		g := c.pages[idx].group
		groups[g] = append(groups[g], s.mean())
	}
	precision, recall = averagePR(groups)
	return precision, recall, len(c.scored)
}

// averagePR is eval.MeasureObjectPR's aggregation: the mean over groups
// of each group's mean page score. Groups and pages are summed in a
// fixed order, so the result repeats bit for bit.
func averagePR(groups map[string][]pageScore) (precision, recall float64) {
	names := make([]string, 0, len(groups))
	for name := range groups {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		scores := groups[name]
		sort.Slice(scores, func(i, j int) bool {
			if scores[i].precision != scores[j].precision {
				return scores[i].precision < scores[j].precision
			}
			return scores[i].recall < scores[j].recall
		})
		var p, r float64
		for _, s := range scores {
			p += s.precision
			r += s.recall
		}
		precision += p / float64(len(scores))
		recall += r / float64(len(scores))
	}
	if len(names) > 0 {
		precision /= float64(len(names))
		recall /= float64(len(names))
	}
	return precision, recall
}
