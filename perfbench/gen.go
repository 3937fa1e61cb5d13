package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"

	"omini/internal/corpus"
	"omini/internal/sitegen"
)

// The generator is workload-blind: everything it emits is a function of
// the seed and of numeric traffic parameters. Host names are drawn from
// the vocabulary below and pages from sitegen.SiteSpecs patterned on the
// corpus' curated site profiles, so nothing the servers receive carries
// the name of the workload that asked for it.

var (
	hostAdjectives = []string{
		"amber", "brisk", "cobalt", "dusty", "eager", "fabled", "gilded",
		"hollow", "ivory", "jolly", "keen", "lunar", "mellow", "noble",
		"opal", "plain", "quiet", "rustic", "sunny", "tidal", "urban",
		"vivid", "woven", "young", "zesty",
	}
	hostNouns = []string{
		"atlas", "beacon", "canal", "delta", "ember", "fjord", "grove",
		"harbor", "inlet", "jetty", "kiosk", "lantern", "meadow", "nook",
		"orchard", "pier", "quarry", "ridge", "summit", "thicket",
		"upland", "valley", "wharf", "yard", "zenith",
	}
)

// sizeClass is one band of per-page item counts. Pages span a short
// result list to a heavy catalog page, the range the pipeline's cost
// scales with.
type sizeClass struct{ min, max int }

var sizeClasses = []sizeClass{{3, 12}, {15, 50}, {60, 140}}

// sizePattern deals the size classes out two short, two typical, one
// heavy in every five sites.
var sizePattern = []int{0, 1, 0, 1, 2}

// generator derives host names, page content and the traffic's order
// and timing from one seed.
type generator struct {
	seed  uint64
	specs []sitegen.SiteSpec
}

func newGenerator(seed uint64) *generator {
	return &generator{seed: seed, specs: corpus.AllSpecs()}
}

// mix is splitmix64: the stateless hash behind every per-index draw, so
// request i is the same whichever goroutine asks for it and when.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw returns a uniform value in [0,1) for (stream, index).
func (g *generator) draw(stream, i uint64) float64 {
	return float64(mix(g.seed^mix(stream<<40^i))>>11) / (1 << 53)
}

// rng returns a seeded source for one named generation step.
func (g *generator) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(g.seed, mix(stream)))
}

// hostName names the i-th host of a namespace: vocabulary words plus a
// base-36 index, so names are unique within the namespace and differ
// between seeds.
func (g *generator) hostName(namespace, i uint64) string {
	h := mix(g.seed ^ mix(namespace<<48^i))
	adj := hostAdjectives[h%uint64(len(hostAdjectives))]
	noun := hostNouns[(h>>16)%uint64(len(hostNouns))]
	return "www." + adj + "-" + noun + "-" + strconv.FormatUint(i, 36) +
		strconv.FormatUint(namespace, 36) + ".example"
}

// site builds the i-th site of a namespace: a corpus profile (layout,
// chrome and noise) under a generated host name, with a fixed item count
// from one of the size classes. Profile, class and count follow from the
// index alone: every profile meets every class once in each 200 sites,
// and the counts within a class are spread evenly over its range by a
// golden-ratio sequence. So every seed's pool has the same mix of page
// costs, and its tail percentiles do not depend on which seed drew the
// heaviest pages; the seed names the hosts, and through the names draws
// every page's content, and orders the traffic.
func (g *generator) site(namespace, i uint64) sitegen.SiteSpec {
	spec := g.specs[i%uint64(len(g.specs))]
	spec.Name = g.hostName(namespace, i)
	c := sizeClasses[sizePattern[(i+i/uint64(len(g.specs)))%uint64(len(sizePattern))]]
	_, frac := math.Modf(float64(i) * (math.Sqrt(5) - 1) / 2)
	spec.MinItems = c.min + int(frac*float64(c.max-c.min+1))
	spec.MaxItems = spec.MinItems
	return spec
}

// Namespaces keep the host populations of the different generation steps
// disjoint.
const (
	nsWarm  = 1 // hosts learned in set-up and revisited
	nsFill  = 2 // hosts that fill the farm in set-up
	nsFresh = 3 // hosts first named by measured traffic
	nsPool  = 4 // sites whose pages back fresh-host traffic
)

// request is one generated call: which endpoint, which host, which pool
// page, and which front door.
type request struct {
	records bool
	site    string
	page    int
	front   int
}

func (r request) path() string {
	if r.records {
		return "/records"
	}
	return "/extract"
}

// stream is the seeded request stream of one workload. Index i maps to
// one request, independent of timing and concurrency.
type stream struct {
	g *generator
	// pages is the pool size; perm spreads consecutive indices over it
	// so any stretch of len(perm) requests touches every page.
	perm []int
	// pageSites is the warm host of each pool page ("" for pages that
	// only ever travel under fresh host names).
	pageSites []string
	// recordsShare and freshShare are the odds of /records and of a
	// never-seen host; nodes is the front-door count.
	recordsShare float64
	freshShare   float64
	nodes        int
	// growFrom is the first index that may leave state the servers keep
	// for good: a warm host's page under a never-seen name (a new rule,
	// replicated to every node) or /records on a never-seen host (a
	// wrapper serve never evicts). The closed loop's indices lie below
	// it, so what a run adds to the heap follows the open loop's fixed
	// schedule, not how fast the stack served the closed loop.
	growFrom uint64
}

func newStream(g *generator, pageSites []string, recordsShare, freshShare float64, nodes int) *stream {
	perm := g.rng(0x7e).Perm(len(pageSites))
	return &stream{g: g, perm: perm, pageSites: pageSites,
		recordsShare: recordsShare, freshShare: freshShare, nodes: nodes, growFrom: baseOpen}
}

// at returns request i. Fresh-host requests take their name from index
// i itself, so no two of them share a host.
func (s *stream) at(i uint64) request {
	page := s.perm[i%uint64(len(s.perm))]
	r := request{page: page, front: int(i % uint64(s.nodes)), site: s.pageSites[page]}
	r.records = s.g.draw(0x2ec, i) < s.recordsShare
	if r.site == "" || (i >= s.growFrom && s.g.draw(0xf2e, i) < s.freshShare) {
		r.site = s.g.hostName(nsFresh, i)
		r.records = r.records && i >= s.growFrom
	}
	return r
}

// digest hashes the first n requests of the stream, bodies included, so
// two runs can prove they sent byte-identical traffic.
func (s *stream) digest(start, n uint64, pages []*poolPage) string {
	h := sha256.New()
	var buf [8]byte
	for i := start; i < start+n; i++ {
		r := s.at(i)
		fmt.Fprintf(h, "%s %s %d\n", r.path(), r.site, r.front)
		h.Write([]byte(pages[r.page].html))
	}
	binary.LittleEndian.PutUint64(buf[:], n)
	h.Write(buf[:])
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// arrivals returns the open-loop schedule: Poisson arrival offsets at
// rate per second over window, drawn from the seed.
func (g *generator) arrivals(stream uint64, rate float64, window float64) []float64 {
	rng := g.rng(stream)
	var out []float64
	t := 0.0
	for {
		t += -math.Log(1-rng.Float64()) / rate
		if t >= window {
			return out
		}
		out = append(out, t)
	}
}
