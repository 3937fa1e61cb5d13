package main

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// workload is one traffic mix. The servers never see its name: it only
// selects how many hosts the generator makes, which of them are learned
// in set-up, and the odds the seeded stream draws with.
type workload struct {
	name string
	// rationale is the workload's one-line reason to exist; why() builds
	// its BENCHMARK.json entry from it, the rate and the zero list.
	rationale string
	// nodes is 1 for a single ominiserve, 3 for a -cluster ring.
	nodes int
	// warmHosts are learned (rules, and wrappers when recordsShare > 0)
	// in set-up; perHost fresh pages of each are in the traffic pool.
	warmHosts, perHost int
	// poolSites back traffic sent under never-seen host names.
	poolSites int
	// fillFarm learns never-again-seen hosts in set-up until the farm's
	// LRU is at capacity, so measured learns also evict.
	fillFarm bool
	// recordsShare and freshShare are the odds a request goes to
	// /records, and names a host no node has learned.
	recordsShare, freshShare float64
	// rate is the fixed open-loop arrival rate (requests per second),
	// never adapted at run time: about a tenth of the closed-loop
	// throughput this workload reached on a 2-core host, so its two
	// connections are seldom both busy and the percentiles measure the
	// servers rather than queueing behind a neighbour's burst.
	rate float64
	// syncEvery is the replication round period (cluster only).
	syncEvery time.Duration
	// zero lists the per-layer metrics this workload predicts to read
	// about 0 (see nearZero): the layers its traffic bypasses.
	zero []string
}

// farmCapacity is the farm's default rule capacity (farm.Config).
const farmCapacity = 4096

var workloads = []workload{
	{
		// Every measured page is a fresh page of a host whose rule and
		// wrapper were learned in set-up, a few hundred hosts against a
		// 4096-rule farm.
		name:      "warm-repeat",
		rationale: "Table 17 fast path: fresh pages of 256 hosts learned in set-up, 15% /records",
		nodes:     1,
		warmHosts: 256, perHost: 2,
		recordsShare: 0.15,
		rate:         150,
		zero: []string{"farm.slow_count", "separator.combine_count", "farm.learns",
			"farm.evictions", "ruledist.rounds"},
	},
	{
		// Every request names a host never seen before, against a farm
		// filled to capacity; /records, whose wrappers serve keeps for
		// good, only in the open loop (see stream.growFrom).
		name:      "cold-discovery",
		rationale: "Table 16 path and farm writes: every request a new host, farm full at 4096 rules, open loop 15% /records",
		nodes:     1,
		poolSites: 320, fillFarm: true,
		recordsShare: 0.15,
		rate:         120,
		zero:         []string{"farm.hit_ratio", "farm.fast_count", "farm.coalesced", "ruledist.rounds"},
	},
	{
		// Front doors taken round-robin, so about 2/3 of requests cross
		// one proxy hop; mostly warm hosts, a few new ones (open loop
		// only, see stream.growFrom) learned on their owner and
		// replicated by timed rounds.
		name:      "cluster-3node",
		rationale: "3 -cluster nodes, round-robin fronts (~2/3 proxied), open loop 5% new hosts, SyncAll 3 s",
		nodes:     3,
		warmHosts: 192, perHost: 2,
		freshShare: 0.05,
		rate:       100,
		syncEvery:  3 * time.Second,
		zero: []string{"cluster.failover", "cluster.fallback_local",
			"ruledist.peer_errors", "serve.records_ms"},
	},
}

// why is the workload's entry in BENCHMARK.json: its rationale, its
// open-loop rate and its predicted-zero metrics.
func (w workload) why() string {
	return fmt.Sprintf("%s; open loop %g/s; predicts ~0: %s", w.rationale, w.rate, strings.Join(w.zero, ", "))
}

// nearZero reports whether a predicted-zero metric holds: a count reads
// exactly 0, a ratio at most 0.01, a time at most 1% of the traced
// run's client-measured mean.
func nearZero(m metric, clientMs float64) bool {
	switch m.Unit {
	case "count":
		return m.Value == 0
	case "ms":
		return math.Abs(m.Value) <= 0.01*clientMs
	default:
		return math.Abs(m.Value) <= 0.01
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
