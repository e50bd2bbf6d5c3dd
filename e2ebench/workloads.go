package main

import (
	"time"

	bt "backtrace"
)

// workload describes one seeded load. Its options set only topology and
// mode (sites, AutoBackTrace, the binary codec, and for the asynchronous
// workload Parallel, Reliable and Latency); every tuning knob of the
// program keeps its zero value, so a change of defaults shows up as a
// measured change of the program rather than an edit here.
type workload struct {
	name string
	why  string
	// sites and async fix the topology and mode.
	sites int
	async bool
	// roundsPerSec turns --seconds into the fixed round budget of a
	// stepped (closed-loop) workload, so that counts repeat exactly for a
	// seed. It is the rate at which the workload ran on the reference
	// host (see README.md); on other hosts a run takes more or less time.
	roundsPerSec float64
	// stepsPerSec is the offered rate of the open-loop workload.
	stepsPerSec float64
	// newPlan returns the workload's mutation plan over a generator.
	newPlan func(g *gen) plan
}

// plan builds a workload's initial graph and then produces its load: one
// round's batch of mutations (stepped) or one unit of open-loop steps.
type plan interface {
	setup()
	mutate()
}

const (
	asyncLatency     = 300 * time.Microsecond
	asyncRoundPeriod = 10 * time.Millisecond
)

func (w *workload) options(codec bt.WireCodec, observer bt.Observer) bt.ClusterOptions {
	o := bt.ClusterOptions{
		NumSites:      w.sites,
		AutoBackTrace: true,
		Codec:         codec,
		Observer:      observer,
	}
	if w.async {
		o.Parallel = true
		o.Reliable = true
		o.Latency = asyncLatency
	}
	return o
}

var workloads = []*workload{
	{
		name:         "heap_churn",
		why:          "stepped closed loop, 8 sites, 80k-object rooted heap, ~1% mutated per round, 15 rounds per second of budget: the local trace does the work, back tracing is nearly idle",
		sites:        8,
		roundsPerSec: 15,
		newPlan:      func(g *gen) plan { return &heapChurn{g: g} },
	},
	{
		name:         "cycle_storm",
		why:          "stepped closed loop, 12 small-heap sites, inter-site garbage cycles of 2-8 sites planted every round, 100 rounds per second of budget: back tracing and messages dominate",
		sites:        12,
		roundsPerSec: 100,
		newPlan:      func(g *gen) plan { return &cycleStorm{g: g} },
	},
	{
		name:        "mixed_async",
		why:         "open loop at 400 steps/s, 8 parallel sites over Reliable links with 300us latency and binary wire, a round every 10 ms: transport, wire and mailboxes carry the time",
		sites:       8,
		async:       true,
		stepsPerSec: 400,
		newPlan:     func(g *gen) plan { return &mixedAsync{g: g} },
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// edgeFIFO remembers links the generator added so it can cut the oldest
// later, keeping the number of extra links steady.
type edgeFIFO struct {
	edges [][2]int32
	max   int
}

func (f *edgeFIFO) push(g *gen, a, b int32) {
	f.edges = append(f.edges, [2]int32{a, b})
	for len(f.edges) > f.max {
		e := f.edges[0]
		f.edges = f.edges[1:]
		g.orphan(e[0], e[1])
	}
}

// growTree gives every site roots persistent roots and n more objects,
// each hung under a random live object of its site: a random recursive
// tree, shallow and with small subtrees on average.
func growTree(g *gen, roots, n int) [][]int32 {
	rootIDs := make([][]int32, len(g.sites))
	for s := range g.sites {
		site := bt.SiteID(s + 1)
		for i := 0; i < roots; i++ {
			rootIDs[s] = append(rootIDs[s], g.alloc(site, true))
		}
		for i := 0; i < n; i++ {
			parent := g.randLive(site)
			x := g.alloc(site, false)
			g.link(parent, x)
			g.drop(x)
		}
	}
	return rootIDs
}

// --- heap_churn ----------------------------------------------------------------

// heapChurn: 8 sites × 10000 objects of rooted trees with a little local
// and cross-site sharing. Each round hangs 16 young subtrees of 6 objects
// and cuts the 16 oldest (a window of 20 rounds), adds local and
// cross-site links while retiring the oldest, and plants one small
// inter-site garbage ring.
type heapChurn struct {
	g      *gen
	young  [][2]int32 // (parent, top) of planted subtrees, oldest first
	local  edgeFIFO
	remote edgeFIFO
}

const (
	churnObjects     = 10000
	churnSubtrees    = 16
	churnSubtreeSize = 6
	churnWindow      = 20
)

func (h *heapChurn) setup() {
	g := h.g
	growTree(g, 4, churnObjects)
	h.local.max = 400
	h.remote.max = 200
	for i := 0; i < 400; i++ {
		h.localLink()
	}
	for i := 0; i < 200; i++ {
		if a, b, ok := g.crossLink(); ok {
			h.remote.push(g, a, b)
		}
	}
}

func (h *heapChurn) localLink() {
	g := h.g
	s := g.randSite()
	a, b := g.randLive(s), g.randLive(s)
	if a >= 0 && b >= 0 && a != b && g.link(a, b) {
		h.local.push(g, a, b)
	}
}

func (h *heapChurn) mutate() {
	g := h.g
	for i := 0; i < churnSubtrees; i++ {
		parent := g.randLive(g.randSite())
		top := g.subtree(parent, churnSubtreeSize)
		h.young = append(h.young, [2]int32{parent, top})
	}
	for len(h.young) > churnSubtrees*churnWindow {
		e := h.young[0]
		h.young = h.young[1:]
		g.orphan(e[0], e[1])
	}
	for i := 0; i < 8; i++ {
		h.localLink()
	}
	for i := 0; i < 4; i++ {
		if a, b, ok := g.crossLink(); ok {
			h.remote.push(g, a, b)
		}
	}
	g.cycle(g.distinctSites(2+g.rng.Intn(3), 0), false)
}

// --- cycle_storm ---------------------------------------------------------------

// cycleStorm: 12 sites with small rooted heaps. Every round plants six
// rings of 2-8 sites, two dense cycles with chords, one hub with three
// petals, and two hypertext documents that are orphaned five rounds later;
// one live ring of ten sites hangs off a directory for twenty rounds, long
// enough for its far outrefs to be suspected and traced Live.
type cycleStorm struct {
	g     *gen
	dirs  []int32
	docs  [][2]int32 // (dir, toc), oldest first
	rings [][2]int32 // (dir, first member), oldest first
}

const (
	stormDocLife  = 5
	stormRingLife = 20
)

func (c *cycleStorm) setup() {
	roots := growTree(c.g, 2, 200)
	for _, r := range roots {
		c.dirs = append(c.dirs, r[0])
	}
}

func (c *cycleStorm) dir() int32 { return c.dirs[c.g.rng.Intn(len(c.dirs))] }

func (c *cycleStorm) mutate() {
	g := c.g
	for i := 0; i < 6; i++ {
		g.cycle(g.distinctSites(2+g.rng.Intn(7), 0), false)
	}
	for i := 0; i < 2; i++ {
		g.cycle(g.distinctSites(4+g.rng.Intn(3), 0), true)
	}
	g.hub(3, 3)
	for i := 0; i < 2; i++ {
		d := c.dir()
		c.docs = append(c.docs, [2]int32{d, g.document(d, 3+g.rng.Intn(3), false)})
	}
	for len(c.docs) > 2*stormDocLife {
		g.orphan(c.docs[0][0], c.docs[0][1])
		c.docs = c.docs[1:]
	}
	d := c.dir()
	c.rings = append(c.rings, [2]int32{d, g.liveRing(d, g.distinctSites(10, 0))})
	for len(c.rings) > stormRingLife {
		g.orphan(c.rings[0][0], c.rings[0][1])
		c.rings = c.rings[1:]
	}
}

// --- mixed_async ---------------------------------------------------------------

// mixedAsync: 8 parallel sites, each with a 300-object rooted tree and a
// directory root. The open-loop generator cycles through asyncMix: d is a
// hypertext document of 3-4 meshed pages (orphaned eight documents
// later), r a garbage ring of 2-5 sites, t a young subtree of 3 (cut
// thirty subtrees later), and l a cross-site link to a live object
// (retired a hundred links later). Cross-site links are over half of the
// steps, so the step latency median is a transfer's, set by the link.
type mixedAsync struct {
	g      *gen
	n      int // units issued
	dirs   []int32
	docs   [][2]int32
	young  [][2]int32
	remote edgeFIFO
}

const asyncMix = "dtdrdl"

func (a *mixedAsync) setup() {
	g := a.g
	roots := growTree(g, 2, 300)
	for _, r := range roots {
		a.dirs = append(a.dirs, r[0])
	}
	a.remote.max = 100
	for i := 0; i < 50; i++ {
		if x, y, ok := g.crossLink(); ok {
			a.remote.push(g, x, y)
		}
	}
}

func (a *mixedAsync) mutate() {
	g := a.g
	// A fixed cycle of unit kinds keeps the mix identical across seeds;
	// the seed draws sizes, sites and targets.
	kind := asyncMix[a.n%len(asyncMix)]
	a.n++
	switch kind {
	case 'd':
		d := a.dirs[g.rng.Intn(len(a.dirs))]
		a.docs = append(a.docs, [2]int32{d, g.document(d, 3+g.rng.Intn(2), true)})
		if len(a.docs) > 8 {
			g.orphan(a.docs[0][0], a.docs[0][1])
			a.docs = a.docs[1:]
		}
	case 'r':
		g.cycle(g.distinctSites(2+g.rng.Intn(4), 0), false)
	case 't':
		parent := g.randLive(g.randSite())
		a.young = append(a.young, [2]int32{parent, g.subtree(parent, 3)})
		if len(a.young) > 30 {
			g.orphan(a.young[0][0], a.young[0][1])
			a.young = a.young[1:]
		}
	case 'l':
		if x, y, ok := g.crossLink(); ok {
			a.remote.push(g, x, y)
		}
	}
}
