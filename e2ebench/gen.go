package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	bt "backtrace"
	"backtrace/internal/refs"
)

// gen is the seeded, legal mutator. It drives the program only through
// the public mutator calls, mirrors every successful call in its model,
// and stamps each object the model sees die with the round position and
// wall time at which the killing call returned.
//
// Legality (the rule the program cannot check for itself): link targets
// are drawn only from model-live objects, and objects the generator keeps
// in a variable are allocated with NewHeldObject until they are linked.
type gen struct {
	c     *bt.Cluster
	sites []*bt.Site // index site-1
	m     *model
	rng   *rand.Rand
	async bool

	rec     *recorder // nil in the untraced pass
	runSpan int32

	// traces counts committed site traces; traces/len(sites) is the
	// round position, to a fraction of a round while rounds run
	// concurrently with the generator.
	traces    atomic.Int64
	measuring bool          // steady phase: record step samples
	interval  time.Duration // open loop: time between step due times
	next      time.Time     // open loop: due time of the next step

	steps, failed int
	stepNs        []float64
	maxLag        time.Duration
	firstErr      error

	// unsafeSweeps counts objects found missing at the moment the model
	// killed them (see kill).
	unsafeSweeps int

	// received marks (holder site, target) pairs ever transferred. In
	// the asynchronous mode the generator links across sites only for
	// pairs not in it, so the holder's new outref can only be the one its
	// transfer creates, and waiting for that outref waits for the
	// transfer.
	received map[recvKey]struct{}

	deaths *deathQueue
}

type recvKey struct {
	holder bt.SiteID
	target bt.Ref
}

// death is one object the model saw become unreachable, at round
// position r0 and time t0.
type death struct {
	ref bt.Ref
	r0  float64
	t0  time.Time
}

// deathQueue hands death stamps from the generator to the goroutine that
// runs rounds (the same goroutine in the stepped workloads).
type deathQueue struct {
	mu sync.Mutex
	q  []death
}

func (d *deathQueue) push(x death) {
	d.mu.Lock()
	d.q = append(d.q, x)
	d.mu.Unlock()
}

func (d *deathQueue) take(into []death) []death {
	d.mu.Lock()
	into = append(into, d.q...)
	d.q = d.q[:0]
	d.mu.Unlock()
	return into
}

func newGen(c *bt.Cluster, seed int64, async bool) *gen {
	return &gen{
		c:        c,
		sites:    c.Sites(),
		m:        newModel(len(c.Sites())),
		rng:      rand.New(rand.NewSource(seed)),
		async:    async,
		runSpan:  -1,
		received: make(map[recvKey]struct{}),
		deaths:   &deathQueue{},
	}
}

func (g *gen) site(id bt.SiteID) *bt.Site { return g.sites[id-1] }

// step runs one scheduled mutation step. In the open loop it first waits
// for the step's due time; a step that starts late because earlier steps
// ran long is timed from its due time, so a stall shows in every step
// queued behind it. pre, if set, runs untimed just before the call.
func (g *gen) step(pre func(), f func(parent int32) error) (time.Time, bool) {
	var due time.Time // zero: time the step from the call
	if g.interval > 0 {
		due = g.next
		g.next = g.next.Add(g.interval)
		if d := time.Until(due); d > 0 {
			// The generator was idle: time the step from when it woke,
			// so its own wake-up delay is not charged to the program.
			waitUntil(due)
			due = time.Time{}
		} else if -d > g.maxLag {
			g.maxLag = -d
		}
	}
	if pre != nil {
		pre()
	}
	if due.IsZero() {
		due = time.Now()
	}
	sp := g.rec.begin("mutator.step", g.runSpan)
	err := f(sp)
	end := time.Now()
	g.rec.end(sp)
	if g.measuring {
		g.steps++
		g.stepNs = append(g.stepNs, float64(end.Sub(due)))
		if err != nil {
			g.failed++
		}
	}
	if err != nil && g.firstErr == nil {
		g.firstErr = err
	}
	return end, err == nil
}

// kill runs a step whose call cuts the last root path of dying, objects
// the model has already marked dead. Just before the call the program must
// still hold every one of them: until the call returns they are reachable,
// so a collector that swept one has swept a live object. Each miss counts
// as an unsafe sweep and yields no reclaim sample; the rest are stamped
// with the time the call returned.
func (g *gen) kill(dying []int32, f func(parent int32) error) {
	held := dying[:0]
	end, ok := g.step(func() {
		for _, id := range dying {
			r := g.m.objs[id].ref
			if g.site(r.Site).ContainsObject(r.Obj) {
				held = append(held, id)
			} else {
				g.unsafeSweeps++
			}
		}
	}, f)
	if ok {
		g.stamp(held, end)
	}
}

func (g *gen) timed(name string, parent int32, f func() error) error {
	sp := g.rec.begin(name, parent)
	err := f()
	g.rec.end(sp)
	return err
}

// alloc creates a persistent root, or an object held by the generator.
func (g *gen) alloc(site bt.SiteID, root bool) int32 {
	s := g.site(site)
	var r bt.Ref
	g.step(nil, func(p int32) error {
		return g.timed("site.alloc", p, func() error {
			if root {
				r = s.NewRootObject()
			} else {
				r = s.NewHeldObject()
			}
			return nil
		})
	})
	if root {
		return g.m.add(r, true, 0)
	}
	return g.m.add(r, false, 1)
}

// canLink reports whether a→b is a link the generator may make now.
func (g *gen) canLink(a, b int32) bool {
	if g.m.objs[a].dead || g.m.objs[b].dead {
		return false
	}
	if !g.async || g.m.site(a) == g.m.site(b) {
		return true
	}
	_, seen := g.received[recvKey{g.m.site(a), g.m.objs[b].ref}]
	return !seen
}

// link stores a reference to b into a, running the transfer protocol when
// b lives on another site. Callers draw only links canLink allows.
func (g *gen) link(a, b int32) bool {
	if !g.canLink(a, b) {
		panic(fmt.Sprintf("e2ebench: generator drew an illegal link %d -> %d", a, b))
	}
	from, to := g.m.objs[a].ref, g.m.objs[b].ref
	_, ok := g.step(nil, func(p int32) error {
		holder := g.site(from.Site)
		switch {
		case from.Site == to.Site:
			return g.timed("site.add_ref", p, func() error { return holder.AddReference(from.Obj, to) })
		case !g.async:
			return g.timed("cluster.link", p, func() error { return g.c.Link(from, to) })
		default:
			return g.transfer(p, holder, from, to)
		}
	})
	if ok {
		g.m.addEdge(a, b)
		if from.Site != to.Site {
			g.received[recvKey{from.Site, to}] = struct{}{}
		}
	}
	return ok
}

const (
	transferTimeout = 10 * time.Second
	pollInterval    = 5 * time.Microsecond
	coarseSlack     = time.Millisecond
)

// waitUntil returns at t. A runtime timer wakes a goroutine only to the
// millisecond once its processor idles, which would add up to a
// millisecond to every open-loop step and every transfer wait, so the
// last stretch yields in a loop instead: the program's goroutines still
// run whenever they are ready.
func waitUntil(t time.Time) {
	if d := time.Until(t) - coarseSlack; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// transfer is a cross-site link while collection runs concurrently: the
// owner sends the reference, the generator waits until the holder has the
// outref the transfer creates, stores the reference, and drops the
// variable hold the transfer registered at the holder.
func (g *gen) transfer(p int32, holder *bt.Site, from, to bt.Ref) error {
	owner := g.site(to.Site)
	if err := g.timed("site.send_ref", p, func() error { return owner.SendRef(from.Site, to) }); err != nil {
		return err
	}
	err := g.timed("site.transfer_wait", p, func() error {
		deadline := time.Now().Add(transferTimeout)
		for holder.OutrefDistance(to) == refs.DistInfinity {
			if time.Now().After(deadline) {
				return fmt.Errorf("transfer of %v did not reach site %v within %v", to, from.Site, transferTimeout)
			}
			waitUntil(time.Now().Add(pollInterval))
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := g.timed("site.add_ref", p, func() error { return holder.AddReference(from.Obj, to) }); err != nil {
		return err
	}
	return g.timed("site.drop_root", p, func() error { holder.DropAppRoot(to); return nil })
}

// cut removes one a→b reference. The model applies the cut first, so
// that kill can check the objects it kills before the program sees it. A
// failed call fails the run, so the model need not be rolled back.
func (g *gen) cut(a, b int32) {
	from, to := g.m.objs[a].ref, g.m.objs[b].ref
	g.kill(g.m.removeEdge(a, b), func(p int32) error {
		return g.timed("site.remove_ref", p, func() error { return g.site(from.Site).RemoveReference(from.Obj, to) })
	})
}

// drop releases the generator's hold on id.
func (g *gen) drop(id int32) {
	r := g.m.objs[id].ref
	g.kill(g.m.release(id), func(p int32) error {
		return g.timed("site.drop_root", p, func() error { g.site(r.Site).DropAppRoot(r); return nil })
	})
}

func (g *gen) stamp(dead []int32, t0 time.Time) {
	r0 := g.roundPos()
	for _, id := range dead {
		g.deaths.push(death{ref: g.m.objs[id].ref, r0: r0, t0: t0})
	}
}

// roundPos is the number of rounds completed, with the sites already
// traced in the current round as a fraction.
func (g *gen) roundPos() float64 {
	return float64(g.traces.Load()) / float64(len(g.sites))
}

// --- random draws ----------------------------------------------------------

func (g *gen) randSite() bt.SiteID { return bt.SiteID(g.rng.Intn(len(g.sites)) + 1) }

// distinctSites draws k different sites, none of them except (0 for no
// exclusion).
func (g *gen) distinctSites(k int, except bt.SiteID) []bt.SiteID {
	out := make([]bt.SiteID, 0, k)
	for _, p := range g.rng.Perm(len(g.sites)) {
		if s := bt.SiteID(p + 1); s != except && len(out) < k {
			out = append(out, s)
		}
	}
	return out
}

// randLive draws a live object on the site, or -1 if it has none.
func (g *gen) randLive(site bt.SiteID) int32 {
	l := g.m.live[site-1]
	if len(l) == 0 {
		return -1
	}
	return l[g.rng.Intn(len(l))]
}

// --- structures ------------------------------------------------------------

// subtree hangs a new tree of n objects on one site under a live parent
// and returns its top.
func (g *gen) subtree(parent int32, n int) int32 {
	site := g.m.site(parent)
	top := g.alloc(site, false)
	nodes := []int32{top}
	for i := 1; i < n; i++ {
		x := g.alloc(site, false)
		g.link(nodes[g.rng.Intn(len(nodes))], x)
		g.drop(x)
		nodes = append(nodes, x)
	}
	g.link(parent, top)
	g.drop(top)
	return top
}

// detach cuts a random incoming reference of a random non-root object on
// the site; whatever only that reference kept reachable dies.
func (g *gen) detach(site bt.SiteID) {
	for try := 0; try < 8; try++ {
		b := g.randLive(site)
		if b < 0 {
			return
		}
		o := &g.m.objs[b]
		if o.root || len(o.preds) == 0 {
			continue
		}
		g.cut(o.preds[g.rng.Intn(len(o.preds))], b)
		return
	}
}

// crossLink links a random live object on one site to a random live
// object on another; it reports the edge, or ok=false if no legal pair was
// drawn.
func (g *gen) crossLink() (a, b int32, ok bool) {
	for try := 0; try < 8; try++ {
		s := g.distinctSites(2, 0)
		a, b = g.randLive(s[0]), g.randLive(s[1])
		if a >= 0 && b >= 0 && g.canLink(a, b) {
			return a, b, g.link(a, b)
		}
	}
	return -1, -1, false
}

// cycle plants an unrooted cycle of one object per listed site, with
// extra chords i→i+2 when chords is set, then drops every hold: the
// whole cycle dies with the last drop.
func (g *gen) cycle(sites []bt.SiteID, chords bool) {
	objs := make([]int32, len(sites))
	for i, s := range sites {
		objs[i] = g.alloc(s, false)
	}
	n := len(objs)
	for i := range objs {
		g.link(objs[i], objs[(i+1)%n])
	}
	if chords && n > 3 {
		for i := 0; i < n; i += 2 {
			g.link(objs[i], objs[(i+2)%n])
		}
	}
	for _, o := range objs {
		g.drop(o)
	}
}

// hub plants a hub object and several petals, each a chain through other
// sites that returns to the hub. The petals' outrefs all lead back through
// the hub's inref, so their back information shares an inset.
func (g *gen) hub(petals, petalLen int) {
	sites := g.distinctSites(1+petalLen, 0)
	h := g.alloc(sites[0], false)
	var held []int32
	for p := 0; p < petals; p++ {
		prev := h
		for i := 1; i <= petalLen; i++ {
			x := g.alloc(sites[1+(p+i-1)%petalLen], false)
			g.link(prev, x)
			held = append(held, x)
			prev = x
		}
		g.link(prev, h)
	}
	for _, x := range held {
		g.drop(x)
	}
	g.drop(h)
}

// document builds a hypertext document under a live directory object: a
// table of contents and pages on other sites, the TOC and every page
// linked both ways, and each page linked to its neighbours or, with mesh,
// to every other page. It returns the TOC; cutting dir→TOC orphans the
// whole document, a cross-site garbage cycle.
func (g *gen) document(dir int32, pages int, mesh bool) int32 {
	// The directory's site holds no page, so dir→TOC is the only
	// reference that site ever receives to the TOC.
	sites := g.distinctSites(pages+1, g.m.site(dir))
	toc := g.alloc(sites[0], false)
	ps := make([]int32, pages)
	for i := range ps {
		ps[i] = g.alloc(sites[i+1], false)
		g.link(toc, ps[i])
		g.link(ps[i], toc)
		for j := 0; j < i; j++ {
			if mesh || j == i-1 {
				g.link(ps[j], ps[i])
				g.link(ps[i], ps[j])
			}
		}
	}
	g.link(dir, toc)
	for _, p := range ps {
		g.drop(p)
	}
	g.drop(toc)
	return toc
}

// liveRing builds a ring of one object per listed site, reachable from a
// live directory object through its first member. A long enough ring's
// far outrefs cross the back threshold while the ring is still live, so
// back traces start from it and end Live.
func (g *gen) liveRing(dir int32, sites []bt.SiteID) int32 {
	objs := make([]int32, len(sites))
	for i, s := range sites {
		objs[i] = g.alloc(s, false)
	}
	for i := range objs {
		g.link(objs[i], objs[(i+1)%len(objs)])
	}
	g.link(dir, objs[0])
	for _, o := range objs {
		g.drop(o)
	}
	return objs[0]
}

// orphan cuts dir→x, if that reference still exists.
func (g *gen) orphan(dir, x int32) {
	if !g.m.objs[dir].dead && g.m.hasEdge(dir, x) {
		g.cut(dir, x)
	}
}
