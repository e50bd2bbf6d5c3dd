// Package cluster assembles multiple sites into one simulated distributed
// object store, for tests, examples, and the experiment harness.
//
// A Cluster owns the in-memory network and the sites. In *stepped* mode
// (the default for tests) no background goroutines run: messages accumulate
// until the test delivers them, so the paper's race scenarios (Figures 5
// and 6) replay deterministically. In asynchronous mode the network
// delivers with configurable latency, jitter, and loss.
package cluster

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"backtrace/internal/clock"
	"backtrace/internal/event"
	"backtrace/internal/ids"
	"backtrace/internal/metrics"
	"backtrace/internal/obs"
	"backtrace/internal/site"
	"backtrace/internal/tracer"
	"backtrace/internal/transport"
	"backtrace/internal/wire"
)

// Options configures a cluster.
type Options struct {
	// NumSites is the number of sites (identifiers 1..NumSites).
	NumSites int
	// Stepped selects deterministic manual message delivery (see
	// transport.Options.Stepped). Defaults to true when Latency, Jitter,
	// and DropProb are all zero.
	Stepped bool
	// Async forces asynchronous delivery even with zero latency.
	Async bool
	// Latency, Jitter, DropProb, DupProb, ReorderProb, Seed configure the
	// network.
	Latency     time.Duration
	Jitter      time.Duration
	DropProb    float64
	DupProb     float64
	ReorderProb float64
	Seed        int64
	// Reliable interposes a transport.Reliable session layer between the
	// sites and the memnet, giving exactly-once in-order delivery over
	// whatever loss, duplication, and reordering the options above inject.
	// Retransmission is time-driven, so Reliable forces asynchronous mode.
	Reliable bool
	// Codec, if non-nil, round-trips every message through this wire
	// codec at the network boundary, so in-process runs exercise the same
	// serialization the TCP transport uses (frame bytes counted under
	// wire.bytes). Nil hands messages over in memory, the fast test path.
	Codec wire.Codec
	// Batch, when positive, turns on link-level batching in the session
	// layer: up to Batch messages per peer coalesce into one LinkBatch
	// frame per flush. It implies Reliable (the batcher lives there).
	// Logical message counts (msg.*) are unchanged; only wire.frames
	// shrinks.
	Batch int
	// FlushInterval overrides the batcher's flush cadence (default 1ms).
	FlushInterval time.Duration
	// Parallel runs collection rounds with one goroutine per site instead
	// of stepping sites serially. It forces asynchronous delivery and,
	// unless InboxSize says otherwise, gives every site a mailbox of
	// DefaultInboxSize. Deterministic Figure 5/6 replays need the default
	// serial stepped mode.
	Parallel bool
	// InboxSize, when positive, gives every site a bounded mailbox of this
	// capacity (site.Config.InboxSize); it forces asynchronous delivery.
	InboxSize int
	// Incremental enables incremental local tracing on every site
	// (site.Config.Incremental): write-barrier-maintained dirty deltas,
	// patched trace snapshots, and dirty-set remarks.
	Incremental bool
	// MaxDirtyRatio tunes the incremental tracer's full-trace fallback
	// (site.Config.MaxDirtyRatio); zero means the tracer default.
	MaxDirtyRatio float64
	// Shards requests a minimum heap/ioref-table shard count on every
	// site (site.Config.Shards); sites use max(GOMAXPROCS, Shards).
	Shards int
	// TraceWorkers sets the mark-worker count for every site's local
	// traces (site.Config.TraceWorkers); above one, traces run the
	// work-stealing parallel marker.
	TraceWorkers int
	// SuspicionThreshold, BackThreshold, ThresholdBump, OutsetAlgorithm,
	// AutoBackTrace, AdaptiveThreshold, CallTimeout, ReportTimeout are
	// passed to every site; zero values take the site defaults.
	SuspicionThreshold int
	BackThreshold      int
	ThresholdBump      int
	OutsetAlgorithm    tracer.OutsetAlgorithm
	AutoBackTrace      bool
	AdaptiveThreshold  bool
	Piggyback          bool
	CallTimeout        time.Duration
	ReportTimeout      time.Duration
	// MaxInflightTraces caps concurrent back traces per site
	// (site.Config.MaxInflightTraces); 0 means unlimited (legacy trigger).
	MaxInflightTraces int
	// TraceBatch groups up to this many overlapping suspects into one
	// multi-suspect back trace (site.Config.TraceBatch); 0 or 1 keeps
	// single-suspect traces.
	TraceBatch int
	// MemoizeLive turns on generation-stamped Live-verdict memoization on
	// every site (site.Config.MemoizeLive).
	MemoizeLive bool
	// Clock is the time source handed to the network, the session layer,
	// and every site. Nil means the wall clock; the deterministic
	// simulation injects a virtual clock.
	Clock clock.Clock
	// SkipTransferBarrierUnsafe passes the fault-injection knob of the same
	// name to every site (see site.Config); only the simulation model
	// checker should ever set it.
	SkipTransferBarrierUnsafe bool
	// Events, if non-nil, receives every site's observability events.
	Events *event.Log
	// Observer, if non-nil, receives every site's events and spans in
	// addition to the cluster's built-in span collector. Callbacks run
	// under site locks and must not call back into sites or the cluster.
	Observer obs.Observer
	// SpanCollector overrides the built-in span collector's limits; zero
	// values take obs.CollectorOptions defaults.
	SpanCollector obs.CollectorOptions
}

// Cluster is a set of sites joined by one network.
type Cluster struct {
	opts     Options
	net      *transport.Net
	rel      *transport.Reliable // non-nil when Options.Reliable
	sites    map[ids.SiteID]*site.Site
	order    []ids.SiteID
	counters *metrics.Counters
	spans    *obs.Collector
	stepped  bool
}

// DefaultInboxSize is the per-site mailbox capacity Parallel mode uses when
// Options.InboxSize is zero.
const DefaultInboxSize = 256

// New builds a cluster with sites 1..NumSites.
func New(opts Options) *Cluster {
	if opts.NumSites <= 0 {
		opts.NumSites = 2
	}
	if opts.Parallel && opts.InboxSize == 0 {
		opts.InboxSize = DefaultInboxSize
	}
	if opts.Batch > 0 {
		opts.Reliable = true // the batcher is part of the session layer
	}
	stepped := opts.Stepped
	if !opts.Async && !opts.Reliable && opts.Latency == 0 && opts.Jitter == 0 &&
		opts.DropProb == 0 && opts.DupProb == 0 && opts.ReorderProb == 0 {
		stepped = true
	}
	if opts.Reliable {
		stepped = false // retransmission timers need real delivery
	}
	if opts.Parallel || opts.InboxSize > 0 {
		stepped = false // mailbox dispatchers need real delivery
	}
	counters := &metrics.Counters{}
	net := transport.NewNet(transport.Options{
		Latency:     opts.Latency,
		Jitter:      opts.Jitter,
		DropProb:    opts.DropProb,
		DupProb:     opts.DupProb,
		ReorderProb: opts.ReorderProb,
		Seed:        opts.Seed,
		Stepped:     stepped,
		Clock:       opts.Clock,
		Observer:    counters.ObserveMessage,
		Codec:       opts.Codec,
		Counters:    counters,
	})
	var network transport.Network = net
	var rel *transport.Reliable
	if opts.Reliable {
		rel = transport.NewReliable(net, transport.ReliableOptions{
			// The first deadline and the floor of the measured one; the
			// 1ms scan tick it implies also bounds how long an ack with
			// no reverse data to ride waits.
			RetransmitInitial: 3 * time.Millisecond,
			Seed:              opts.Seed,
			Clock:             opts.Clock,
			Counters:          counters,
			BatchMax:          opts.Batch,
			FlushInterval:     opts.FlushInterval,
		})
		network = rel
	}
	c := &Cluster{
		opts:     opts,
		net:      net,
		rel:      rel,
		sites:    make(map[ids.SiteID]*site.Site, opts.NumSites),
		counters: counters,
		spans:    obs.NewCollector(opts.SpanCollector),
		stepped:  stepped,
	}
	observer := obs.Tee(c.spans, opts.Observer)
	for i := 1; i <= opts.NumSites; i++ {
		id := ids.SiteID(i)
		c.sites[id] = site.New(site.Config{
			ID:                        id,
			Network:                   network,
			SuspicionThreshold:        opts.SuspicionThreshold,
			BackThreshold:             opts.BackThreshold,
			ThresholdBump:             opts.ThresholdBump,
			OutsetAlgorithm:           opts.OutsetAlgorithm,
			CallTimeout:               opts.CallTimeout,
			ReportTimeout:             opts.ReportTimeout,
			AutoBackTrace:             opts.AutoBackTrace,
			AdaptiveThreshold:         opts.AdaptiveThreshold,
			Piggyback:                 opts.Piggyback,
			MaxInflightTraces:         opts.MaxInflightTraces,
			TraceBatch:                opts.TraceBatch,
			MemoizeLive:               opts.MemoizeLive,
			InboxSize:                 opts.InboxSize,
			Incremental:               opts.Incremental,
			MaxDirtyRatio:             opts.MaxDirtyRatio,
			Shards:                    opts.Shards,
			TraceWorkers:              opts.TraceWorkers,
			Clock:                     opts.Clock,
			SkipTransferBarrierUnsafe: opts.SkipTransferBarrierUnsafe,
			Counters:                  counters,
			Events:                    opts.Events,
			Observer:                  observer,
		})
		c.order = append(c.order, id)
	}
	return c
}

// Close shuts the cluster down: first the site mailboxes (so a delivery
// worker blocked on a full inbox unblocks and the network can stop its
// workers), then the network (the session layer, when enabled, closes the
// memnet underneath it).
func (c *Cluster) Close() {
	for _, id := range c.order {
		c.sites[id].Close()
	}
	if c.rel != nil {
		c.rel.Close()
		return
	}
	c.net.Close()
}

// Site returns the site with the given identifier.
func (c *Cluster) Site(id ids.SiteID) *site.Site { return c.sites[id] }

// ReplaceSite swaps in a new Site object for an existing identifier — the
// crash-recovery path: the caller builds the replacement via site.Restore
// (which re-registers it on the network) and hands it to the cluster so
// Settle, audits, and rounds address the new incarnation. The old Site is
// Close()d and discarded.
func (c *Cluster) ReplaceSite(id ids.SiteID, s *site.Site) {
	if old, ok := c.sites[id]; ok && old != s {
		old.Close()
	}
	c.sites[id] = s
}

// Observer returns the observer every site was built with: the cluster's
// span collector teed with Options.Observer. Crash recovery passes it to
// the restored site's Config so the new incarnation's spans keep landing in
// the same collector.
func (c *Cluster) Observer() obs.Observer { return obs.Tee(c.spans, c.opts.Observer) }

// Sites returns the sites in identifier order.
func (c *Cluster) Sites() []*site.Site {
	out := make([]*site.Site, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.sites[id])
	}
	return out
}

// Net exposes the underlying network for crash/partition/step control.
func (c *Cluster) Net() *transport.Net { return c.net }

// ReliableLayer returns the session layer, or nil when Options.Reliable is
// off.
func (c *Cluster) ReliableLayer() *transport.Reliable { return c.rel }

// Counters returns the cluster-wide metrics counters (shared by all sites
// and the network observer).
//
// Deprecated: use Metrics for a typed snapshot, or Registry on the
// returned value to declare new instruments.
func (c *Cluster) Counters() *metrics.Counters { return c.counters }

// Metrics returns a point-in-time snapshot of every typed instrument in
// the cluster-wide registry, refreshing the event-drop gauge first so the
// snapshot reflects the event log's current loss count.
func (c *Cluster) Metrics() obs.Snapshot {
	reg := c.counters.Registry()
	if c.opts.Events != nil {
		reg.Gauge(obs.MetricEventsDropped,
			"events evicted from the bounded event log").Set(int64(c.opts.Events.Dropped()))
	}
	return reg.Snapshot()
}

// Registry returns the cluster-wide typed metrics registry (shared by all
// sites, the network observer, and the Prometheus exposition).
func (c *Cluster) Registry() *obs.Registry { return c.counters.Registry() }

// Spans returns the cluster's built-in span collector, which assembles the
// spans every site emits into per-trace trees.
func (c *Cluster) Spans() *obs.Collector { return c.spans }

// Settle delivers all in-flight messages: in stepped mode it pumps the
// queue dry; in asynchronous mode it waits for the network to go quiet.
// With mailboxes it additionally waits for every site inbox to drain —
// dispatching may send fresh messages, so it loops until the network and
// all inboxes are simultaneously idle.
func (c *Cluster) Settle() {
	if c.stepped {
		c.net.DeliverAll()
		return
	}
	for {
		c.quiesceNet()
		if c.opts.InboxSize <= 0 {
			return
		}
		for _, id := range c.order {
			if err := c.sites[id].AwaitInboxIdle(20 * time.Second); err != nil {
				panic(fmt.Sprintf("cluster settle: %v", err))
			}
		}
		c.quiesceNet()
		idle := true
		for _, id := range c.order {
			if c.sites[id].InboxDepth() > 0 {
				idle = false
				break
			}
		}
		if idle {
			return
		}
	}
}

// quiesceNet waits for the network (and, when enabled, the session layer)
// to go quiet.
func (c *Cluster) quiesceNet() {
	if err := c.net.Quiesce(30 * time.Second); err != nil {
		panic(fmt.Sprintf("cluster settle: %v", err))
	}
	if c.rel != nil {
		// Wait for every session window to drain (retransmission keeps the
		// memnet busy in pulses, so quiesce alone is not enough), then for
		// the trailing acks and deliveries to land.
		if err := c.rel.AwaitIdle(20 * time.Second); err != nil {
			panic(fmt.Sprintf("cluster settle: %v", err))
		}
		if err := c.net.Quiesce(30 * time.Second); err != nil {
			panic(fmt.Sprintf("cluster settle: %v", err))
		}
	}
}

// RunRound performs one collection round — a period in which every site
// completes at least one local trace (Section 3). In the default serial
// mode each site traces in identifier order with message delivery after
// each; in Parallel mode every site traces on its own goroutine and the
// cluster settles once at the end. Reports are returned in site order
// either way.
func (c *Cluster) RunRound() []site.TraceReport {
	if c.opts.Parallel {
		return c.runRoundParallel()
	}
	reports := make([]site.TraceReport, 0, len(c.order))
	for _, id := range c.order {
		reports = append(reports, c.sites[id].RunLocalTrace())
		c.Settle()
	}
	return reports
}

// runRoundParallel traces every site concurrently. The mailbox executors
// absorb the cross-site message traffic the overlapping commits generate,
// and Settle waits for network and inboxes together.
func (c *Cluster) runRoundParallel() []site.TraceReport {
	reports := make([]site.TraceReport, len(c.order))
	var wg sync.WaitGroup
	for i, id := range c.order {
		wg.Add(1)
		go func(i int, s *site.Site) {
			defer wg.Done()
			reports[i] = s.RunLocalTrace()
		}(i, c.sites[id])
	}
	wg.Wait()
	c.Settle()
	return reports
}

// RunRounds performs n rounds and returns the total objects collected.
func (c *Cluster) RunRounds(n int) int {
	collected := 0
	for i := 0; i < n; i++ {
		for _, rep := range c.RunRound() {
			collected += rep.Collected
		}
	}
	return collected
}

// CheckAllTimeouts invokes the back-trace timeout scan on every site.
func (c *Cluster) CheckAllTimeouts() {
	for _, id := range c.order {
		c.sites[id].CheckTimeouts()
	}
}

// TotalObjects sums heap sizes across sites.
func (c *Cluster) TotalObjects() int {
	n := 0
	for _, id := range c.order {
		n += c.sites[id].NumObjects()
	}
	return n
}

// --- building object graphs ------------------------------------------------

// Link makes object `from` (on its owning site) reference `target`,
// performing the full reference-passing protocol when target is remote:
// the owner of target sends the reference to from's site (transfer +
// insert barriers), the holder stores it into the object, and the
// temporary mutator variable is dropped. The cluster settles in between so
// protocol messages complete.
func (c *Cluster) Link(from, target ids.Ref) error {
	holder := c.sites[from.Site]
	if holder == nil {
		return fmt.Errorf("cluster: no site %v", from.Site)
	}
	if target.Site == from.Site {
		return holder.AddReference(from.Obj, target)
	}
	owner := c.sites[target.Site]
	if owner == nil {
		return fmt.Errorf("cluster: no site %v", target.Site)
	}
	if err := owner.SendRef(from.Site, target); err != nil {
		return err
	}
	c.Settle()
	if err := holder.AddReference(from.Obj, target); err != nil {
		return err
	}
	holder.DropAppRoot(target)
	c.Settle()
	return nil
}

// MustLink is Link that panics on error (test fixture construction).
func (c *Cluster) MustLink(from, target ids.Ref) {
	if err := c.Link(from, target); err != nil {
		panic(err)
	}
}

// BuildRing creates a garbage ring spanning every site: one object per
// site, each referencing the next site's object, with no root pointing at
// any of them. It returns the ring objects in site order.
func (c *Cluster) BuildRing() []ids.Ref {
	objs := make([]ids.Ref, len(c.order))
	for i, id := range c.order {
		objs[i] = c.sites[id].NewObject()
	}
	for i := range objs {
		c.MustLink(objs[i], objs[(i+1)%len(objs)])
	}
	return objs
}

// --- global audits ------------------------------------------------------------

// GlobalLive computes the set of objects reachable from any persistent or
// application root anywhere in the cluster, following references across
// sites. It is an omniscient auditor used to check safety (no live object
// is ever collected) and completeness (all garbage eventually is).
func (c *Cluster) GlobalLive() map[ids.Ref]struct{} {
	snaps := make(map[ids.SiteID]site.Audit, len(c.order))
	for _, id := range c.order {
		snaps[id] = c.sites[id].AuditSnapshot()
	}
	live := make(map[ids.Ref]struct{})
	var stack []ids.Ref
	push := func(r ids.Ref) {
		if r.IsZero() {
			return
		}
		snap, ok := snaps[r.Site]
		if !ok {
			return
		}
		if _, exists := snap.Objects[r.Obj]; !exists {
			return
		}
		if _, seen := live[r]; seen {
			return
		}
		live[r] = struct{}{}
		stack = append(stack, r)
	}
	for id, snap := range snaps {
		for _, obj := range snap.PersistentRoots {
			push(ids.MakeRef(id, obj))
		}
		for _, r := range snap.AppRoots {
			push(r)
		}
	}
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range snaps[r.Site].Objects[r.Obj] {
			push(f)
		}
	}
	return live
}

// GarbageCount returns the number of existing objects that are not
// globally reachable — what a perfect collector would reclaim.
func (c *Cluster) GarbageCount() int {
	live := c.GlobalLive()
	total := 0
	for _, id := range c.order {
		snap := c.sites[id].AuditSnapshot()
		for obj := range snap.Objects {
			if _, ok := live[ids.MakeRef(id, obj)]; !ok {
				total++
			}
		}
	}
	return total
}

// CollectUntilStable runs rounds (with back tracing if enabled) until the
// omniscient audit finds no remaining garbage or maxRounds is reached; it
// returns the number of rounds executed and the total collected. Note that
// several quiet rounds are normal while distance estimates grow toward the
// back threshold.
func (c *Cluster) CollectUntilStable(maxRounds int) (rounds, collected int) {
	for rounds < maxRounds && c.GarbageCount() > 0 {
		for _, rep := range c.RunRound() {
			collected += rep.Collected
		}
		rounds++
	}
	return rounds, collected
}

// InvariantViolations audits cross-site referential integrity at a
// quiescent point (no in-flight messages):
//
//   - every remote reference field has an outref entry at its holder;
//   - every outref's target object exists at the owner, and the owner's
//     inref lists the holder as a source;
//   - every inref source entry corresponds to a site that either holds an
//     outref for it or is unreachable (stale entries are allowed to lag by
//     an update message, but not at quiescence).
//
// It returns human-readable violation descriptions (empty = consistent).
// Call it only when the network is quiet and no messages were dropped.
func (c *Cluster) InvariantViolations() []string {
	var out []string
	snaps := make(map[ids.SiteID]site.Audit, len(c.order))
	for _, id := range c.order {
		snaps[id] = c.sites[id].AuditSnapshot()
	}
	for _, id := range c.order {
		snap := snaps[id]
		for obj, fields := range snap.Objects {
			for _, f := range fields {
				if f.IsZero() || f.Site == id {
					continue
				}
				if _, ok := snap.Outrefs[f]; !ok {
					out = append(out, fmt.Sprintf("site %v: object %v holds %v with no outref", id, obj, f))
				}
			}
		}
		for target := range snap.Outrefs {
			owner, ok := snaps[target.Site]
			if !ok {
				out = append(out, fmt.Sprintf("site %v: outref to unknown site %v", id, target.Site))
				continue
			}
			if _, exists := owner.Objects[target.Obj]; !exists {
				out = append(out, fmt.Sprintf("site %v: outref %v targets a collected object", id, target))
				continue
			}
			srcs, ok := owner.InrefSources[target.Obj]
			if !ok {
				out = append(out, fmt.Sprintf("site %v: outref %v has no inref at owner", id, target))
				continue
			}
			found := false
			for _, s := range srcs {
				if s == id {
					found = true
					break
				}
			}
			if !found {
				out = append(out, fmt.Sprintf("site %v: outref %v not in owner's source list %v", id, target, srcs))
			}
		}
		for obj, srcs := range snap.InrefSources {
			for _, src := range srcs {
				holder, ok := snaps[src]
				if !ok {
					continue
				}
				if _, held := holder.Outrefs[ids.MakeRef(id, obj)]; !held {
					out = append(out, fmt.Sprintf("site %v: inref %v lists source %v which holds no outref", id, obj, src))
				}
			}
		}
	}
	sort.Strings(out)
	return out
}
