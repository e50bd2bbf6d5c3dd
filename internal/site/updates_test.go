package site

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"backtrace/internal/ids"
	"backtrace/internal/metrics"
	"backtrace/internal/msg"
	"backtrace/internal/transport"
)

// These tests cover the post-trace update rule: an Update that would repeat
// the last one sent to a peer is not sent, except every updateRefresh
// commits.

// skippedUpdates returns, per peer, the Update s did not send at its most
// recent commit. A skipped Update repeats the holds and distances of the
// last one sent and carries no removals, so it is rebuilt from the record.
func skippedUpdates(s *Site) map[ids.SiteID]msg.Update {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[ids.SiteID]msg.Update)
	for peer, p := range s.peers {
		if p.since > 0 {
			out[peer] = msg.Update{Holds: p.last.Holds, Distances: p.last.Distances}
		}
	}
	return out
}

// sourceTable copies every inref's per-source distances.
func sourceTable(s *Site) map[ids.ObjID]map[ids.SiteID]int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[ids.ObjID]map[ids.SiteID]int)
	for _, in := range s.table.Inrefs() {
		srcs := make(map[ids.SiteID]int, len(in.Sources))
		for src, d := range in.Sources {
			srcs[src] = d
		}
		out[in.Obj] = srcs
	}
	return out
}

// sourceMismatches lists every inref source that holds no matching outref,
// and every outref its target's owner does not list as a source.
func sourceMismatches(sites []*Site) []string {
	audits := make(map[ids.SiteID]Audit, len(sites))
	for _, s := range sites {
		audits[s.ID()] = s.AuditSnapshot()
	}
	var out []string
	for id, a := range audits {
		for obj, srcs := range a.InrefSources {
			for _, src := range srcs {
				if _, held := audits[src].Outrefs[ids.MakeRef(id, obj)]; !held {
					out = append(out, fmt.Sprintf("S%d:o%d lists source S%d, which holds no outref", id, obj, src))
				}
			}
		}
		for target := range a.Outrefs {
			listed := false
			for _, src := range audits[target.Site].InrefSources[target.Obj] {
				listed = listed || src == id
			}
			if !listed {
				out = append(out, fmt.Sprintf("S%d holds %v, which its owner does not list", id, target))
			}
		}
	}
	sort.Strings(out)
	return out
}

// distanceMismatches lists every outref whose distance differs from the
// one its owner records for that source.
func distanceMismatches(sites []*Site) []string {
	tables := make(map[ids.SiteID]map[ids.ObjID]map[ids.SiteID]int, len(sites))
	for _, s := range sites {
		tables[s.ID()] = sourceTable(s)
	}
	var out []string
	for _, s := range sites {
		for _, o := range s.Outrefs() {
			if got, ok := tables[o.Target.Site][o.Target.Obj][s.ID()]; ok && got != o.Distance {
				out = append(out, fmt.Sprintf("S%d holds %v at distance %d, its owner records %d",
					s.ID(), o.Target, o.Distance, got))
			}
		}
	}
	return out
}

// linkRemote stores target (owned by owner) into holder's object from,
// through the full reference-passing protocol.
func linkRemote(t *testing.T, net *transport.Net, owner, holder *Site, from ids.ObjID, target ids.Ref) {
	t.Helper()
	if err := owner.SendRef(holder.ID(), target); err != nil {
		t.Fatal(err)
	}
	net.DeliverAll()
	if err := holder.AddReference(from, target); err != nil {
		t.Fatal(err)
	}
	holder.DropAppRoot(target)
	net.DeliverAll()
}

// globallyLive returns every object reachable from some site's roots,
// following references across sites.
func globallyLive(sites []*Site) []ids.Ref {
	audits := make(map[ids.SiteID]Audit, len(sites))
	var stack []ids.Ref
	for _, s := range sites {
		a := s.AuditSnapshot()
		audits[s.ID()] = a
		for _, obj := range a.PersistentRoots {
			stack = append(stack, ids.MakeRef(s.ID(), obj))
		}
		stack = append(stack, a.AppRoots...)
	}
	seen := make(map[ids.Ref]struct{})
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		fields, ok := audits[r.Site].Objects[r.Obj]
		if _, dup := seen[r]; dup || !ok {
			continue
		}
		seen[r] = struct{}{}
		for _, f := range fields {
			if !f.IsZero() {
				stack = append(stack, f)
			}
		}
	}
	live := make([]ids.Ref, 0, len(seen))
	for r := range seen {
		live = append(live, r)
	}
	sort.Slice(live, func(i, j int) bool { return live[i].Less(live[j]) })
	return live
}

// TestSkippedUpdatesChangeNothing: on a lossless, per-link FIFO network, an
// Update the sender skipped would have been a no-op at the receiver. A
// seeded mutator links and unlinks across four sites; after every commit,
// each skipped Update is delivered anyway and the receiver's inref sources
// and distances must not move; and every source list and distance must
// still agree with the senders' outrefs.
func TestSkippedUpdatesChangeNothing(t *testing.T) {
	net := transport.NewNet(transport.Options{Stepped: true})
	t.Cleanup(net.Close)
	counters := &metrics.Counters{}
	var sites []*Site
	for id := ids.SiteID(1); id <= 4; id++ {
		s := New(Config{ID: id, Network: net, Counters: counters,
			SuspicionThreshold: 2, BackThreshold: 3, AutoBackTrace: true})
		s.NewRootObject()
		sites = append(sites, s)
	}
	rng := rand.New(rand.NewSource(7))
	var skipped, sent, trimmed int
	for round := 0; round < 100; round++ {
		for op := 0; op < 4; op++ {
			live := globallyLive(sites)
			from := live[rng.Intn(len(live))]
			holder := sites[from.Site-1]
			switch rng.Intn(4) {
			case 0: // grow: a fresh object behind a live one
				owner := sites[rng.Intn(len(sites))]
				obj := owner.NewHeldObject()
				if owner == holder {
					if err := holder.AddReference(from.Obj, obj); err != nil {
						t.Fatal(err)
					}
					owner.DropAppRoot(obj)
				} else {
					linkRemote(t, net, owner, holder, from.Obj, obj)
					owner.DropAppRoot(obj)
					net.DeliverAll()
				}
			case 1: // link two live objects, closing cycles across sites
				to := live[rng.Intn(len(live))]
				if to.Site == from.Site {
					if err := holder.AddReference(from.Obj, to); err != nil {
						t.Fatal(err)
					}
				} else {
					linkRemote(t, net, sites[to.Site-1], holder, from.Obj, to)
				}
			default: // unlink, which turns parts of the graph into garbage
				fields, err := holder.Fields(from.Obj)
				if err != nil {
					t.Fatal(err)
				}
				if len(fields) > 0 {
					if err := holder.RemoveReference(from.Obj, fields[rng.Intn(len(fields))]); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		for _, s := range sites {
			rep := s.RunLocalTrace()
			sent += rep.UpdatesSent
			trimmed += rep.OutrefsTrimmed
			net.DeliverAll()
			skips := skippedUpdates(s)
			for _, peer := range sortedPeers(skips) {
				u := skips[peer]
				receiver := sites[peer-1]
				before := sourceTable(receiver)
				receiver.Deliver(s.ID(), u)
				net.DeliverAll()
				if after := sourceTable(receiver); !reflect.DeepEqual(before, after) {
					t.Fatalf("round %d: skipped update S%d->S%d %+v changed the receiver:\n  before %v\n  after  %v",
						round, s.ID(), peer, u, before, after)
				}
				skipped++
			}
			if bad := append(sourceMismatches(sites), distanceMismatches(sites)...); len(bad) > 0 {
				t.Fatalf("round %d, after S%d's commit: %v", round, s.ID(), bad)
			}
		}
	}
	if got := counters.Get(metrics.UpdateSuppressed); got != int64(skipped) {
		t.Fatalf("%s = %d, want the %d skips observed", metrics.UpdateSuppressed, got, skipped)
	}
	if skipped == 0 || sent == 0 || trimmed == 0 {
		t.Fatalf("vacuous run: %d updates skipped, %d sent, %d outrefs trimmed", skipped, sent, trimmed)
	}
	t.Logf("%d skipped updates delivered anyway, %d sent, %d outrefs trimmed, %d objects collected, %d back traces",
		skipped, sent, trimmed, counters.Get(metrics.ObjectsCollected), counters.Get(metrics.BackTracesStarted))
}

func sortedPeers(m map[ids.SiteID]msg.Update) []ids.SiteID {
	out := make([]ids.SiteID, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestLostRemovalHealsByRefresh: on a plain lossy network, the Update that
// carries a removal is lost, and every Update after it repeats the lost
// one's holds and distances, so none of them is sent. The refresh must still
// drop the stale source within updateRefresh commits.
func TestLostRemovalHealsByRefresh(t *testing.T) {
	net := transport.NewNet(transport.Options{Stepped: true})
	t.Cleanup(net.Close)
	counters := &metrics.Counters{}
	a := New(Config{ID: 1, Network: net, Counters: counters, SuspicionThreshold: 3, BackThreshold: 7})
	b := New(Config{ID: 2, Network: net, Counters: counters, SuspicionThreshold: 3, BackThreshold: 7})
	root := a.NewRootObject()
	gone, kept := b.NewObject(), b.NewObject()
	linkRemote(t, net, b, a, root.Obj, gone)
	linkRemote(t, net, b, a, root.Obj, kept)
	for i := 0; i < 3; i++ {
		a.RunLocalTrace()
		net.DeliverAll()
	}

	if err := a.RemoveReference(root.Obj, gone); err != nil {
		t.Fatal(err)
	}
	a.RunLocalTrace()
	lost := net.DropMatching(func(env msg.Envelope) bool {
		u, ok := env.M.(msg.Update)
		return ok && len(u.Removals) > 0
	})
	if lost != 1 {
		t.Fatalf("dropped %d removal updates, want 1", lost)
	}
	net.DeliverAll()
	if _, listed := sourceTable(b)[gone.Obj][a.ID()]; !listed {
		t.Fatal("setup: the source vanished without its removal update")
	}

	for commit := 1; commit <= updateRefresh; commit++ {
		a.RunLocalTrace()
		net.DeliverAll()
		if _, listed := sourceTable(b)[gone.Obj][a.ID()]; !listed {
			if counters.Get(metrics.UpdateSuppressed) == 0 {
				t.Fatal("healed without skipping an update: the test no longer exercises the refresh")
			}
			return
		}
	}
	t.Fatalf("stale source still listed %d commits after the lost removal", updateRefresh)
}

// TestRestoredPeerReconcilesWithinRefresh: a site restored from a checkpoint
// older than its peer's last removal lists the peer as a source again. The
// peer's Updates are unchanged, so it skips them, yet the refresh must bring
// the restored inref table back in line with the peer's outrefs within
// updateRefresh commits.
func TestRestoredPeerReconcilesWithinRefresh(t *testing.T) {
	net := transport.NewNet(transport.Options{Stepped: true})
	t.Cleanup(net.Close)
	cfgB := Config{ID: 2, Network: net, SuspicionThreshold: 3, BackThreshold: 7, AutoBackTrace: true}
	a := New(Config{ID: 1, Network: net, SuspicionThreshold: 3, BackThreshold: 7, AutoBackTrace: true})
	b := New(cfgB)
	root := a.NewRootObject()
	gone, kept := b.NewObject(), b.NewObject()
	linkRemote(t, net, b, a, root.Obj, gone)
	linkRemote(t, net, b, a, root.Obj, kept)
	round := func(sites ...*Site) {
		for _, s := range sites {
			s.RunLocalTrace()
			net.DeliverAll()
		}
	}
	for i := 0; i < 3; i++ {
		round(a, b)
	}
	var old bytes.Buffer
	if err := b.WriteCheckpoint(&old); err != nil {
		t.Fatal(err)
	}

	if err := a.RemoveReference(root.Obj, gone); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		round(a, b)
	}
	if bad := sourceMismatches([]*Site{a, b}); len(bad) > 0 {
		t.Fatalf("setup: tables disagree before the restart: %v", bad)
	}

	b2, err := Restore(cfgB, &old)
	if err != nil {
		t.Fatal(err)
	}
	if len(sourceMismatches([]*Site{a, b2})) == 0 {
		t.Fatal("setup: the older checkpoint restored no stale source")
	}
	for commit := 1; commit <= updateRefresh; commit++ {
		round(a, b2)
		if len(sourceMismatches([]*Site{a, b2})) == 0 {
			return
		}
	}
	t.Fatalf("%d commits after the restart the tables still disagree: %v",
		updateRefresh, sourceMismatches([]*Site{a, b2}))
}
