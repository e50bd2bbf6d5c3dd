package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	bt "backtrace"
)

// TestSmoke runs a short pass of every workload, traced and untraced, and
// requires the correctness gate to pass with reclaim samples recorded.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			seconds := 0.3
			if w.async {
				seconds = 1
			}
			p, err := runPass(w, 7, seconds, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !p.gate.ok() || p.failed > 0 {
				t.Fatalf("%s traced=%v: gate %+v, failed %d", w.name, traced, p.gate, p.failed)
			}
			if len(p.reclaimRounds) == 0 || p.rounds == 0 || p.steps == 0 {
				t.Fatalf("%s traced=%v: no samples (%d reclaimed, %d rounds, %d steps)", w.name, traced, len(p.reclaimRounds), p.rounds, p.steps)
			}
			if traced && len(p.durations("site.begin_trace")) == 0 {
				t.Fatalf("%s: traced pass recorded no spans", w.name)
			}
		}
	}
}

// countMetrics are the numbers of a stepped pass that must repeat exactly
// for a seed.
func countMetrics(p *passResult) map[string]float64 {
	out := map[string]float64{}
	for name, v := range p.all.b.Counters {
		if strings.HasPrefix(name, "msg.") || strings.HasPrefix(name, "backtrace.") ||
			strings.HasPrefix(name, "wire.") || name == "localtrace.collected" {
			out[name] = float64(v - p.all.a.Counters[name])
		}
	}
	for _, m := range endToEnd(p) {
		switch m.name {
		case "reclaim_rounds_p50", "reclaim_rounds_p99", "msgs_per_reclaimed", "wire_bytes_per_reclaimed":
			out[m.name] = m.value
		}
	}
	r := append([]float64(nil), p.reclaimRounds...)
	sort.Float64s(r)
	out["reclaim_rounds_sum"] = sum(r)
	out["reclaim_samples"] = float64(len(r))
	out["steps"] = float64(p.steps)
	return out
}

// TestSteppedCountsRepeat runs each stepped workload twice with one seed
// and requires identical counts.
func TestSteppedCountsRepeat(t *testing.T) {
	for _, w := range workloads {
		if w.async {
			continue
		}
		a, err := runPass(w, 11, 0.3, false)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runPass(w, 11, 0.3, false)
		if err != nil {
			t.Fatal(err)
		}
		ca, cb := countMetrics(a), countMetrics(b)
		if !reflect.DeepEqual(ca, cb) {
			t.Fatalf("%s: counts differ between same-seed runs:\n%v\n%v", w.name, ca, cb)
		}
	}
}

// gateFixture is a two-site stepped cluster with a generator and a
// collector, for driving the gate by hand.
func gateFixture(t *testing.T) (*gen, *collector) {
	t.Helper()
	codec, err := bt.CodecByName("binary")
	if err != nil {
		t.Fatal(err)
	}
	c := bt.NewCluster(bt.ClusterOptions{NumSites: 2, AutoBackTrace: true, Codec: codec})
	t.Cleanup(c.Close)
	g := newGen(c, 1, false)
	root := g.alloc(1, true)
	x := g.alloc(2, false)
	g.link(root, x)
	g.drop(x)
	return g, &collector{g: g, parent: -1}
}

// TestGateFlagsMissingLiveObject: the program loses an object the model
// holds live (here, a hold released behind the model's back).
func TestGateFlagsMissingLiveObject(t *testing.T) {
	g, col := gateFixture(t)
	x := g.alloc(1, false)
	r := g.m.objs[x].ref
	g.site(r.Site).DropAppRoot(r)
	col.round()
	res := checkGate(g, col)
	if res.unsafeSweeps != 1 || res.liveMismatch != 1 || res.ok() {
		t.Fatalf("gate missed a swept live object: %+v", res)
	}
}

// TestGateFlagsEarlySweep: the program sweeps an object the model still
// holds live, and the generator kills it later. By the end the program
// and the model agree again, so only the check at the moment of death can
// see the sweep, and the early sweep must not pass as a reclaim sample.
func TestGateFlagsEarlySweep(t *testing.T) {
	g, col := gateFixture(t)
	x := g.alloc(1, false)
	r := g.m.objs[x].ref
	g.site(r.Site).DropAppRoot(r)
	col.round()
	g.drop(x)
	col.drain()
	res := checkGate(g, col)
	if res.unsafeSweeps != 1 || res.ok() {
		t.Fatalf("gate missed a live object swept before it died: %+v", res)
	}
	if res.garbageLeft != 0 || res.liveMismatch != 0 || len(res.violations) != 0 {
		t.Fatalf("end state should agree with the model: %+v", res)
	}
	if len(col.reclaimR) != 0 {
		t.Fatalf("early sweep recorded as %d reclaim sample(s)", len(col.reclaimR))
	}
}

// TestGateFlagsUnreclaimedGarbage:the program keeps an object the model
// saw die (here, an extra hold taken behind the model's back).
func TestGateFlagsUnreclaimedGarbage(t *testing.T) {
	g, col := gateFixture(t)
	x := g.alloc(2, false)
	r := g.m.objs[x].ref
	g.site(r.Site).AddAppRoot(r)
	g.drop(x)
	col.drain()
	res := checkGate(g, col)
	if res.garbageLeft != 1 || res.liveMismatch != 1 || res.ok() {
		t.Fatalf("gate missed unreclaimed garbage: %+v", res)
	}
}

// TestModelCollect checks the model's death detection on a small graph:
// a rooted chain with a cycle hanging off it and a second path in.
func TestModelCollect(t *testing.T) {
	m := newModel(1)
	ref := func(i int) bt.Ref { return bt.MakeRef(1, bt.ObjID(i+1)) }
	root := m.add(ref(0), true, 0)
	a, b, c, d := m.add(ref(1), false, 0), m.add(ref(2), false, 0), m.add(ref(3), false, 0), m.add(ref(4), false, 0)
	m.addEdge(root, a)
	m.addEdge(a, b)
	m.addEdge(b, c)
	m.addEdge(c, b) // cycle b <-> c
	m.addEdge(root, d)
	m.addEdge(d, c) // second path to c
	if dead := m.removeEdge(root, a); !reflect.DeepEqual(dead, []int32{a}) {
		t.Fatalf("cut root->a killed %v, want [a]", dead)
	}
	if dead := m.removeEdge(root, d); len(dead) != 3 || m.nLive != 1 {
		t.Fatalf("cut root->d killed %v (live %d), want d, b, c", dead, m.nLive)
	}
}

// TestBenchmarkJSONNames keeps BENCHMARK.json in step with the metrics
// the benchmark prints.
func TestBenchmarkJSONNames(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }  `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	p, err := runPass(workloadByName("cycle_storm"), 3, 0.1, true)
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, want []struct{ Name, Unit string }, got []metric) {
		var w, g []string
		for _, m := range want {
			w = append(w, m.Name+" "+m.Unit)
		}
		for _, m := range got {
			if m.inJSON {
				g = append(g, m.name+" "+m.unit)
			}
		}
		sort.Strings(w)
		sort.Strings(g)
		if !reflect.DeepEqual(w, g) {
			t.Errorf("%s metrics in BENCHMARK.json differ from the benchmark's:\n%v\n%v", kind, w, g)
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd(p))
	check("per_layer", spec.PerLayer, perLayer(p, p))
	for _, w := range spec.Workloads {
		if wl := workloadByName(w.Name); wl == nil || wl.why != w.Why {
			t.Errorf("BENCHMARK.json workload %q is unknown or its why differs", w.Name)
		}
	}
}
