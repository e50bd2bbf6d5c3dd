package sim

import (
	"strings"
	"testing"
)

func TestParseFaultsErrors(t *testing.T) {
	cases := []struct {
		spec string
		want string // substring of the error; "" means valid
	}{
		{"", ""},
		{"crash@120:2", ""},
		{"crash@120:2, restart@300:2", ""},
		{"partition@200:1-3,heal@400:1-3", ""},
		{"drop@80:5,dup@90:3", ""},
		{"crash:2", "missing @step"},
		{"crash@120", "missing :arg"},
		{"crash@x:2", "bad step"},
		{"crash@-1:2", "bad step"},
		{"crash@120:zero", "bad site"},
		{"crash@120:0", "bad site"},
		{"partition@200:13", "want A-B"},
		{"partition@200:1-1", "bad pair"},
		{"partition@200:0-3", "bad pair"},
		{"drop@80:0", "bad count"},
		{"dup@90:-2", "bad count"},
		{"meteor@10:1", "unknown fault"},
	}
	for _, tc := range cases {
		_, err := ParseFaults(tc.spec)
		if tc.want == "" {
			if err != nil {
				t.Errorf("ParseFaults(%q) unexpected error: %v", tc.spec, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseFaults(%q) = %v, want error containing %q", tc.spec, err, tc.want)
		}
	}
}

// runFaultSchedule runs one seeded simulation under a DSL fault plan and
// requires both oracles to pass.
func runFaultSchedule(t *testing.T, faults string, seed int64) *Result {
	t.Helper()
	res, err := Run(Config{Seed: seed, Steps: 400, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("faults=%q seed=%d: %v", faults, seed, res.Violations())
	}
	return res
}

// faultCtxKinds collects the kinds of the recorded fault contexts.
func faultCtxKinds(res *Result) []string {
	var out []string
	for _, fc := range res.FaultCtx {
		out = append(out, fc.Kind)
	}
	return out
}

func TestCrashRestartSchedule(t *testing.T) {
	res := runFaultSchedule(t, "crash@150:2,restart@300:2", 0)
	kinds := faultCtxKinds(res)
	if len(kinds) != 1 || kinds[0] != EvCrash {
		t.Fatalf("fault contexts = %v, want exactly one crash", kinds)
	}
	var sawCrash, sawRestart bool
	for _, ev := range res.Events {
		switch ev.Kind {
		case EvCrash:
			sawCrash = true
		case EvRestart:
			sawRestart = true
		}
	}
	if !sawCrash || !sawRestart {
		t.Fatalf("schedule missing crash(%v)/restart(%v) events", sawCrash, sawRestart)
	}
}

func TestPartitionHealSchedule(t *testing.T) {
	res := runFaultSchedule(t, "partition@150:1-3,heal@300:1-3", 0)
	kinds := faultCtxKinds(res)
	if len(kinds) != 1 || kinds[0] != EvPartition {
		t.Fatalf("fault contexts = %v, want exactly one partition", kinds)
	}
}

func TestDropDupSchedule(t *testing.T) {
	res := runFaultSchedule(t, "drop@60:5,dup@210:3", 0)
	if res.Dropped == 0 {
		t.Fatal("drop plan dropped nothing")
	}
	var dups int
	for _, ev := range res.Events {
		if ev.Kind == EvDup {
			dups++
		}
	}
	if dups == 0 {
		t.Fatal("dup plan duplicated nothing")
	}
}

// TestFaultSweep runs a handful of seeds under each fault mix — the smoke
// version of the nightly fault exploration.
func TestFaultSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweep is not short")
	}
	mixes := []string{
		"crash@150:2,restart@300:2",
		"partition@150:1-2,heal@280:1-2",
		"drop@100:8",
		"dup@100:6",
		"crash@120:3,partition@160:1-2,restart@250:3,heal@320:1-2,drop@200:3",
	}
	for _, faults := range mixes {
		rep, err := Explore(Config{Steps: 400, Faults: faults}, 5, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failures > 0 {
			t.Errorf("faults=%q: %d/%d seeds failed (first: %v)",
				faults, rep.Failures, rep.Seeds, rep.FirstFailure.Violations())
		}
	}
}

// TestLossyRunsSkipCompleteness: a run that dropped a message is exempt from
// the completeness oracle (the paper assumes reliable links) but never from
// safety — encoded here by checking that a heavy-loss run still finishes
// without safety violations.
func TestLossyRunsSkipCompleteness(t *testing.T) {
	res, err := Run(Config{Seed: 5, Steps: 300, Faults: "drop@50:20,drop@150:20"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SafetyViolations) > 0 {
		t.Fatalf("safety must hold under loss: %v", res.SafetyViolations)
	}
	if len(res.CompletenessViolations) > 0 {
		t.Fatalf("lossy runs are exempt from completeness, got: %v", res.CompletenessViolations)
	}
}
