package sim

import (
	"os"
	"path/filepath"
	"testing"
)

// TestReplayCorpus replays every schedule under testdata/schedules/ and
// enforces its Expect annotation: "safety" schedules are caught-regression
// witnesses that must trip the safety oracle; "clean" (or unannotated)
// schedules must pass both oracles. Each schedule replays twice and must
// produce the identical digest — the corpus doubles as a determinism
// regression suite.
func TestReplayCorpus(t *testing.T) {
	files, err := filepath.Glob("testdata/schedules/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no schedules in testdata/schedules/")
	}
	results := make(map[string]*Result)
	for _, path := range files {
		name := filepath.Base(path)
		t.Run(name, func(t *testing.T) {
			sched, err := ReadScheduleFile(path)
			if err != nil {
				t.Fatal(err)
			}
			res := Replay(sched.Config, sched.Events)
			results[name] = res
			switch sched.Expect {
			case ExpectSafety:
				if len(res.SafetyViolations) == 0 {
					t.Fatal("expected a safety violation, run was clean")
				}
			case ExpectClean, "":
				if res.Failed() {
					t.Fatalf("expected a clean run, got: %v", res.Violations())
				}
				if res.Skipped != 0 {
					t.Fatalf("clean corpus schedule skipped %d events", res.Skipped)
				}
			default:
				t.Fatalf("unknown expect annotation %q", sched.Expect)
			}
			again := Replay(sched.Config, sched.Events)
			if again.Digest != res.Digest {
				t.Fatalf("replaying twice gave different digests:\n  %s\n  %s", res.Digest, again.Digest)
			}
		})
	}

	// The named fault schedules must actually race a fault against collector
	// activity — that is what they are in the corpus for.
	t.Run("crash-during-back-trace races an active trace", func(t *testing.T) {
		res, ok := results["crash-during-back-trace.json"]
		if !ok {
			t.Fatal("corpus is missing crash-during-back-trace.json")
		}
		if !anyFault(res, crashHitsActiveTrace) {
			t.Fatalf("no crash hit an active back trace; contexts: %+v", res.FaultCtx)
		}
	})
	t.Run("partition-during-report cuts an in-flight report", func(t *testing.T) {
		res, ok := results["partition-during-report.json"]
		if !ok {
			t.Fatal("corpus is missing partition-during-report.json")
		}
		if !anyFault(res, partitionCutsReport) {
			t.Fatalf("no partition cut an in-flight report; contexts: %+v", res.FaultCtx)
		}
	})
}

// crashHitsActiveTrace and partitionCutsReport are the races the two fault
// corpus schedules exist to witness.
func crashHitsActiveTrace(fc FaultContext) bool {
	return fc.Kind == EvCrash && fc.ActiveFrames > 0
}

func partitionCutsReport(fc FaultContext) bool {
	return fc.Kind == EvPartition && fc.ReportsInFlight > 0
}

// anyFault reports whether some fault of the run satisfies races.
func anyFault(res *Result, races func(FaultContext) bool) bool {
	for _, fc := range res.FaultCtx {
		if races(fc) {
			return true
		}
	}
	return false
}

// TestGenerateFaultCorpus regenerates the two fault-race corpus schedules,
// which go stale whenever the collector's message stream changes (their
// scripted deliveries no longer line up). Skipped unless FAULT_CORPUS_OUT
// names a directory; for each schedule it sweeps seeds until a clean run's
// fault lands on the collector activity the schedule is in the corpus for.
func TestGenerateFaultCorpus(t *testing.T) {
	dir := os.Getenv("FAULT_CORPUS_OUT")
	if dir == "" {
		t.Skip("set FAULT_CORPUS_OUT to regenerate the fault corpus schedules")
	}
	corpus := []struct {
		file, faults string
		races        func(FaultContext) bool
	}{
		{"crash-during-back-trace.json", "crash@250:2,restart@370:2", crashHitsActiveTrace},
		{"partition-during-report.json", "partition@250:1-3,heal@330:1-3", partitionCutsReport},
	}
	for _, c := range corpus {
		seed := int64(0)
		for ; seed < 200; seed++ {
			res, err := Run(Config{Seed: seed, Steps: 400, Faults: c.faults})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed() {
				t.Fatalf("%s: seed %d tripped an oracle: %v", c.file, seed, res.Violations())
			}
			if !anyFault(res, c.races) {
				continue
			}
			s := Schedule{Config: res.Config, Expect: ExpectClean, Events: res.Events}
			if err := s.WriteFile(filepath.Join(dir, c.file)); err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: seed %d, %d events", c.file, seed, len(res.Events))
			break
		}
		if seed == 200 {
			t.Fatalf("%s: no seed satisfied the corpus criteria", c.file)
		}
	}
}

// TestScheduleRoundTrip: WriteFile/ReadScheduleFile preserve a schedule
// exactly, and the version check rejects foreign files.
func TestScheduleRoundTrip(t *testing.T) {
	res, err := Run(Config{Seed: 9, Steps: 50})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sched.json")
	s := Schedule{Config: res.Config, Expect: ExpectClean, Events: res.Events}
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadScheduleFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != ScheduleVersion || got.Expect != ExpectClean {
		t.Fatalf("round trip lost metadata: %+v", got)
	}
	if len(got.Events) != len(res.Events) {
		t.Fatalf("round trip lost events: %d -> %d", len(res.Events), len(got.Events))
	}
	replayed := Replay(got.Config, got.Events)
	if replayed.Digest != res.Digest {
		t.Fatal("round-tripped schedule replays to a different digest")
	}
}
