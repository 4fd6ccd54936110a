package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// tinyOptions runs a workload at 2% of its benchmark scale for a fraction
// of a second, with one set-up.
func tinyOptions(t *testing.T, workload string, trace bool) options {
	t.Helper()
	return options{
		workload: workload,
		seed:     1,
		seconds:  0.3,
		trace:    trace,
		workDir:  t.TempDir(),
		traceDir: t.TempDir(),
		setups:   1,
		scale:    0.02,
	}
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// runTiny executes o and returns its exit status, its stdout, and the
// decoded last line.
func runTiny(t *testing.T, o options) (int, string, result) {
	t.Helper()
	var out bytes.Buffer
	code := execute(o, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\n%s", o.workload, err, out.String())
	}
	return code, out.String(), r
}

// spec is the part of BENCHMARK.json the program must agree with.
type spec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestEveryWorkloadPrintsEveryMetric runs each workload untraced and traced
// at a tiny scale: the JSON line must carry exactly BENCHMARK.json's
// metrics with their units, and the report lines every metric the workload
// is documented to print.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	printed := map[string][]string{
		"reproduce": {"fail_frac", "syslog.extract_s", "syslog.extract_wait_s", "syslog.extract_mb_per_s"},
		"analyze":   {"fail_frac", "ingest.extract_s", "ingest.extract_alloc_mb", "slurmsim.loaddb_s", "slurmsim.rows", "core.loaders_s"},
		"reanalyze": {"fail_frac", "ingest.cache_hit_frac", "ingest.cache_invalidated", "ingest.cold_s", "ingest.shards"},
		"stream": {"fail_frac", "fresh_p95_ms", "loadgen.late_p50_ms", "loadgen.late_max_ms",
			"stream.consume_s", "stream.advance_s", "stream.snapshot_s", "stream.snapshots", "stream.late", "stream.open_state_max"},
	}
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			code, out, r := runTiny(t, tinyOptions(t, name, trace))
			if code != 0 || !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Fatalf("%s trace=%t: exit %d, result %+v\n%s", name, trace, code, r, out)
			}
			list := s.EndToEnd
			if trace {
				list = s.PerLayer
			}
			if len(r.Metrics) != len(list) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json lists %d", name, trace, len(r.Metrics), len(list))
			}
			for _, m := range list {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Value == nil || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", name, trace, m.Name, got, m.Unit)
				}
			}
			if !trace {
				continue
			}
			for _, m := range append(printed[name], "trace.overhead_s") {
				if !strings.Contains(out, " "+m+" ") {
					t.Errorf("%s: report lacks %s\n%s", name, m, out)
				}
			}
		}
	}
}

// TestWrongReferenceFails proves the output check bites: with a reference
// that cannot match, every operation fails and the exit status is non-zero.
func TestWrongReferenceFails(t *testing.T) {
	for _, name := range []string{"reproduce", "stream"} {
		o := tinyOptions(t, name, false)
		o.corruptReference = true
		code, out, r := runTiny(t, o)
		if code == 0 || r.Correct || r.Failed == 0 || r.Failed != r.Attempted {
			t.Errorf("%s: exit %d, result %+v; want every operation failed\n%s", name, code, r, out)
		}
		if !regexp.MustCompile(`(?m)^metric fail_frac +1 ratio`).MatchString(out) {
			t.Errorf("%s: fail_frac is not 1\n%s", name, out)
		}
	}
}

// TestSeedsChangeInputs checks that the seed reaches the generated inputs.
func TestSeedsChangeInputs(t *testing.T) {
	refs := make(map[uint64]string)
	for _, seed := range []uint64{1, 2} {
		o := tinyOptions(t, "reproduce", false)
		o.seed = seed
		w, err := setupReproduce(o, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		refs[seed] = string(w.reference())
	}
	if refs[1] == refs[2] {
		t.Fatal("seeds 1 and 2 rendered identical tables")
	}
}

// TestSelfTimes checks the self-time rule: a span's duration minus the
// union of its children, overlapping children counted once.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 50},
		{ID: 2, Parent: 0, Start: 30, End: 70},  // overlaps span 1
		{ID: 3, Parent: 0, Start: 90, End: 120}, // runs past its parent
	}
	self := selfTimes(spans)
	if self[0] != 30 {
		t.Errorf("self time %v, want 30", self[0])
	}
	if self[1] != 40 || self[3] != 30 {
		t.Errorf("leaf self times %v and %v, want their durations", self[1], self[3])
	}
}
