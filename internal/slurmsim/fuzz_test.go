package slurmsim

import (
	"strings"
	"testing"
)

// FuzzParsePlacement checks the placement codec never panics and round-trips
// whatever it accepts.
func FuzzParsePlacement(f *testing.F) {
	f.Add("gpub001:0,1,2,3;gpub002:1,3")
	f.Add("")
	f.Add("x:")
	f.Add(":0")
	f.Add("a:0;;b:1")
	f.Add("a:0;a:1")
	f.Add("a:0,0")
	f.Add("a:-1")
	f.Add("b:1;a:2,0")
	f.Add(",:0")
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePlacement(s)
		if err != nil {
			return
		}
		// No accepted input loses or double-counts a GPU.
		listed := 0
		if s != "" {
			for _, part := range strings.Split(s, ";") {
				_, list, _ := strings.Cut(part, ":")
				listed += len(strings.Split(list, ","))
			}
		}
		if p.TotalGPUs() != listed {
			t.Fatalf("%q: TotalGPUs %d, %d indexes listed", s, p.TotalGPUs(), listed)
		}
		// Anything accepted must re-encode and re-parse to the same form.
		enc := p.String()
		back, err := ParsePlacement(enc)
		if err != nil {
			t.Fatalf("re-parse of %q failed: %v", enc, err)
		}
		if back.String() != enc {
			t.Fatalf("round trip unstable: %q -> %q", enc, back.String())
		}
	})
}

// FuzzLoadDBLine checks the sacct parser never panics on corrupt rows.
func FuzzLoadDBLine(f *testing.F) {
	f.Add("1|name|user|gpuA100x4|2|2023-01-01T00:00:00Z|2023-01-01T01:00:00Z|2023-01-01T02:00:00Z|COMPLETED|0:0|n1:0,1|0")
	f.Add("x|y")
	f.Add("")
	for _, place := range []string{"a:0;a:1", "n1:0;n1:1", "a:0,0", "a:-1"} {
		f.Add("1|name|user|gpuA100x4|2|2023-01-01T00:00:00Z|2023-01-01T01:00:00Z|2023-01-01T02:00:00Z|COMPLETED|0:0|" + place + "|0")
	}
	f.Fuzz(func(t *testing.T, line string) {
		r := strings.NewReader("JobID|JobName|User|Partition|ReqGPUS|Submit|Start|End|State|ExitCode|Placement|ML\n" + line + "\n")
		jobs, err := LoadDB(r)
		if err == nil {
			for _, j := range jobs {
				if j == nil {
					t.Fatal("nil job from parser")
				}
			}
		}
	})
}
