package cliflags

import (
	"bytes"
	"flag"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"gpuresilience/internal/core"
	"gpuresilience/internal/ingest"
	"gpuresilience/internal/obs"
)

func newSet() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

func TestWorkersFlag(t *testing.T) {
	fs := newSet()
	w := Workers(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if *w != 0 {
		t.Fatalf("default -workers = %d, want 0", *w)
	}
	fs = newSet()
	w = Workers(fs)
	if err := fs.Parse([]string{"-workers", "7"}); err != nil {
		t.Fatal(err)
	}
	if *w != 7 {
		t.Fatalf("-workers 7 parsed as %d", *w)
	}
}

func TestLenientApply(t *testing.T) {
	cases := []struct {
		args        []string
		wantLenient bool
		wantLines   int
		wantFrac    float64
	}{
		{nil, false, 0, 0},
		{[]string{"-lenient"}, true, 0, 0},
		{[]string{"-max-bad-lines", "5"}, true, 5, 0}, // budget implies lenient
		{[]string{"-max-bad-frac", "0.25"}, true, 0, 0.25},
		{[]string{"-lenient", "-max-bad-lines", "3", "-max-bad-frac", "0.1"}, true, 3, 0.1},
	}
	for _, tc := range cases {
		fs := newSet()
		l := Lenient(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		var cfg core.PipelineConfig
		l.Apply(&cfg)
		if cfg.Lenient != tc.wantLenient || cfg.MaxBadLines != tc.wantLines || cfg.MaxBadFrac != tc.wantFrac {
			t.Errorf("%v -> lenient=%v lines=%d frac=%g, want %v/%d/%g",
				tc.args, cfg.Lenient, cfg.MaxBadLines, cfg.MaxBadFrac,
				tc.wantLenient, tc.wantLines, tc.wantFrac)
		}
	}
}

func TestObsDisabledByDefault(t *testing.T) {
	fs := newSet()
	o := Obs(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if o.Enabled() {
		t.Fatal("Enabled() = true with no flags set")
	}
	if reg := o.Registry(); reg != nil {
		t.Fatalf("Registry() = %v, want nil when disabled", reg)
	}
	if man := o.Manifest("test", 1); man != nil {
		t.Fatalf("Manifest() = %v, want nil when disabled", man)
	}
	var buf bytes.Buffer
	if err := o.Emit(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("Emit wrote %q when disabled", buf.String())
	}
}

func TestObsEnabled(t *testing.T) {
	for _, args := range [][]string{
		{"-metrics"},
		{"-metrics-json", t.TempDir() + "/m.json"},
		{"-pprof", "127.0.0.1:0"},
	} {
		fs := newSet()
		o := Obs(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if !o.Enabled() {
			t.Errorf("%v: Enabled() = false", args)
		}
		reg := o.Registry()
		if reg == nil {
			t.Fatalf("%v: Registry() = nil", args)
		}
		if reg != o.Registry() {
			t.Errorf("%v: Registry() not cached", args)
		}
	}
}

func TestManifestResolvesWorkers(t *testing.T) {
	fs := newSet()
	o := Obs(fs)
	if err := fs.Parse([]string{"-metrics"}); err != nil {
		t.Fatal(err)
	}
	man := o.Manifest("mytool", 3)
	if man == nil {
		t.Fatal("Manifest() = nil with -metrics set")
	}
	if man.Tool != "mytool" || man.Workers != 3 || man.GoVersion == "" {
		t.Fatalf("manifest = %+v", man)
	}
	// 0 resolves to the machine's core count — just check it is positive.
	if got := o.Manifest("mytool", 0).Workers; got < 1 {
		t.Fatalf("Workers resolved from 0 = %d", got)
	}
}

func TestStartPprof(t *testing.T) {
	fs := newSet()
	o := Obs(fs)
	if err := fs.Parse([]string{"-pprof", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	addr, stop, err := o.StartPprof()
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("profile")) {
		t.Fatalf("pprof index: status %d, body %q", resp.StatusCode, body[:min(len(body), 200)])
	}
}

// TestHTTPServerDropsSlowClient: a client that sends a partial request
// header and then stalls is disconnected once the header-read timeout
// expires, instead of holding the connection open.
func TestHTTPServerDropsSlowClient(t *testing.T) {
	t.Parallel()
	addr := serveTest(t, NewHTTPServer(http.NotFoundHandler()))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET / HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("connection not closed by the server: %v", err)
	}
	if elapsed := time.Since(start); elapsed > readHeaderTimeout+2*time.Second {
		t.Fatalf("server closed the stalled connection after %v, want within %v", elapsed, readHeaderTimeout)
	}
}

// TestHTTPServerRejectsOversizedHeader: headers beyond maxHeaderBytes get
// 431 rather than being buffered.
func TestHTTPServerRejectsOversizedHeader(t *testing.T) {
	addr := serveTest(t, NewHTTPServer(http.NotFoundHandler()))
	req, err := http.NewRequest(http.MethodGet, "http://"+addr+"/", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Pad", strings.Repeat("a", 2*maxHeaderBytes))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
		t.Fatalf("oversized header: status %d, want 431", resp.StatusCode)
	}
}

// serveTest serves srv on a loopback port until the test ends.
func serveTest(t *testing.T, srv *http.Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	return ln.Addr().String()
}

func TestStartPprofDisabled(t *testing.T) {
	fs := newSet()
	o := Obs(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	addr, stop, err := o.StartPprof()
	if err != nil || addr != "" || stop == nil {
		t.Fatalf("disabled StartPprof = (%q, stop==nil: %v, %v)", addr, stop == nil, err)
	}
	stop() // must be callable
}

func TestEmitText(t *testing.T) {
	fs := newSet()
	o := Obs(fs)
	if err := fs.Parse([]string{"-metrics"}); err != nil {
		t.Fatal(err)
	}
	o.Registry().Counter("demo.count").Add(42)
	man := o.Manifest("demo", 1)
	var buf bytes.Buffer
	if err := o.Emit(&buf, man); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"=== Metrics ===", "demo.count", "42", "=== Run manifest ===", "tool      demo"} {
		if !strings.Contains(out, want) {
			t.Errorf("Emit output missing %q:\n%s", want, out)
		}
	}
}

func TestEmitJSON(t *testing.T) {
	path := t.TempDir() + "/metrics.json"
	fs := newSet()
	o := Obs(fs)
	if err := fs.Parse([]string{"-metrics-json", path}); err != nil {
		t.Fatal(err)
	}
	o.Registry().Counter("demo.count").Add(1)
	sp := o.Registry().StartSpan("demo.span")
	sp.AddIn(10)
	sp.End()
	man := o.Manifest("demo", 2)
	man.AddFile("input.txt", obs.FileDigest{Bytes: 3, SHA256: "abc"})
	var buf bytes.Buffer
	if err := o.Emit(&buf, man); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("-metrics-json alone wrote to stdout: %q", buf.String())
	}
	rep, err := obs.ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Manifest == nil || rep.Manifest.Tool != "demo" {
		t.Fatalf("manifest = %+v", rep.Manifest)
	}
	if len(rep.Metrics.Spans) != 1 || rep.Metrics.Spans[0].Name != "demo.span" || rep.Metrics.Spans[0].In != 10 {
		t.Fatalf("spans = %+v", rep.Metrics.Spans)
	}
	if rep.Metrics.Counters["demo.count"] != 1 {
		t.Fatalf("counters = %+v", rep.Metrics.Counters)
	}
}

func TestPathListRepeatable(t *testing.T) {
	fs := newSet()
	var logs PathList
	Logs(fs, &logs)
	if err := fs.Parse([]string{"-logs", "a.log", "-logs", "b/*.log", "-logs", "dir"}); err != nil {
		t.Fatal(err)
	}
	if len(logs) != 3 || logs[0] != "a.log" || logs[1] != "b/*.log" || logs[2] != "dir" {
		t.Fatalf("accumulated: %v", logs)
	}
	if got := logs.String(); got != "a.log,b/*.log,dir" {
		t.Fatalf("String: %q", got)
	}
}

func TestPathListRejectsEmpty(t *testing.T) {
	fs := newSet()
	var logs PathList
	Logs(fs, &logs)
	if err := fs.Parse([]string{"-logs", ""}); err == nil {
		t.Fatal("empty -logs accepted")
	}
}

func TestIngestConfig(t *testing.T) {
	fs := newSet()
	ing := Ingest(fs)
	if err := fs.Parse([]string{"-cache-dir", "/tmp/cache"}); err != nil {
		t.Fatal(err)
	}
	if cfg := ing.Config(); cfg.CacheDir != "/tmp/cache" {
		t.Fatalf("config: %+v", cfg)
	}

	fs = newSet()
	ing = Ingest(fs)
	if err := fs.Parse([]string{"-cache-dir", "/tmp/cache", "-no-cache"}); err != nil {
		t.Fatal(err)
	}
	if cfg := ing.Config(); cfg.CacheDir != "" {
		t.Fatalf("-no-cache must win: %+v", cfg)
	}
}

func TestAddShardFiles(t *testing.T) {
	man := obs.NewRunManifest("test")
	shards := []ingest.ShardInfo{
		{Path: "logs/day1.log", Digest: obs.FileDigest{Bytes: 10, SHA256: "aa"}},
		{Path: "logs/day2.log", Digest: obs.FileDigest{Bytes: 20, SHA256: "bb"}},
	}
	AddShardFiles(man, shards)
	if len(man.Files) != 2 {
		t.Fatalf("files: %+v", man.Files)
	}
	// Unique base names key by base name, matching the single-file CLIs.
	if man.Files["day1.log"].SHA256 != "aa" || man.Files["day2.log"].SHA256 != "bb" {
		t.Fatalf("base-name keys: %+v", man.Files)
	}

	// Colliding base names fall back to the full path.
	man = obs.NewRunManifest("test")
	AddShardFiles(man, []ingest.ShardInfo{
		{Path: "a/syslog.txt", Digest: obs.FileDigest{SHA256: "aa"}},
		{Path: "b/syslog.txt", Digest: obs.FileDigest{SHA256: "bb"}},
	})
	if man.Files["a/syslog.txt"].SHA256 != "aa" || man.Files["b/syslog.txt"].SHA256 != "bb" {
		t.Fatalf("collision keys: %+v", man.Files)
	}

	// Nil manifest (observability off) is a no-op, not a panic.
	AddShardFiles(nil, shards)
}
