// Package cliflags unifies the flag surface shared by the study's CLIs.
// Before it existed each command registered its own copies of -workers and
// the lenient-ingestion trio (and deltasim/availability had no -workers at
// all); now every command gets the same names, defaults, and help strings
// from one place, plus the observability flags the obs layer adds:
//
//	-logs PATH        raw log input: repeatable, and each occurrence may be
//	                  a file, a glob, or a directory of per-day logs
//	-cache-dir DIR    columnar event-shard cache (.evshard files)
//	-no-cache         force a cold run even when -cache-dir is set
//	-workers N        pipeline parallelism (0 = all cores, 1 = sequential)
//	-lenient          corruption-tolerant Stage I
//	-max-bad-lines N  lenient absolute error budget (implies -lenient)
//	-max-bad-frac F   lenient fractional error budget (implies -lenient)
//	-metrics          print per-stage spans, counters, and the run manifest
//	-metrics-json F   write the machine-readable metrics.json document
//	-pprof ADDR       serve net/http/pprof for the run's duration
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gpuresilience/internal/core"
	"gpuresilience/internal/ingest"
	"gpuresilience/internal/obs"
	"gpuresilience/internal/parallel"
)

// PathList is a repeatable path flag: each occurrence appends one pattern.
// The batch CLIs expand the accumulated patterns into a shard plan
// (internal/ingest), so a single flag value may itself be a glob or a
// directory; the daemon tails each entry directly.
type PathList []string

// String renders the accumulated paths for -help output.
func (p *PathList) String() string { return strings.Join(*p, ",") }

// Set appends one pattern per flag occurrence.
func (p *PathList) Set(v string) error {
	if v == "" {
		return fmt.Errorf("empty path")
	}
	*p = append(*p, v)
	return nil
}

// Logs registers the canonical repeatable -logs flag into dst.
func Logs(fs *flag.FlagSet, dst *PathList) {
	fs.Var(dst, "logs", "raw system log: file, glob, or directory (repeatable)")
}

// IngestFlags carries the event-shard cache pair.
type IngestFlags struct {
	// CacheDir is the -cache-dir root ("" = caching off).
	CacheDir *string
	// NoCache is the -no-cache override for scripts that always pass
	// -cache-dir but need an occasional forced cold run.
	NoCache *bool
}

// Ingest registers -cache-dir and -no-cache.
func Ingest(fs *flag.FlagSet) *IngestFlags {
	return &IngestFlags{
		CacheDir: fs.String("cache-dir", "", "event-shard cache directory: parsed shards are written as .evshard files and re-analysis skips Stage I"),
		NoCache:  fs.Bool("no-cache", false, "ignore -cache-dir: neither read nor write cached shards"),
	}
}

// Config resolves the pair into the pipeline's ingest settings.
func (f *IngestFlags) Config() core.IngestConfig {
	if *f.NoCache {
		return core.IngestConfig{}
	}
	return core.IngestConfig{CacheDir: *f.CacheDir}
}

// AddShardFiles records every shard's digest in the run manifest, keyed by
// base name when unique (matching the single-file CLIs' historical shape)
// and by full path when two shards share a base name. No-op on a nil
// manifest.
func AddShardFiles(man *obs.RunManifest, shards []ingest.ShardInfo) {
	if man == nil {
		return
	}
	bases := make(map[string]int, len(shards))
	for _, sh := range shards {
		bases[filepath.Base(sh.Path)]++
	}
	for _, sh := range shards {
		name := filepath.Base(sh.Path)
		if bases[name] > 1 {
			name = sh.Path
		}
		man.AddFile(name, sh.Digest)
	}
}

// Workers registers the canonical -workers flag.
func Workers(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0, "pipeline worker goroutines (0 = all cores, 1 = sequential)")
}

// LenientFlags carries the corruption-tolerance trio.
type LenientFlags struct {
	// Lenient is the -lenient toggle.
	Lenient *bool
	// MaxBadLines is the -max-bad-lines absolute error budget.
	MaxBadLines *int
	// MaxBadFrac is the -max-bad-frac fractional error budget.
	MaxBadFrac *float64
}

// Lenient registers -lenient, -max-bad-lines, and -max-bad-frac.
func Lenient(fs *flag.FlagSet) *LenientFlags {
	return &LenientFlags{
		Lenient:     fs.Bool("lenient", false, "corruption-tolerant Stage I: classify and skip damaged lines instead of failing"),
		MaxBadLines: fs.Int("max-bad-lines", 0, "lenient error budget: fail after this many corrupt lines (0 = unlimited, implies -lenient)"),
		MaxBadFrac:  fs.Float64("max-bad-frac", 0, "lenient error budget: fail when this corrupt-line fraction is exceeded (0 = unlimited, implies -lenient)"),
	}
}

// Apply resolves the implies-lenient rule (a nonzero budget turns lenient
// mode on) and copies the settings into cfg.
func (l *LenientFlags) Apply(cfg *core.PipelineConfig) {
	cfg.Lenient = *l.Lenient || *l.MaxBadLines > 0 || *l.MaxBadFrac > 0
	cfg.MaxBadLines = *l.MaxBadLines
	cfg.MaxBadFrac = *l.MaxBadFrac
}

// ObsFlags carries the observability trio. Instrumentation stays off — a
// nil registry everywhere — unless at least one of the flags is set.
type ObsFlags struct {
	// Metrics is the -metrics toggle (human-readable section on stdout).
	Metrics *bool
	// MetricsJSON is the -metrics-json output path ("" = off).
	MetricsJSON *string
	// Pprof is the -pprof listen address ("" = off).
	Pprof *string

	reg *obs.Registry
}

// Obs registers -metrics, -metrics-json, and -pprof.
func Obs(fs *flag.FlagSet) *ObsFlags {
	return &ObsFlags{
		Metrics:     fs.Bool("metrics", false, "print per-stage metrics and the run manifest after the run"),
		MetricsJSON: fs.String("metrics-json", "", "write machine-readable metrics and the run manifest to this file"),
		Pprof:       fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the run's duration"),
	}
}

// Enabled reports whether any observability output was requested.
func (o *ObsFlags) Enabled() bool {
	return *o.Metrics || *o.MetricsJSON != "" || *o.Pprof != ""
}

// Registry returns the run's metrics registry: non-nil only when an
// observability flag was set, so the un-instrumented path stays zero-cost.
func (o *ObsFlags) Registry() *obs.Registry {
	if !o.Enabled() {
		return nil
	}
	if o.reg == nil {
		o.reg = obs.New()
	}
	return o.reg
}

// Manifest returns a run manifest stamped with the tool name, go version,
// and resolved worker count — nil when observability is off, so callers can
// chain AddFile and field assignments unconditionally.
func (o *ObsFlags) Manifest(tool string, workers int) *obs.RunManifest {
	if !o.Enabled() {
		return nil
	}
	m := obs.NewRunManifest(tool)
	m.Workers = parallel.Resolve(workers)
	return m
}

// Limits every long-running HTTP listener in the module applies, so a slow
// or hostile client cannot hold a connection or buffer unbounded headers.
// There is no write timeout: /debug/pprof/profile streams for as long as
// its seconds= parameter asks.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 64 << 10
)

// NewHTTPServer returns a server for h with the module's header-read,
// idle-connection and header-size limits. The streaming daemon and the
// pprof server both use it.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

// StartPprof starts the opt-in pprof server and returns its bound address
// plus a stop function. With -pprof unset it is a no-op returning ("",
// stop, nil). The server lives until stop is called (or the process exits);
// it is meant for profiling long runs, e.g.
//
//	deltareport -scale 1.0 -pprof localhost:6060 &
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=10
func (o *ObsFlags) StartPprof() (string, func(), error) {
	if *o.Pprof == "" {
		return "", func() {}, nil
	}
	ln, err := net.Listen("tcp", *o.Pprof)
	if err != nil {
		return "", nil, fmt.Errorf("cliflags: pprof listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := NewHTTPServer(mux)
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), func() { _ = srv.Close() }, nil
}

// Emit writes the requested observability outputs: the human-readable
// -metrics section (snapshot then manifest) to w, and/or the metrics.json
// document. A run that set no observability flag emits nothing.
func (o *ObsFlags) Emit(w io.Writer, man *obs.RunManifest) error {
	if !o.Enabled() {
		return nil
	}
	snap := o.Registry().Snapshot()
	if *o.Metrics {
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		if err := snap.WriteText(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		if err := man.WriteText(w); err != nil {
			return err
		}
	}
	if *o.MetricsJSON != "" {
		f, err := os.Create(*o.MetricsJSON)
		if err != nil {
			return err
		}
		if err := obs.WriteJSON(f, man, snap); err != nil {
			_ = f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}
