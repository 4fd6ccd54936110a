package ingest

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"

	"gpuresilience/internal/intern"
	"gpuresilience/internal/obs"
	"gpuresilience/internal/parallel"
	"gpuresilience/internal/syslog"
	"gpuresilience/internal/xid"
)

// Options configures a sharded Stage I run.
type Options struct {
	// Workers bounds how many files parse concurrently; each file is one
	// sequential scan. 0 means GOMAXPROCS, 1 is fully sequential.
	Workers int
	// Stage1 configures every scan. Lenient runs bypass the cache
	// (quarantine state is not persisted). The absolute error budget also
	// fails any single shard fast; the fractional budget is evaluated once
	// over the merged totals, matching the single-stream rule that a
	// running fraction is never checked mid-stream. Its Alloc sink is
	// unused: the run's interner totals go to Obs.
	Stage1 syslog.Options
	// Cache enables the event-shard cache when non-nil.
	Cache *Cache
	// Obs receives the ingest spans and cache counters when non-nil.
	Obs *obs.Registry
}

// ShardInfo is one shard's per-run record: provenance for manifests plus
// what the cache did for it.
type ShardInfo struct {
	// Path is the shard's log file.
	Path string
	// Digest is the file's content digest (size + SHA-256), the same shape
	// run manifests pin inputs with.
	Digest obs.FileDigest
	// Events is how many events the shard contributed.
	Events int
	// Outcome says whether the shard was served from cache.
	Outcome CacheOutcome
}

// Result is a sharded Stage I run's output: the merged event stream,
// aggregate scan statistics, and the per-shard records.
type Result struct {
	// Events is the merged stream, ordered by (timestamp, shard ordinal,
	// source line).
	Events []xid.Event
	// Stats sums every shard's scan statistics.
	Stats syslog.ExtractStats
	// Ingestion is the merged lenient report (nil on strict runs), with
	// quarantine line numbers rebased to the concatenated stream.
	Ingestion *syslog.IngestionReport
	// Shards records each shard in plan order.
	Shards []ShardInfo
}

// shardState is the per-shard scratch the extraction phases fill in.
type shardState struct {
	digest  [digestLen]byte
	size    int64
	events  []xid.Event
	stats   syslog.ExtractStats
	report  *syslog.IngestionReport
	outcome CacheOutcome
}

// hashFile streams one file through SHA-256 without retaining its bytes.
func hashFile(path string) ([digestLen]byte, int64, error) {
	var sum [digestLen]byte
	f, err := os.Open(path)
	if err != nil {
		return sum, 0, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return sum, 0, fmt.Errorf("ingest: hash %s: %w", path, err)
	}
	copy(sum[:], h.Sum(nil))
	return sum, n, nil
}

// Extract runs Stage I over every shard in the plan and merges the
// results. Cached shards load without parsing; the rest parse concurrently
// on the pooled byte parsers (bounded by opt.Workers) and are written back
// to the cache. The merged stream and statistics are identical at any
// worker count, and produce Tables I-III byte-identical to a single run
// over the shards' concatenation in plan order.
//
// When opt.Obs is enabled the run records the ingest.shards gauge, the
// cache.{hit,miss,invalidated,bypass,write} counters, a per-shard
// stage1.shard.N span for every parsed shard, and the usual umbrella
// stage1.extract / stage1.lenient span — only when at least one shard
// actually parsed, so a fully cache-warm run is recognizable by that
// span's absence.
func Extract(plan Plan, opt Options) (*Result, error) {
	n := len(plan.Shards)
	if n == 0 {
		return nil, fmt.Errorf("ingest: empty plan")
	}
	reg := opt.Obs
	reg.Gauge("ingest.shards").Set(int64(n))
	states := make([]shardState, n)

	lenient := opt.Stage1.Lenient
	cacheable := opt.Cache != nil && !lenient
	if opt.Cache != nil && lenient {
		reg.Counter("cache.bypass").Add(int64(n))
		for i := range states {
			states[i].outcome = CacheBypass
		}
	}

	// Probe phase: hash every source and try its cache entry, in
	// parallel. Counters are bumped after the fan-in, in plan order, so
	// metric totals are deterministic (they would be anyway — counters
	// are atomic — but ordering keeps traces readable).
	if cacheable {
		err := parallel.ForEach(n, opt.Workers, func(i int) error {
			st := &states[i]
			var err error
			st.digest, st.size, err = hashFile(plan.Shards[i].Path)
			if err != nil {
				return err
			}
			var p *Payload
			p, st.outcome = opt.Cache.Load(plan.Shards[i].Path, st.digest)
			if st.outcome == CacheHit {
				st.events, st.stats = p.Events, p.Stats
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		for i := range states {
			reg.Counter("cache." + states[i].outcome.String()).Add(1)
		}
	}

	// Parse phase: every shard the cache could not serve. The umbrella
	// span exists only when this phase has work, so its absence marks a
	// fully warm run.
	var toParse []int
	for i := range states {
		if states[i].outcome != CacheHit {
			toParse = append(toParse, i)
		}
	}
	if len(toParse) > 0 {
		if err := parseShards(plan, states, toParse, opt); err != nil {
			return nil, err
		}
	}

	res := &Result{Shards: make([]ShardInfo, n)}
	streams := make([][]xid.Event, n)
	var reports []*syslog.IngestionReport
	for i := range states {
		st := &states[i]
		streams[i] = st.events
		res.Stats.Lines += st.stats.Lines
		res.Stats.XIDLines += st.stats.XIDLines
		res.Stats.Skipped += st.stats.Skipped
		res.Stats.Malformed += st.stats.Malformed
		if lenient {
			reports = append(reports, st.report)
		}
		res.Shards[i] = ShardInfo{
			Path:    plan.Shards[i].Path,
			Digest:  obs.FileDigest{Bytes: st.size, SHA256: hex.EncodeToString(st.digest[:])},
			Events:  len(st.events),
			Outcome: st.outcome,
		}
	}
	res.Events = mergeShards(streams)
	if lenient {
		rep, err := syslog.MergeReports(reports, opt.Stage1)
		res.Ingestion = rep
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// ExtractStream runs Stage I over one raw log stream, instrumented like an
// Extract run over a single cold shard minus the shard's own span and
// digest: the stage1.extract (or stage1.lenient) span and the interner
// counters. Result.Shards is nil; the lenient report comes back alongside
// a budget error.
func ExtractStream(r io.Reader, opt Options) (*Result, error) {
	s := startStage1(opt, 1)
	sopt := opt.Stage1
	var alloc intern.Stats
	sopt.Alloc = &alloc
	var (
		events []xid.Event
		rep    *syslog.IngestionReport
	)
	// A one-item ForEachMeter times the scan as the span's only worker.
	err := parallel.ForEachMeter(1, 1, s.meter(), func(int) error {
		var err error
		events, rep, _, err = s.scan(r, sopt)
		return err
	})
	res := &Result{Events: events, Stats: rep.Stats()}
	if sopt.Lenient {
		res.Ingestion = rep
	}
	s.end(int64(res.Stats.Lines), int64(len(events)), alloc)
	return res, err
}

// stage1 is the instrumented Stage I umbrella that Extract and
// ExtractStream share: the stage1.extract span (stage1.lenient in lenient
// mode) with bytes counted off every scanned source, and the interner
// totals published as counters when it ends. It is inert when Obs is
// disabled.
type stage1 struct {
	reg *obs.Registry
	sp  *obs.Span
}

// startStage1 opens the umbrella span for a run scanning on workers
// goroutines.
func startStage1(opt Options, workers int) stage1 {
	if !opt.Obs.Enabled() {
		return stage1{}
	}
	name := "stage1.extract"
	if opt.Stage1.Lenient {
		name = "stage1.lenient"
	}
	sp := opt.Obs.StartSpan(name)
	sp.SetWorkers(workers)
	return stage1{reg: opt.Obs, sp: sp}
}

// meter is the span's per-worker meter, nil when uninstrumented so the
// pool takes its unmetered path.
func (s stage1) meter() parallel.WorkerMeter {
	if s.sp == nil {
		return nil
	}
	return s.sp.ObserveWorker
}

// scan runs one sequential Stage I pass over src and collects its events.
// n is how many bytes it read, counted only when instrumented.
func (s stage1) scan(src io.Reader, sopt syslog.Options) (events []xid.Event, rep *syslog.IngestionReport, n int64, err error) {
	var cr *obs.CountingReader
	if s.sp != nil {
		cr = obs.NewCountingReader(src)
		src = cr
	}
	rep, err = syslog.Extract(src, sopt, func(ev xid.Event) error {
		events = append(events, ev)
		return nil
	})
	if cr != nil {
		n = cr.N()
		s.sp.AddBytes(n)
	}
	return events, rep, n, err
}

// end closes the span with the run's line and event totals and publishes
// the interner counters.
func (s stage1) end(lines, events int64, alloc intern.Stats) {
	if s.sp == nil {
		return
	}
	s.sp.AddIn(lines)
	s.sp.AddOut(events)
	s.sp.End()
	// Stage I allocation behavior: interner traffic and the bytes actually
	// copied out of the read buffers (cache misses).
	s.reg.Counter("intern.hits").Add(alloc.Hits)
	s.reg.Counter("intern.misses").Add(alloc.Misses)
	s.reg.Counter("stage1.alloc_bytes").Add(alloc.Bytes)
}

// parseShards runs Stage I over the listed shards: one sequential scan per
// file, up to opt.Workers files at a time.
func parseShards(plan Plan, states []shardState, toParse []int, opt Options) error {
	reg := opt.Obs
	s := startStage1(opt, min(parallel.Resolve(opt.Workers), len(toParse)))
	sopt := opt.Stage1
	sopt.MaxBadFrac = 0 // the fractional budget applies to the merged stream only
	allocs := make([]intern.Stats, len(toParse))
	err := parallel.ForEachMeter(len(toParse), opt.Workers, s.meter(), func(k int) error {
		i := toParse[k]
		st := &states[i]
		shard := plan.Shards[i]
		f, err := os.Open(shard.Path)
		if err != nil {
			return err
		}
		defer f.Close()

		// The parse pass doubles as the hash pass when the probe phase
		// did not already digest the file.
		var src io.Reader = f
		var hr *obs.HashingReader
		if st.size == 0 && st.digest == [digestLen]byte{} {
			hr = obs.NewHashingReader(f)
			src = hr
		}
		var ssp *obs.Span
		if reg.Enabled() {
			ssp = reg.StartSpan(fmt.Sprintf("stage1.shard.%03d", shard.Ordinal))
			defer ssp.End()
		}
		shardOpt := sopt
		shardOpt.Alloc = &allocs[k]
		var n int64
		st.events, st.report, n, err = s.scan(src, shardOpt)
		st.stats = st.report.Stats()
		if err != nil {
			return fmt.Errorf("ingest: shard %s: %w", shard.Path, err)
		}
		if hr != nil {
			d := hr.Digest()
			st.size = d.Bytes
			sum, derr := hex.DecodeString(d.SHA256)
			if derr == nil {
				copy(st.digest[:], sum)
			}
		}
		ssp.AddIn(int64(st.stats.Lines))
		ssp.AddOut(int64(len(st.events)))
		ssp.AddBytes(n)
		if opt.Cache != nil && !sopt.Lenient {
			p := &Payload{SourceDigest: st.digest, SourcePath: shard.Path, Stats: st.stats, Events: st.events}
			if err := opt.Cache.Store(shard.Path, p); err != nil {
				return err
			}
			reg.Counter("cache.write").Add(1)
		}
		return nil
	})
	var (
		alloc         intern.Stats
		lines, events int64
	)
	for k, i := range toParse {
		alloc.Add(allocs[k])
		lines += int64(states[i].stats.Lines)
		events += int64(len(states[i].events))
	}
	s.end(lines, events, alloc)
	return err
}
