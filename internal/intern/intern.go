// Package intern deduplicates the small string vocabularies that dominate
// the pipeline's hot paths: node names, PCI addresses, job names, users,
// partitions, and the recurring Xid detail strings. Stage I used to mint a
// fresh string per field per line; over >1.2M raw log lines that is >1.2M
// duplicate allocations carried into Stage II. An Interner returns one
// canonical copy per distinct value instead.
//
// An Interner is deliberately NOT safe for concurrent use: Stage I keeps one
// per scanned stream (pooled and reset between runs), so no lock ever sits
// on the per-line path.
package intern

// Stats counts interner activity. A hit returned an existing canonical
// string with no allocation; a miss allocated (and usually cached) a new
// one. Bytes is the total length of miss-allocated strings — the
// allocation volume the surrounding code actually paid.
type Stats struct {
	Hits   int64 // lookups served from the cache
	Misses int64 // lookups that allocated a new string
	Bytes  int64 // total length of miss-allocated strings
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Bytes += o.Bytes
}

// Table bounds. Both exist so adversarial input (every line a unique
// oversized detail string) cannot pin unbounded memory in a pooled
// interner: oversized or table-overflowing values are copied through
// without being cached.
const (
	maxEntries = 1 << 15
	maxLen     = 256
)

// Interner is a string deduplication table with hit/miss accounting.
type Interner struct {
	m     map[string]string
	stats Stats
}

// New returns an empty Interner.
func New() *Interner {
	return &Interner{m: make(map[string]string, 64)}
}

// Intern returns the canonical string equal to b, allocating only the
// first time a value is seen. The result never aliases b's backing array,
// so callers may reuse or recycle the buffer immediately. A nil Interner
// degrades to a plain copy with no accounting.
func (in *Interner) Intern(b []byte) string {
	if in == nil {
		return string(b)
	}
	if len(b) == 0 {
		return ""
	}
	if len(b) <= maxLen {
		// The map lookup with a string(b) key does not allocate: the
		// compiler recognizes the conversion-for-lookup pattern.
		if s, ok := in.m[string(b)]; ok {
			in.stats.Hits++
			return s
		}
	}
	in.stats.Misses++
	in.stats.Bytes += int64(len(b))
	s := string(b)
	if len(s) <= maxLen && len(in.m) < maxEntries {
		in.m[s] = s
	}
	return s
}

// Stats returns the accumulated hit/miss totals.
func (in *Interner) Stats() Stats { return in.stats }

// Reset empties the table and zeroes the stats, keeping the map's bucket
// capacity so a pooled interner warms up once per lifetime, not per run.
func (in *Interner) Reset() {
	clear(in.m)
	in.stats = Stats{}
}
