package workload

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"gpuresilience/internal/randx"
	"gpuresilience/internal/slurmsim"
	"gpuresilience/internal/stats"
)

// jobsOracle and makeJobOracle are the historical generator, kept
// verbatim as the differential oracle for JobStream: every bucket's jobs
// made in arrival order, then one sort.Slice of the whole population by
// (Submit, Name), with user names formatted per job.
func jobsOracle(g *Generator) []*slurmsim.Job {
	rng := randx.Derive(g.cfg.Seed, "workload")
	var jobs []*slurmsim.Job
	for bi, b := range g.cfg.Buckets {
		n := int(math.Round(float64(b.Count) * g.cfg.Scale))
		if n == 0 {
			continue
		}
		brng := rng.Derive("bucket-" + b.Name)
		arrivals := brng.UniformOrderStats(n, g.cfg.Period.Hours())
		for _, at := range arrivals {
			if g.cfg.DiurnalAmplitude > 0 {
				day := math.Floor(at / 24)
				tod := warpTimeOfDay((at-day*24)/24, g.cfg.DiurnalAmplitude, g.cfg.DiurnalPeakHour)
				at = day*24 + tod
			}
			jobs = append(jobs, makeJobOracle(g, bi, b, brng, g.cfg.Period.Start.Add(
				time.Duration(at*float64(time.Hour)))))
		}
	}
	sort.Slice(jobs, func(i, k int) bool {
		if !jobs[i].Submit.Equal(jobs[k].Submit) {
			return jobs[i].Submit.Before(jobs[k].Submit)
		}
		return jobs[i].Name < jobs[k].Name
	})
	return jobs
}

func makeJobOracle(g *Generator, bi int, b BucketSpec, rng *randx.Stream, submit time.Time) *slurmsim.Job {
	gpus := b.GPUChoices[rng.Categorical(b.GPUWeights)]
	durMin := rng.LogNormal(math.Log(b.MedianMin), g.sigmas[bi])
	// The scheduler applies the cap through TimeLimit (TIMEOUT state).
	ml := rng.Bool(b.MLFrac)
	var name string
	if ml {
		name = mlNames[rng.Intn(len(mlNames))]
	} else {
		name = nonMLNames[rng.Intn(len(nonMLNames))]
	}
	j := &slurmsim.Job{
		Name:        name,
		User:        fmt.Sprintf("user%03d", rng.Intn(400)),
		Partition:   "gpuA100x4",
		GPUs:        gpus,
		Submit:      submit,
		RunDuration: time.Duration(durMin * float64(time.Minute)),
		TimeLimit:   time.Duration(b.CapMin) * time.Minute,
		ML:          ml,
	}
	if rng.Bool(g.cfg.BaselineFailProb) {
		j.FailNaturally = true
		j.NaturalExitCode = 1 + rng.Intn(125)
	}
	return j
}

// calibratedConfig is the workload the calibrated scenarios run: the
// operational period with the afternoon-peaked diurnal warp.
func calibratedConfig(seed uint64, scale float64) Config {
	cfg := DefaultConfig(seed, opPeriod, scale)
	cfg.DiurnalAmplitude, cfg.DiurnalPeakHour = 0.25, 14
	return cfg
}

func TestJobsMatchOracle(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		for _, scale := range []float64{0.02, 0.05, 0.1} {
			t.Run(fmt.Sprintf("seed%d/scale%g", seed, scale), func(t *testing.T) {
				if testing.Short() && scale > 0.02 {
					t.Skip("large populations in -short mode")
				}
				g, err := NewGenerator(calibratedConfig(seed, scale))
				if err != nil {
					t.Fatal(err)
				}
				got, want := g.Jobs(), jobsOracle(g)
				if len(got) != len(want) {
					t.Fatalf("%d jobs, oracle %d", len(got), len(want))
				}
				for i := range got {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("job %d = %+v, oracle %+v", i, *got[i], *want[i])
					}
				}
			})
		}
	}
}

// TestJobsTiesMatchOracle squeezes the population into a 10 ns period, so
// nearly every job shares its submission time with others, in its own
// bucket and across buckets. The (Submit, Name) order must match the
// oracle's sort, and jobs equal in both must come in bucket order.
func TestJobsTiesMatchOracle(t *testing.T) {
	tiny := stats.Period{Name: "tiny", Start: opPeriod.Start, End: opPeriod.Start.Add(10 * time.Nanosecond)}
	for _, diurnal := range []float64{0, 0.25} {
		cfg := DefaultConfig(3, tiny, 0.002)
		cfg.DiurnalAmplitude = diurnal
		g, err := NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, want := g.Jobs(), jobsOracle(g)
		if len(got) != len(want) {
			t.Fatalf("%d jobs, oracle %d", len(got), len(want))
		}
		bucketOf := map[int]int{} // GPU count -> bucket index; buckets share none
		for bi, b := range cfg.Buckets {
			for _, n := range b.GPUChoices {
				bucketOf[n] = bi
			}
		}
		ties := 0
		for i := range got {
			if !got[i].Submit.Equal(want[i].Submit) || got[i].Name != want[i].Name {
				t.Fatalf("diurnal %g: job %d = (%v, %s), oracle (%v, %s)", diurnal, i,
					got[i].Submit, got[i].Name, want[i].Submit, want[i].Name)
			}
			if i > 0 && got[i].Submit.Equal(got[i-1].Submit) && got[i].Name == got[i-1].Name {
				ties++
				if bucketOf[got[i].GPUs] < bucketOf[got[i-1].GPUs] {
					t.Fatalf("diurnal %g: full tie at job %d out of bucket order", diurnal, i)
				}
			}
		}
		if ties < len(got)/2 {
			t.Fatalf("diurnal %g: only %d full ties in %d jobs", diurnal, ties, len(got))
		}
	}
}
