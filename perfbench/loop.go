package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"thedb/internal/storage"
)

// request is one generated call.
type request struct {
	proc     string
	args     []storage.Value
	readOnly bool // SmallBank Balance: sent with client.CallSnapshot
}

// callFn performs one call on behalf of client c and returns its error.
type callFn func(c int, r request) error

// clientStats is one closed-loop client's record of a run.
type clientStats struct {
	generated int64 // requests drawn, including one cut off by the stop

	attempted, commits int64
	aborts             map[string]int64 // user aborts by reason
	failures           map[string]int64 // failures by error text

	samples []uint32 // committed-call latency in ns, in completion order
	marks   []int    // index into samples where each window begins
	perWin  []int64  // commits per window
}

// loop drives closed-loop clients: each issues its next call only
// when the previous one has returned. The sample buffers are sized up
// front so that recording a latency does not allocate inside the
// measured window.
type loop struct {
	clients []*clientStats
	// stretch is how many times its nominal length a measured run may
	// last while it waits for undisturbed windows (see run).
	stretch int
}

// newLoop sizes the sample buffers for rate commits per second per
// client over measured runs of up to dur, stretched.
func newLoop(clients, rate int, dur time.Duration, stretch int) *loop {
	l := &loop{stretch: stretch}
	sampleCap := rate*int(dur/time.Second+1)*stretch + 1024
	for i := 0; i < clients; i++ {
		l.clients = append(l.clients, &clientStats{samples: make([]uint32, 0, sampleCap)})
	}
	return l
}

// window is one time slice of a run.
type window struct {
	dur     time.Duration
	steal   float64 // share of host CPU the hypervisor gave other guests
	commits int64
	latUS   []float64
}

// timeline is when a run's windows closed and how much host CPU was
// stolen in each.
type timeline struct {
	start time.Time
	ends  []time.Time
	steal []float64
}

// wall is the measured time of the run.
func (t timeline) wall() time.Duration { return t.ends[len(t.ends)-1].Sub(t.start) }

// run drives one generator per client in windows of length win until
// want windows have closed in which the hypervisor stole at most
// stolenLimit of the host CPU, or most windows have closed. A call is
// counted in the window in which it completes; the call in flight when
// the last window closes is dropped. Nothing is allocated after the
// clients start except map entries for new abort reasons or failures,
// so callers can count allocations around run.
func (l *loop) run(gens []func() request, do callFn, win time.Duration, want, most int) timeline {
	var cur, end atomic.Int32 // current window; window count once the run ends
	var wg sync.WaitGroup
	tl := timeline{ends: make([]time.Time, 0, most), steal: make([]float64, 0, most)}
	for c, st := range l.clients {
		marks := make([]int, 1, most+1)
		*st = clientStats{
			samples:  st.samples[:0],
			marks:    marks,
			perWin:   make([]int64, most),
			aborts:   map[string]int64{},
			failures: map[string]int64{},
		}
		wg.Add(1)
		go func(c int, st *clientStats, gen func() request) {
			defer wg.Done()
			w := int32(0)
			for {
				r := gen()
				st.generated++
				t0 := time.Now()
				err := do(c, r)
				d := time.Since(t0)
				if now := cur.Load(); now != w {
					for ; w < now; w++ {
						st.marks = append(st.marks, len(st.samples))
					}
					if e := end.Load(); e > 0 && w >= e {
						return
					}
				}
				st.attempted++
				switch o, why := classify(err); o {
				case committed:
					st.commits++
					st.perWin[w]++
					st.samples = append(st.samples, uint32(min(d, time.Duration(^uint32(0)))))
				case userAbort:
					st.aborts[why]++
				default:
					st.failures[why]++
				}
			}
		}(c, st, gens[c])
	}
	tl.start = time.Now()
	ticks, stolen := hostTicks()
	for k, quiet := 1, 0; ; k++ {
		time.Sleep(time.Until(tl.start.Add(win * time.Duration(k))))
		tl.ends = append(tl.ends, time.Now())
		t, s := hostTicks()
		steal := ratio(s-stolen, t-ticks)
		tl.steal = append(tl.steal, steal)
		ticks, stolen = t, s
		if steal <= stolenLimit {
			quiet++
		}
		if quiet >= want || k >= most {
			end.Store(int32(k)) // before cur, so a client that sees window k sees the end
			cur.Store(int32(k))
			break
		}
		cur.Store(int32(k))
	}
	wg.Wait()
	return tl
}

// windows splits the last run's record along its timeline.
func (l *loop) windows(tl timeline) []window {
	out := make([]window, len(tl.ends))
	prev := tl.start
	for k := range out {
		out[k].dur = tl.ends[k].Sub(prev)
		out[k].steal = tl.steal[k]
		prev = tl.ends[k]
		for _, st := range l.clients {
			out[k].commits += st.perWin[k]
			for _, ns := range st.samples[st.marks[k]:st.marks[k+1]] {
				out[k].latUS = append(out[k].latUS, float64(ns)/1e3)
			}
		}
	}
	return out
}

// record is what one measured run leaves for the metrics.
type record struct {
	sum                summary
	attempted, commits int64
	aborts, failures   map[string]int64 // by cause
	warmGen, windowGen []int64          // requests each client drew while warming up, and while measured
	wall               time.Duration
}

// warmup is the unmeasured run before each measured one: long enough
// for the engine's sample buffers and version chains to reach steady
// state.
func warmup(dur time.Duration) time.Duration {
	return min(max(dur/5, time.Second), 5*time.Second)
}

// measure warms up, then runs the loop for dur in windows of about
// three seconds, extended up to l.stretch times dur until as many
// windows as dur holds were undisturbed. mark is called right before
// the measured run, and the function it returns right after, so
// callers snapshot their counters around exactly the measured stretch.
func (l *loop) measure(gens []func() request, do callFn, dur time.Duration, mark func() (func() error, error)) (*record, error) {
	r := &record{}
	l.run(gens, do, warmup(dur), 1, 1)
	for _, st := range l.clients {
		r.warmGen = append(r.warmGen, st.generated)
	}
	after, err := mark()
	if err != nil {
		return nil, err
	}
	n := windowsFor(dur)
	tl := l.run(gens, do, dur/time.Duration(n), n, n*l.stretch)
	if err := after(); err != nil {
		return nil, err
	}
	r.wall = tl.wall()
	r.aborts, r.failures = map[string]int64{}, map[string]int64{}
	for _, st := range l.clients {
		r.windowGen = append(r.windowGen, st.generated)
		r.attempted += st.attempted
		r.commits += st.commits
		for k, v := range st.aborts {
			r.aborts[k] += v
		}
		for k, v := range st.failures {
			r.failures[k] += v
		}
	}
	r.sum = summarize(l.windows(tl))
	return r, nil
}

// report fills the result's call counts and outcome shares and logs
// the run's outcomes by cause.
func (r *record) report(res *result) {
	res.attempted, res.failed = r.attempted, 0
	for _, n := range r.failures {
		res.failed += n
	}
	var aborted int64
	for _, n := range r.aborts {
		aborted += n
	}
	res.vals["user_abort_ratio"] = ratio(float64(aborted), float64(r.attempted))
	res.vals["failed_ratio"] = ratio(float64(res.failed), float64(r.attempted))
	res.vals["latency_samples"] = float64(r.sum.samples)
	res.vals["latency_p99_us"] = r.sum.p99
	s := r.sum
	fmt.Printf("calls attempted=%d committed=%d wall=%.3fs latency_samples=%d\n",
		r.attempted, r.commits, r.wall.Seconds(), s.samples)
	fmt.Printf("windows throughput_tps %.0f\n", s.winTPS)
	fmt.Printf("windows host_cpu_stolen_pct %.1f (%d of %d windows pooled)\n", s.winSteal, s.quiet, len(s.winSteal))
	for why, n := range r.aborts {
		fmt.Printf("user abort %q: %d\n", why, n)
	}
	for why, n := range r.failures {
		fmt.Printf("failure %q: %d\n", why, n)
	}
}

// replay replays the run's request streams through fresh generators
// of the same seed: it draws the warm-up's requests, then times and
// counts the allocations of the measured run's, so the generator's
// share can be taken off the measured figures.
func (r *record) replay(gen func(int64, int) func() request, seed int64) (allocs uint64, dur time.Duration) {
	for c := range r.windowGen {
		g := gen(seed, c)
		for i := int64(0); i < r.warmGen[c]; i++ {
			g()
		}
		ms0 := memStats()
		t0 := time.Now()
		for i := int64(0); i < r.windowGen[c]; i++ {
			g()
		}
		dur += time.Since(t0)
		ms1 := memStats()
		allocs += ms1.Mallocs - ms0.Mallocs
	}
	return allocs, dur
}

// drawn is how many requests the measured run drew.
func (r *record) drawn() int64 {
	var n int64
	for _, v := range r.windowGen {
		n += v
	}
	return n
}

// summary is what the end-to-end metrics of one measured run rest on.
type summary struct {
	tps, p50, p95, p99 float64 // over the quiet windows
	samples            int     // committed-call latencies behind the percentiles
	quiet              int     // windows the figures are taken over
	winTPS             []float64
	winSteal           []float64
}

// stolenLimit is the share of host CPU the hypervisor may steal in a
// window before the window counts as disturbed. Undisturbed seconds on
// the host this was sized on read 0 to 2%; seconds that other guests
// crowd out read 10 to 40%.
const stolenLimit = 0.05

// summarize pools the run's quiet windows: those in which the
// hypervisor stole at most stolenLimit of the host CPU from this guest,
// or, in a run disturbed throughout, no more than in its median
// window. In an undisturbed run every window is quiet and the figures
// are the whole run's, so the program's own periodic work (GC cycles,
// checkpoints) weighs in fully; a run on a crowded host is measured
// over the stretches in which it had the CPUs it asked for.
func summarize(ws []window) summary {
	var s summary
	steals := make([]float64, len(ws))
	for i, w := range ws {
		steals[i] = w.steal
		s.winTPS = append(s.winTPS, float64(w.commits)/w.dur.Seconds())
		s.winSteal = append(s.winSteal, 100*w.steal)
	}
	limit := max(stolenLimit, median(steals))
	var lat []float64
	var commits int64
	var dur time.Duration
	for _, w := range ws {
		if w.steal > limit {
			continue
		}
		s.quiet++
		lat = append(lat, w.latUS...)
		commits += w.commits
		dur += w.dur
	}
	s.tps = float64(commits) / dur.Seconds()
	s.p50, s.samples = percentile(lat, 50)
	s.p95, _ = percentile(lat, 95)
	s.p99, _ = percentile(lat, 99)
	return s
}
