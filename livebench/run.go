package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"vnetp"
)

// workload is one traffic mix. The reasons for each are in README.md.
type workload struct {
	name    string
	size    int    // payload bytes per frame
	window  int    // closed-loop frames in flight (streams)
	flows   int    // distinct guest source MACs behind node A
	tenant  uint32 // 0, or a sealed tenant
	churn   bool   // control-language route writes beside the stream
	noisy   bool   // victim ping-pong plus an open-loop aggressor tenant
	aggRate int    // aggressor frames per second (noisy_neighbor)
}

// The windows stay below the 256-frame endpoint ring, so the streams
// drop nothing by design; jumbo_sealed's is smaller because each of its
// frames is about six datagrams.
var workloads = []*workload{
	{name: "small_stream", size: 64, window: 32, flows: 1},
	{name: "jumbo_sealed", size: 8000, window: 8, flows: 1, tenant: sealedTenant},
	{name: "flow_churn", size: 64, window: 32, flows: 4096, churn: true},
	{name: "noisy_neighbor", size: 64, flows: 1, noisy: true, aggRate: 40000},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

const (
	setups     = 101                    // set-ups per run; setup_s is their median
	idleWrites = 64                     // route writes timed on idle nodes after set-up
	warmup     = time.Second            // caches fill and lazy set-up finishes
	windowLen  = 500 * time.Millisecond // rates and percentiles are medians over windows
	traceEvery = 64                     // TRACE START SAMPLE n in the traced phase
)

// sample is one snapshot of the counters a window differences.
type sample struct {
	t       time.Time
	entered uint64
	done    uint64
	cpuNs   int64
	allocs  uint64
	gc      uint64
	gcCPU   float64
	allCPU  float64
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func snap(m *meter, rt []metrics.Sample) sample {
	metrics.Read(rt)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return sample{
		t:       time.Now(),
		entered: m.entered.Load(),
		done:    m.done.Load(),
		cpuNs:   ru.Utime.Nano() + ru.Stime.Nano(),
		allocs:  rt[0].Value.Uint64() + rt[1].Value.Uint64(),
		gc:      rt[2].Value.Uint64(),
		gcCPU:   rt[3].Value.Float64(),
		allCPU:  rt[4].Value.Float64(),
	}
}

// phase is the per-window figures of one stretch of measurement.
type phase struct {
	fps, cpuPerFrame, allocsPerFrame, enteredPerS []float64
	first, last                                   sample
	windows                                       []int // indexes into meter.lat
}

func (p *phase) add(idx int, a, b sample) {
	if len(p.windows) == 0 {
		p.first = a
	}
	p.last = b
	p.windows = append(p.windows, idx)
	dt := b.t.Sub(a.t).Seconds()
	ent := float64(b.entered - a.entered)
	p.fps = append(p.fps, float64(b.done-a.done)/dt)

	p.enteredPerS = append(p.enteredPerS, ent/dt)
	if ent > 0 {
		p.cpuPerFrame = append(p.cpuPerFrame, float64(b.cpuNs-a.cpuNs)/1e3/ent)
		p.allocsPerFrame = append(p.allocsPerFrame, float64(b.allocs-a.allocs)/ent)
	}
}

// latQuantile is the median over the phase's windows of each window's
// q-quantile in µs, with the total sample count. Windows whose sample
// count does not support q are skipped; NaN when none does.
func (p *phase) latQuantile(m *meter, q float64) (float64, uint64) {
	var vals []float64
	var n uint64
	for _, i := range p.windows {
		h := &m.lat[i]
		n += h.n
		if h.n > 0 && (q <= 0.5 || supported(h.n, q)) {
			vals = append(vals, h.quantile(q)/1e3)
		}
	}
	return median(vals), n
}

// run is one workload run: set-ups, warm-up, measured windows (the
// second half traced when traced is set), checks, and for a traced run
// the per-layer replays and the native reference.
type run struct {
	w      *workload
	in     *inputs
	traced bool
	secs   int

	setupS   []float64
	applyNs  []float64
	ctlIdle  hist
	e        *env
	m        *meter
	st       *stream
	vic      *victim
	agg      *aggressor
	ch       *churner
	plain    phase // untraced windows
	tr       phase // traced windows
	aggDrain uint64
	failures []string
	paths    map[string][]float64 // trace hop deltas per stage, µs
}

func (r *run) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func newRun(w *workload, seed int64, secs int, traced bool) *run {
	return &run{w: w, in: newInputs(seed, w.size, w.flows), traced: traced, secs: secs}
}

func (r *run) setup() error {
	for i := 0; i < setups; i++ {
		// Untimed: let the previous pair's teardown finish and collect
		// its garbage, so each set-up starts the way a fresh process's
		// does. Without this, half of the time measured was the previous
		// set-up's cleanup, and it varied with the GC's phase.
		time.Sleep(2 * time.Millisecond)
		runtime.GC()
		t0 := time.Now()
		e, err := setup(r.w, r.in)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
		r.applyNs = append(r.applyNs, e.applyNs...)
		if i < setups-1 {
			e.close()
			continue
		}
		r.e = e
	}
	if r.w.churn {
		return nil
	}
	add, del := churnLines(r.w, r.in)
	for i := 0; i < idleWrites; i++ {
		d, err := routeWrite(r.e.a, add, del)
		if err != nil {
			return err
		}
		r.ctlIdle.record(d)
	}
	return nil
}

// windows is how many measured windows a run has.
func (r *run) windows() int {
	n := int(time.Duration(r.secs) * time.Second / windowLen)
	if n < 2 {
		n = 2
	}
	return n
}

func (r *run) measure() error {
	nwin := r.windows()
	m := newMeter(nwin)
	r.m = m
	var wg sync.WaitGroup
	start := func(f func()) {
		wg.Add(1)
		go func() { defer wg.Done(); f() }()
	}
	if r.w.noisy {
		r.vic = &victim{m: m, in: r.in, epA: r.e.epA, epB: r.e.epB}
		r.agg = &aggressor{m: m, in: r.in, ep: r.e.aggA, rate: r.w.aggRate}
		start(r.vic.run)
		start(r.agg.run)
	} else {
		r.st = newStream(m, r.in, r.e.epA, r.e.epB, r.w.window)
		if r.w.churn {
			add, del := churnLines(r.w, r.in)
			r.ch = &churner{m: m, n: r.e.a, add: add, del: del, rng: r.in.rng}
			r.st.churn = r.ch
		}
		senderDone := make(chan struct{})
		start(func() { defer close(senderDone); r.st.sender() })
		start(func() { r.st.receiver(senderDone) })
	}
	time.Sleep(warmup)

	rt := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		rt[i].Name = n
	}
	plainWins := nwin
	if r.traced {
		plainWins = nwin / 2
	}
	for i := 1; i <= nwin; i++ {
		p := &r.plain
		if i > plainWins {
			p = &r.tr
			if i == plainWins+1 {
				if err := r.traceCmd("TRACE START SAMPLE " + fmt.Sprint(traceEvery)); err != nil {
					close(m.quit)
					wg.Wait()
					return err
				}
				m.traced.Store(true)
			}
		}
		m.win.Store(int32(i))
		a := snap(m, rt)
		time.Sleep(windowLen)
		p.add(i, a, snap(m, rt))
	}
	close(m.quit)
	wg.Wait()
	if r.traced {
		r.paths = collectPaths(r.e.a, r.e.b)
		if err := r.traceCmd("TRACE STOP"); err != nil {
			return err
		}
	}
	if r.ch != nil && r.ch.err != nil {
		return r.ch.err
	}
	if r.w.noisy {
		// Let the last aggressor datagrams clear node B's dispatchers
		// before the ring is drained and the counters are compared.
		time.Sleep(300 * time.Millisecond)
		r.vic.drain()
		for {
			f, ok := r.e.aggB.TryRecv()
			if !ok {
				break
			}
			if _, _, tag, ok := r.in.check(f.Payload); !ok || tag != tagAggressor {
				r.fail("aggressor endpoint received a frame that is not the aggressor's")
			}
			r.aggDrain++
		}
	}
	return nil
}

// traceCmd arms or stops the live tracer on both nodes through the
// control language.
func (r *run) traceCmd(line string) error {
	for _, n := range []*vnetp.Node{r.e.a, r.e.b} {
		if err := applyLine(n, line); err != nil {
			return err
		}
	}
	return nil
}

// attempted and failed count the workload's own operations: stream
// frames, or noisy_neighbor's victim round trips, which fail only when
// every resend of a leg timed out. The aggressor's losses are the
// designed load.
func (r *run) attempted() (att, failed uint64) {
	if r.vic != nil {
		return r.vic.attempted, r.vic.attempted - r.vic.echoes
	}
	att = r.st.sent.Load() + r.m.sendErrs.Load()
	return att, att - r.st.recvd.Load()
}

// loss is the workload's own frames not delivered or refused by Send,
// and the frames handed to Send (noisy_neighbor: victim frames, resends
// included).
func (r *run) loss() (lost, sent uint64) {
	if r.vic != nil {
		return r.vic.lostFrames(), r.vic.sends
	}
	att, failed := r.attempted()
	return failed, att
}

// endToEnd computes the end-to-end metrics over the untraced windows.
func (r *run) endToEnd() ([]metricValue, error) {
	p := &r.plain
	fps := median(p.fps)
	p50, n := p.latQuantile(r.m, 0.5)
	p99, _ := p.latQuantile(r.m, 0.99)
	p99note := fmt.Sprintf("n=%d", n)
	if math.IsNaN(p99) {
		p99, p99note = 0, fmt.Sprintf("n=%d: no window has ten samples beyond its p99", n)
	}
	lost, sent := r.loss()
	ctl := r.ctlIdle.quantile(0.5) / 1e3
	ctlN := r.ctlIdle.n
	if r.w.churn {
		ctl, ctlN = r.m.ctl.quantile(0.5)/1e3, r.m.ctl.n
	}
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	out := []metricValue{
		{"setup_s", median(r.setupS), "s", fmt.Sprintf("median of %d set-ups", len(r.setupS))},
		{"frames_per_s", fps, "frames/s", ""},
		{"goodput_MBps", fps * float64(r.w.size) / 1e6, "MB/s", ""},
		{"lat_p50_us", p50, "us", fmt.Sprintf("n=%d", n)},
		{"lat_p99_us", p99, "us", p99note},
		{"cpu_us_per_frame", median(p.cpuPerFrame), "us", ""},
		{"allocs_per_frame", median(p.allocsPerFrame), "allocs", ""},
		{"loss_pct", 100 * float64(lost) / float64(sent), "%", fmt.Sprintf("%d of %d", lost, sent)},
		{"ctl_p50_us", ctl, "us", fmt.Sprintf("n=%d", ctlN)},
		{"rss_peak_MB", float64(ru.Maxrss) / 1024, "MB", ""},
	}
	for _, v := range out {
		if math.IsNaN(v.value) || math.IsInf(v.value, 0) {
			return out, fmt.Errorf("metric %s has no value", v.name)
		}
	}
	return out, nil
}

type metricValue struct {
	name  string
	value float64
	unit  string
	note  string
}
