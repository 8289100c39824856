// Command livebench is the repository's end-to-end benchmark: two overlay
// nodes in one process over the loopback interface, driven through the
// public API with one of four traffic mixes. It prints every metric by
// name and unit, checks that what was delivered is correct, and ends
// with one JSON line. See README.md for the workloads and metrics.
//
//	go build -o livebench . && ./livebench --workload small_stream --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// e2eNames are the end-to-end metrics the JSON line carries with
// --trace 0, in BENCHMARK.json's order. They are the figures that stay
// steady when the host steals CPU from the machine: CPU time and
// allocations per frame, and the set-up time every later change is
// held to.
var e2eNames = []string{"setup_s", "cpu_us_per_frame", "allocs_per_frame"}

// e2eInLayers are the other end-to-end figures. Every run prints them;
// the traced JSON line carries them beside the per-layer metrics, without
// a bound: wall-clock rates and latencies move with the CPU time the host
// steals (README.md), and loss is zero on most runs.
var e2eInLayers = []string{
	"frames_per_s", "goodput_MBps", "lat_p50_us", "lat_p99_us",
	"loss_pct", "ctl_p50_us", "rss_peak_MB",
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	wname := flag.String("workload", "", "small_stream, jumbo_sealed, flow_churn or noisy_neighbor")
	seed := flag.Int64("seed", 1, "workload seed")
	secs := flag.Int("seconds", 10, "measured seconds")
	traceF := flag.Int("trace", 0, "1 for the traced run with per-layer metrics")
	commit := flag.String("commit", "unknown", "commit of the code under test (run metadata)")
	src := flag.String("src", "unknown", "hash of the source tree under test (run metadata)")
	flag.Parse()
	w := workloadByName(*wname)
	if w == nil || *secs < 1 || (*traceF != 0 && *traceF != 1) {
		fmt.Fprintf(os.Stderr, "livebench: bad arguments (workload %q, seconds %d, trace %d)\n", *wname, *secs, *traceF)
		os.Exit(2)
	}
	budget := 2*time.Duration(*secs)*time.Second + 60*time.Second
	time.AfterFunc(budget, func() {
		fmt.Fprintf(os.Stderr, "livebench: run exceeded %v\n", budget)
		os.Exit(3)
	})
	fmt.Printf("# run workload=%s seed=%d seconds=%d trace=%d go=%s gomaxprocs=%d nproc=%d commit=%s src=%s loopback=127.0.0.1\n",
		w.name, *seed, *secs, *traceF, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), *commit, *src)
	res, _, err := execute(w, *seed, *secs, *traceF == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "livebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "livebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// execute runs one workload and returns the JSON result and every value
// it printed.
func execute(w *workload, seed int64, secs int, traced bool) (*result, []metricValue, error) {
	r := newRun(w, seed, secs, traced)
	if err := r.setup(); err != nil {
		return nil, nil, err
	}
	defer r.e.close()
	if err := r.measure(); err != nil {
		return nil, nil, err
	}
	r.check()
	vals, err := r.endToEnd()
	if err != nil {
		return nil, nil, err
	}
	e2e := map[string]float64{}
	for _, v := range vals {
		e2e[v.name] = v.value
	}
	want := e2eNames
	if traced {
		lr, err := r.replayLayers()
		if err != nil {
			return nil, nil, err
		}
		window := w.window
		if window == 0 {
			window = 1
		}
		nat, err := runNative(lr.datagrams, window, 2*time.Second)
		if err != nil {
			return nil, nil, err
		}
		layers := r.perLayer(lr, nat, e2e)
		vals = append(vals, layers...)
		want = append([]string(nil), e2eInLayers...)
		for _, v := range layers {
			want = append(want, v.name)
		}
		fmt.Printf("consistency: replayed layers sum to %.0f ns per frame against %.2f us of CPU per frame (%.1f%% covered)\n",
			valueOf(layers, "consistency.layer_ns_sum"), e2e["cpu_us_per_frame"], valueOf(layers, "consistency.coverage_pct"))
	}
	for _, v := range vals {
		note := ""
		if v.note != "" {
			note = "  (" + v.note + ")"
		}
		fmt.Printf("%-34s %14.4f %s%s\n", v.name, v.value, v.unit, note)
	}
	att, failed := r.attempted()
	res := &result{Correct: len(r.failures) == 0, Attempted: att, Failed: failed, Metrics: map[string]jsonMetric{}}
	for _, name := range want {
		for _, v := range vals {
			if v.name == name {
				res.Metrics[name] = jsonMetric{v.value, v.unit}
			}
		}
	}
	if len(r.failures) == 0 {
		fmt.Println("check ok: payloads, duplicates, tenancy, loss, node counters, drop ledger, seal rejects, restarts")
	} else {
		fmt.Println("check FAILED: " + strings.Join(r.failures, "; "))
	}
	return res, vals, nil
}

// valueOf looks a value up by name.
func valueOf(vals []metricValue, name string) float64 {
	for _, v := range vals {
		if v.name == name {
			return v.value
		}
	}
	return 0
}
