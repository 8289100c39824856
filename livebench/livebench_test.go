package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
)

func TestBucketBoundsContainValue(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 129, 255, 256, 1000, 12345, 1 << 20, 987654321, 1 << 39} {
		lo, hi := bucketBounds(bucketOf(v))
		if float64(v) < lo || float64(v) >= hi {
			t.Errorf("value %d outside its bucket [%v, %v)", v, lo, hi)
		}
		if v >= subBuckets && (hi-lo)/lo > 1.0/subBuckets+1e-12 {
			t.Errorf("bucket of %d is %.4f wide, relative", v, (hi-lo)/lo)
		}
	}
	if b := bucketOf(math.MaxUint64); b != nBuckets-1 {
		t.Errorf("huge value lands in bucket %d, want the last (%d)", b, nBuckets-1)
	}
}

func TestQuantileMatchesExact(t *testing.T) {
	var h hist
	var vals []float64
	for i := 1; i <= 100000; i++ {
		v := int64(i*7919%100000 + 1000) // a permutation of 1000..100999
		h.record(v)
		vals = append(vals, float64(v))
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := vals[int(q*float64(len(vals)))-1]
		got := h.quantile(q)
		if math.Abs(got-exact)/exact > 0.01 {
			t.Errorf("q%.3f = %.1f, exact %.1f", q, got, exact)
		}
	}
	var empty hist
	if !math.IsNaN(empty.quantile(0.5)) {
		t.Error("empty histogram has a median")
	}
}

func TestQuantileInterpolatesInsideBucket(t *testing.T) {
	// Two samples in one bucket: the median sits inside the bucket, not
	// on its edge, so equal runs do not all read the same bucket bound.
	var h hist
	h.record(100000)
	h.record(100100)
	lo, hi := bucketBounds(bucketOf(100000))
	if got := h.quantile(0.5); got <= lo || got >= hi {
		t.Errorf("median %v not strictly inside [%v, %v)", got, lo, hi)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    uint64
		q    float64
		want bool
	}{
		{1000, 0.99, true}, {999, 0.99, false},
		{10000, 0.999, true}, {9999, 0.999, false},
		{100, 0.9, true}, {99, 0.9, false},
		{20, 0.5, true},
	}
	for _, c := range cases {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestWindowP99SkipsUnsupportedWindows(t *testing.T) {
	m := newMeter(2)
	for i := 0; i < 2000; i++ { // window 1: p99 supported, values 1..2000 µs
		m.lat[1].record(int64(i+1) * 1000)
	}
	for i := 0; i < 500; i++ { // window 2: too few samples for a p99
		m.lat[2].record(1e9)
	}
	p := phase{windows: []int{1, 2}}
	got, n := p.latQuantile(m, 0.99)
	if n != 2500 {
		t.Errorf("sample count %d, want 2500", n)
	}
	if got < 1950 || got > 2000 {
		t.Errorf("p99 %.1f µs: the unsupported window leaked in", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %v", got)
	}
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("even median %v", got)
	}
	if xs[0] != 4 {
		t.Error("median reordered its input")
	}
}

func TestInputsDeterministicPerSeed(t *testing.T) {
	a, b := newInputs(42, 64, 4096), newInputs(42, 64, 4096)
	if !bytes.Equal(a.pattern, b.pattern) || !bytes.Equal(a.key, b.key) ||
		a.macA != b.macA || a.macB != b.macB || a.churn != b.churn {
		t.Fatal("same seed gave different payload, key or MACs")
	}
	for i := range a.flows {
		if a.flows[i] != b.flows[i] {
			t.Fatalf("flow %d differs under the same seed", i)
		}
	}
	for i := 0; i < 100; i++ {
		if a.rng.Int63() != b.rng.Int63() {
			t.Fatal("churn jitter differs under the same seed")
		}
	}
	c := newInputs(43, 64, 4096)
	if bytes.Equal(a.pattern, c.pattern) || a.macA == c.macA || a.flows[0] == c.flows[0] {
		t.Error("a different seed gave the same inputs")
	}
	seen := map[[6]byte]bool{a.macA: true, a.macB: true, a.churn: true}
	for _, f := range a.flows {
		if seen[f] {
			t.Fatalf("MAC %v assigned twice", f)
		}
		seen[f] = true
	}
}

func TestStampCheck(t *testing.T) {
	in := newInputs(7, 64, 1)
	f := in.newFrame(in.macA, in.macB)
	in.stamp(f.Payload, 99, 3, tagStream)
	seq, slot, tag, ok := in.check(f.Payload)
	if !ok || seq != 99 || slot != 3 || tag != tagStream {
		t.Fatalf("check = %d %d %d %v", seq, slot, tag, ok)
	}
	for _, i := range []int{0, 12, 20, hdrLen, len(f.Payload) - 1} {
		p := append([]byte(nil), f.Payload...)
		p[i] ^= 1
		if _, _, _, ok := in.check(p); ok {
			t.Errorf("flipped byte %d passed the check", i)
		}
	}
	if _, _, _, ok := in.check(f.Payload[:63]); ok {
		t.Error("truncated payload passed the check")
	}
}

type benchSpec struct {
	EndToEnd []struct{ Name string } `json:"end_to_end"`
	PerLayer []struct{ Name string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpecMatchesEndToEndNames(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, m := range s.EndToEnd {
		names = append(names, m.Name)
	}
	if len(names) != len(e2eNames) {
		t.Fatalf("BENCHMARK.json end_to_end %v, program %v", names, e2eNames)
	}
	for i := range names {
		if names[i] != e2eNames[i] {
			t.Fatalf("BENCHMARK.json end_to_end %v, program %v", names, e2eNames)
		}
	}
}

// TestSmoke runs every workload briefly, traced, and checks that the
// correctness checks pass and that every metric BENCHMARK.json names is
// emitted: the end-to-end ones among the printed values, the per-layer
// ones exactly as the traced JSON line's metrics.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("live overlay runs")
	}
	s := loadSpec(t)
	for _, w := range workloads {
		w := *w
		// The race detector multiplies the memory each dropped aggressor
		// frame costs; a lower rate still fills the ring and drops.
		if w.noisy {
			w.aggRate = 5000
		}
		t.Run(w.name, func(t *testing.T) {
			res, vals, err := execute(&w, 3, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatal("correctness checks failed")
			}
			if res.Attempted == 0 {
				t.Fatal("no frames attempted")
			}
			printed := map[string]bool{}
			for _, v := range vals {
				printed[v.name] = true
			}
			for _, m := range s.EndToEnd {
				if !printed[m.Name] {
					t.Errorf("end-to-end metric %s not printed", m.Name)
				}
			}
			if len(res.Metrics) != len(s.PerLayer) {
				t.Errorf("traced JSON has %d metrics, BENCHMARK.json lists %d per-layer", len(res.Metrics), len(s.PerLayer))
			}
			for _, m := range s.PerLayer {
				if _, ok := res.Metrics[m.Name]; !ok {
					t.Errorf("per-layer metric %s missing from the traced JSON", m.Name)
				}
			}
		})
	}
}
