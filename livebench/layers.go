package main

import (
	"errors"
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"vnetp"
	"vnetp/internal/bridge"
	"vnetp/internal/core"
	"vnetp/internal/ethernet"
	"vnetp/internal/seal"
	"vnetp/internal/telemetry"
	"vnetp/internal/trace"
)

// datagramBudget is the overlay's UDP payload budget per datagram (the
// node's maxDatagram), so replayed encapsulation fragments as a node does.
const datagramBudget = 1400

// sinkFrame keeps replayed results live, so the compiler cannot drop
// the call or keep its result on the stack.
var sinkFrame *ethernet.Frame

// replayOps is how many operations one replay pass times; each replay
// reports the median of replayPasses passes.
const (
	replayOps    = 2048
	replayPasses = 5
)

// traceStages are the hops whose deltas the traced run reports.
var traceStages = []string{
	trace.StageRouteLookup, trace.StageEncap, trace.StageWireTx,
	trace.StageRxDispatch, trace.StageReassembly, trace.StageDeliver,
}

// statMap parses a node's LIST STATS lines ("name value").
func statMap(n *vnetp.Node) map[string]uint64 {
	out := map[string]uint64{}
	for _, l := range n.Stats() {
		f := strings.Fields(l)
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseUint(f[1], 10, 64); err == nil {
			out[f[0]] = v
		}
	}
	return out
}

// family finds a metric family in a node's registry snapshot.
func family(n *vnetp.Node, name string) *telemetry.FamilySnapshot {
	for _, f := range n.Telemetry().Gather() {
		if f.Name == name {
			f := f
			return &f
		}
	}
	return nil
}

func familySum(nodes []*vnetp.Node, name string) float64 {
	var s float64
	for _, n := range nodes {
		if f := family(n, name); f != nil {
			for _, smp := range f.Samples {
				s += smp.Value
			}
		}
	}
	return s
}

// histSnap merges one histogram family's children across nodes.
func histSnap(nodes []*vnetp.Node, name string) *telemetry.HistSnapshot {
	var out *telemetry.HistSnapshot
	for _, n := range nodes {
		f := family(n, name)
		if f == nil {
			continue
		}
		for _, smp := range f.Samples {
			h := smp.Hist
			if h == nil {
				continue
			}
			if out == nil {
				out = &telemetry.HistSnapshot{Bounds: h.Bounds, Cumulative: make([]uint64, len(h.Cumulative))}
			}
			for i, c := range h.Cumulative {
				out.Cumulative[i] += c
			}
			out.Count += h.Count
			out.Sum += h.Sum
		}
	}
	return out
}

// snapQuantile interpolates a quantile inside a registry histogram's
// buckets; 0 when the histogram is empty.
func snapQuantile(h *telemetry.HistSnapshot, q float64) float64 {
	if h == nil || h.Count == 0 {
		return 0
	}
	target := q * float64(h.Count)
	prevCum, prevBound := 0.0, 0.0
	for i, b := range h.Bounds {
		c := float64(h.Cumulative[i])
		if c >= target && c > prevCum {
			return prevBound + (b-prevBound)*(target-prevCum)/(c-prevCum)
		}
		prevCum, prevBound = c, b
	}
	return prevBound
}

func ratio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// collectPaths turns both nodes' trace paths into per-stage hop deltas
// (µs). Both nodes share this process's clock, so a frame's sender and
// receiver paths merge into one timeline; each hop's delta is measured
// from the hop before it on that timeline (rx_dispatch from the
// sender's wire_tx). route_lookup occurs on both nodes and gets a sample
// from each.
func collectPaths(nodes ...*vnetp.Node) map[string][]float64 {
	type hop struct {
		stage string
		at    time.Time
	}
	byID := map[uint64][]hop{}
	for _, n := range nodes {
		for _, p := range n.Tracer().Traces() {
			for _, h := range p.Hops {
				byID[p.Tag] = append(byID[p.Tag], hop{h.Stage, p.Start.Add(h.At)})
			}
		}
	}
	out := map[string][]float64{}
	for _, hops := range byID {
		sort.SliceStable(hops, func(i, j int) bool { return hops[i].at.Before(hops[j].at) })
		for i := 1; i < len(hops); i++ {
			out[hops[i].stage] = append(out[hops[i].stage], float64(hops[i].at.Sub(hops[i-1].at))/1e3)
		}
	}
	return out
}

var allocMetric = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}

func allocCount() uint64 {
	metrics.Read(allocMetric)
	return allocMetric[0].Value.Uint64() + allocMetric[1].Value.Uint64()
}

// replay times op over n calls per pass, after prep readies a pass; it
// returns the median ns/op and allocs/op over the passes.
func replay(n int, prep func(), op func(i int)) (ns, allocs float64) {
	var nss, als []float64
	for p := 0; p < replayPasses; p++ {
		if prep != nil {
			prep()
		}
		a0 := allocCount()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op(i)
		}
		dt := time.Since(t0)
		nss = append(nss, float64(dt)/float64(n))
		als = append(als, float64(allocCount()-a0)/float64(n))
	}
	return median(nss), median(als)
}

// layerReplay is the per-layer replay of a workload's own frames through
// each layer's public functions, outside the nodes.
type layerReplay struct {
	lookupHit, lookupMiss, flowAcquire float64
	encap, encapAllocs                 float64
	parse, parseAllocs                 float64
	reasm, reasmAllocs                 float64
	unmarshal, unmarshalAllocs         float64
	sealNs, openNs                     float64
	dropNs                             float64
	datagrams                          []int // wire sizes of one frame's datagrams
	sealed                             bool
}

// replayLayers runs the replays. sealed follows the workload's dominant
// traffic: jumbo_sealed's tenant, and noisy_neighbor's aggressor.
func (r *run) replayLayers() (*layerReplay, error) {
	w, in := r.w, r.in
	lr := &layerReplay{sealed: w.tenant != 0 || w.noisy}
	frames := make([]*ethernet.Frame, replayOps)
	for i := range frames {
		seq := uint64(i) + 2
		frames[i] = in.newFrame(in.flowOf(seq), in.macB)
		in.stamp(frames[i].Payload, seq, uint32(i), tagStream)
	}

	// core: the workload tenant's routes, as node A holds them.
	tbl := core.NewTable()
	for _, rt := range r.e.a.Routes() {
		if rt.Tenant == w.tenant {
			tbl.AddRoute(rt)
		}
	}
	f0 := frames[0]
	if _, _, err := tbl.Lookup(f0.Src, f0.Dst); err != nil {
		return nil, fmt.Errorf("replay lookup: %w", err)
	}
	lr.lookupHit, _ = replay(replayOps, nil, func(i int) { tbl.Lookup(f0.Src, f0.Dst) })
	fresh := uint32(0)
	lr.lookupMiss, _ = replay(replayOps, nil, func(i int) {
		fresh++
		tbl.Lookup(ethernet.LocalMAC(0xf0000000|fresh), f0.Dst)
	})
	fs := core.NewFlowStats()
	for _, f := range frames {
		fs.Acquire(f.Src, f.Dst)
	}
	lr.flowAcquire, _ = replay(replayOps, nil, func(i int) { fs.Acquire(frames[i].Src, frames[i].Dst) })

	// seal: a sending and a receiving keyring under the tenant's key.
	tenant := uint32(sealedTenant)
	if w.noisy {
		tenant = aggressorTenant
	}
	txKeys, rxKeys := seal.NewKeyring(1), seal.NewKeyring(2)
	if err := txKeys.AddTenant(tenant, in.key); err != nil {
		return nil, err
	}
	if err := rxKeys.AddTenant(tenant, in.key); err != nil {
		return nil, err
	}
	sealer, err := txKeys.Sealer(tenant)
	if err != nil {
		return nil, err
	}
	var sl bridge.LinkSealer
	if lr.sealed {
		sl = sealer
	}

	// bridge: encapsulate each frame as a link would.
	var enc bridge.Encapsulator
	tmpl := bridge.NewEncapTemplate(sl)
	id := uint32(0)
	lr.encap, lr.encapAllocs = replay(replayOps, nil, func(i int) {
		id++
		pkt, err := enc.EncapsulateTemplate(frames[i], id, datagramBudget, tmpl, sl)
		if err == nil {
			pkt.Release()
		}
	})
	// The datagrams one pass of the receive side consumes, copied out of
	// the pool: every frame's, in order, with fresh nonces.
	var dgs [][]byte
	encode := func() {
		dgs = dgs[:0]
		for _, f := range frames {
			id++
			pkt, err := enc.EncapsulateTemplate(f, id, datagramBudget, tmpl, sl)
			if err != nil {
				continue
			}
			for _, d := range pkt.Datagrams {
				dgs = append(dgs, append([]byte(nil), d...))
			}
			if len(lr.datagrams) == 0 {
				for _, d := range pkt.Datagrams {
					lr.datagrams = append(lr.datagrams, len(d))
				}
			}
			pkt.Release()
		}
	}
	encode()
	if len(dgs) == 0 {
		return nil, fmt.Errorf("replay encapsulation produced nothing")
	}
	hdrs := make([]*bridge.EncapHeader, len(dgs))
	bodies := make([][]byte, len(dgs))
	lr.parse, lr.parseAllocs = replay(len(dgs), nil, func(j int) {
		h, b, err := bridge.ParseEncap(dgs[j])
		if err == nil {
			hdrs[j], bodies[j] = h, b
		}
	})
	// Each reassembly pass consumes fresh datagrams, parsed (and opened
	// where sealed) outside the timed loop.
	var prepErr, reasmErr error
	reasmPrep := func() {
		encode()
		for j, d := range dgs {
			h, b, err := bridge.ParseEncap(d)
			if err == nil && lr.sealed {
				b, err = rxKeys.Open(h.Seal.Tenant, h.Seal.Nonce, d[:h.WireLen()], b)
			}
			if err != nil {
				prepErr = err
			}
			hdrs[j], bodies[j] = h, b
		}
	}
	reasm := bridge.NewReassembler()
	lr.reasm, lr.reasmAllocs = replay(len(dgs), reasmPrep, func(j int) {
		if _, err := reasm.AddParsed("replay", hdrs[j], bodies[j]); err != nil {
			reasmErr = err
		}
	})
	if err := errors.Join(prepErr, reasmErr); err != nil {
		return nil, fmt.Errorf("replay reassembly: %w", err)
	}

	// ethernet: parse each marshalled inner frame.
	wires := make([][]byte, len(frames))
	for i, f := range frames {
		wires[i], _ = f.Marshal(nil)
	}
	lr.unmarshal, lr.unmarshalAllocs = replay(replayOps, nil, func(i int) { sinkFrame, _ = ethernet.Unmarshal(wires[i]) })

	// seal: one datagram's worth of plaintext per operation; open works
	// on freshly sealed ciphertexts each pass (the replay window refuses
	// a nonce twice).
	frag := datagramBudget - bridge.EncapHeaderLen - bridge.EncapSealLen - bridge.SealOverhead
	if n := len(frames[0].Payload) + ethernet.HeaderLen; n < frag {
		frag = n
	}
	aad := make([]byte, bridge.EncapHeaderLen+bridge.EncapSealLen)
	cts := make([][]byte, replayOps)
	for i := range cts {
		cts[i] = make([]byte, frag, frag+bridge.SealOverhead)
	}
	nonces := make([]uint64, replayOps)
	lr.sealNs, _ = replay(replayOps, nil, func(i int) {
		nonces[i] = sealer.NextNonce()
		cts[i] = sealer.Seal(nonces[i], aad, cts[i][:frag])
	})
	var openErr error
	lr.openNs, _ = replay(replayOps, func() {
		for i := range cts {
			nonces[i] = sealer.NextNonce()
			cts[i] = sealer.Seal(nonces[i], aad, cts[i][:frag])
		}
	}, func(i int) {
		pt, err := rxKeys.Open(tenant, nonces[i], aad, cts[i])
		if err != nil {
			openErr = err
			return
		}
		cts[i] = pt
	})
	if openErr != nil {
		return nil, fmt.Errorf("replay seal open: %w", openErr)
	}

	// telemetry: a datapath drop as the endpoint ring builds it.
	ledger := telemetry.NewDropLedger(telemetry.NewRegistry(), r.e.a.Ledger().Reasons()...)
	lr.dropNs, _ = replay(replayOps, nil, func(i int) {
		f := frames[i]
		ledger.Drop("endpoint_ring", 1, telemetry.DropDetail{
			Tenant: tenant, Scope: "nic9", Stage: "deliver",
			Flow: core.FlowKey{Tenant: tenant, Src: f.Src, Dst: f.Dst}.String(),
		})
	})
	return lr, nil
}

// pathNs is the replayed cost of one frame's path through the layers:
// the sender's and the receiver's route decision, encapsulation (sealing
// included), and per datagram parse, open and reassembly (which parses
// the inner Ethernet frame); noisy_neighbor's dominant frame also pays
// a drop.
func (r *run) pathNs(lr *layerReplay) float64 {
	d := float64(len(lr.datagrams))
	lookup := lr.lookupHit
	if r.w.churn {
		lookup = lr.lookupMiss + lr.flowAcquire
	}
	sum := lookup + lr.lookupHit + lr.encap + d*(lr.parse+lr.reasm)
	if lr.sealed {
		sum += d * lr.openNs
	}
	if r.w.noisy {
		sum += lr.dropNs
	}
	return sum
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
