package main

import (
	"strconv"

	"vnetp"
)

// check runs the correctness checks; each failure is recorded and fails
// the run.
func (r *run) check() {
	m := r.m
	if n := m.bad.Load(); n > 0 {
		r.fail("%d delivered frames failed the payload, address or tag check", n)
	}
	if n := m.dup.Load(); n > 0 {
		r.fail("%d frames were delivered twice", n)
	}
	if n := m.leaked.Load(); n > 0 {
		r.fail("%d aggressor frames reached a victim endpoint", n)
	}
	nodes := []*vnetp.Node{r.e.a, r.e.b}
	sa, sb := statMap(r.e.a), statMap(r.e.b)
	const probe = 1 // the frame set-up delivers from A to B
	if r.vic == nil {
		sent, recvd := r.st.sent.Load(), r.st.recvd.Load()
		if recvd != sent || m.sendErrs.Load() > 0 {
			r.fail("lossless workload delivered %d of %d frames, %d refused by Send", recvd, sent, m.sendErrs.Load())
		}
		if want := recvd + probe; sb["delivered"] != want || sb["encap_recv"] != want {
			r.fail("node B delivered %d and reassembled %d frames, the generator received %d",
				sb["delivered"], sb["encap_recv"], want)
		}
		if want := sent + probe; sa["encap_sent"] != want {
			r.fail("node A encapsulated %d frames, the generator sent %d", sa["encap_sent"], want)
		}
	} else {
		v := r.vic
		if v.gotA+v.gotB > v.sends {
			r.fail("victim endpoints received %d frames, the victim sent %d", v.gotA+v.gotB, v.sends)
		}
		if v.stale > v.retransmits {
			r.fail("%d victim frames arrived out of turn with only %d resent", v.stale, v.retransmits)
		}
		if sa["delivered"] != v.gotA || sa["encap_recv"] != v.gotA {
			r.fail("node A delivered %d and reassembled %d frames, the victim received %d",
				sa["delivered"], sa["encap_recv"], v.gotA)
		}
		// Every frame node B delivers is a victim ping, the probe, or an
		// aggressor frame either still in the undrained ring or dropped
		// at it.
		want := v.gotB + probe + r.aggDrain + r.e.b.Ledger().Count("endpoint_ring")
		if sb["delivered"] != want || sb["encap_recv"] != want {
			r.fail("node B delivered %d and reassembled %d frames, the generator accounts for %d",
				sb["delivered"], sb["encap_recv"], want)
		}
	}
	for _, n := range nodes {
		l := n.Ledger()
		var sum uint64
		for _, reason := range l.Reasons() {
			sum += l.Count(reason)
		}
		if sum != l.Total() {
			r.fail("node %s drop ledger total %d differs from the sum over reasons %d", n.Name(), l.Total(), sum)
		}
	}
	if rej := sa["seal_rejects"] + sb["seal_rejects"]; rej > 0 {
		r.fail("%d sealed datagrams were rejected", rej)
	}
	if n := familySum(nodes, "vnetp_component_restarts_total"); n > 0 {
		r.fail("%v supervised components restarted", n)
	}
}

// perLayer assembles the traced run's per-layer metrics.
func (r *run) perLayer(lr *layerReplay, nat native, e2e map[string]float64) []metricValue {
	nodes := []*vnetp.Node{r.e.a, r.e.b}
	m := r.m
	sa, sb := statMap(r.e.a), statMap(r.e.b)
	sum := func(k string) float64 { return float64(sa[k] + sb[k]) }

	var fcHits, fcMisses uint64
	var rcHits, rcMisses uint64
	for _, n := range nodes {
		h, mi, _, _ := n.FlowCacheStats()
		fcHits, fcMisses = fcHits+h, fcMisses+mi
		h, mi = n.Table().CacheStats()
		rcHits, rcMisses = rcHits+h, rcMisses+mi
	}
	rxBatch := histSnap(nodes, "vnetp_rx_batch_size")
	rxBatchMean := 0.0
	if rxBatch != nil && rxBatch.Count > 0 {
		rxBatchMean = rxBatch.Sum / float64(rxBatch.Count)
	}
	var sendErrs uint64 = m.sendErrs.Load()
	offered := median(r.plain.enteredPerS)
	lagMs := 0.0
	if r.agg != nil {
		sendErrs += r.agg.errs
		offered = float64(r.agg.sent) / (float64(r.agg.span) / 1e9)
		lagMs = m.lag.quantile(0.99) / 1e6
	}
	vsNative := 100 * e2e["frames_per_s"] / nat.fps
	if r.w.noisy {
		vsNative = 100 * nat.rttP50 / e2e["lat_p50_us"]
	}
	last := r.plain.last
	if len(r.tr.windows) > 0 {
		last = r.tr.last
	}
	first := r.plain.first
	path := r.pathNs(lr)

	out := []metricValue{
		{"overlay.send_ns_p50", m.sendNs.quantile(0.5), "ns", ""},
		{"overlay.send_errors", float64(sendErrs), "count", ""},
		{"overlay.recv_wait_ns_p50", m.recvWaitNs.quantile(0.5), "ns", ""},
		{"overlay.encap_sent", sum("encap_sent"), "count", ""},
		{"overlay.encap_recv", sum("encap_recv"), "count", ""},
		{"overlay.delivered", sum("delivered"), "count", ""},
		{"overlay.rx_batch_mean", rxBatchMean, "datagrams", ""},
		{"overlay.tx_latency_us_p50", 1e6 * snapQuantile(histSnap(nodes, "vnetp_tx_latency_seconds"), 0.5), "us", ""},
		{"overlay.rx_latency_us_p50", 1e6 * snapQuantile(histSnap(nodes, "vnetp_rx_latency_seconds"), 0.5), "us", ""},
		{"overlay.dispatcher_ring_drops", sum("drops_dispatcher_ring"), "count", ""},
		{"overlay.endpoint_ring_drops", sum("drops_endpoint_ring"), "count", ""},
		{"overlay.encap_pool_hit_ratio", ratio(sa["encap_pool_hits"]+sb["encap_pool_hits"], sa["encap_pool_misses"]+sb["encap_pool_misses"]), "ratio", ""},
		{"overlay.flowcache_hit_ratio", ratio(fcHits, fcMisses), "ratio", ""},
		{"overlay.flowcache_misses", float64(fcMisses), "count", ""},
		{"core.route_cache_hit_ratio", ratio(rcHits, rcMisses), "ratio", "tenant 0 tables"},
		{"core.lookup_hit_ns", lr.lookupHit, "ns", ""},
		{"core.lookup_miss_ns", lr.lookupMiss, "ns", ""},
		{"core.flow_acquire_ns", lr.flowAcquire, "ns", ""},
		{"bridge.encap_ns", lr.encap, "ns", "per frame"},
		{"bridge.encap_allocs", lr.encapAllocs, "allocs", "per frame"},
		{"bridge.parse_ns", lr.parse, "ns", "per datagram"},
		{"bridge.parse_allocs", lr.parseAllocs, "allocs", "per datagram"},
		{"bridge.reassemble_ns", lr.reasm, "ns", "per datagram"},
		{"bridge.reassemble_allocs", lr.reasmAllocs, "allocs", "per datagram"},
		{"ethernet.unmarshal_ns", lr.unmarshal, "ns", ""},
		{"ethernet.unmarshal_allocs", lr.unmarshalAllocs, "allocs", ""},
		{"seal.seal_ns", lr.sealNs, "ns", "per datagram"},
		{"seal.open_ns", lr.openNs, "ns", "per datagram"},
		{"seal.rejects", sum("seal_rejects"), "count", ""},
		{"telemetry.drops_total", sum("drops_total"), "count", ""},
	}
	for _, reason := range r.e.a.Ledger().Reasons() {
		out = append(out, metricValue{"telemetry.drops." + reason, sum("drops_" + reason), "count", ""})
	}
	out = append(out,
		metricValue{"telemetry.drop_ns", lr.dropNs, "ns", ""},
		metricValue{"control.apply_us", median(r.applyNs) / 1e3, "us", "per script line"},
	)
	for _, st := range traceStages {
		out = append(out, metricValue{"trace." + st + "_us", finite(median(r.paths[st])), "us",
			"n=" + strconv.Itoa(len(r.paths[st]))})
	}
	gcCPU := 0.0
	if d := last.allCPU - first.allCPU; d > 0 {
		gcCPU = (last.gcCPU - first.gcCPU) / d
	}
	out = append(out,
		metricValue{"runtime.gc_cycles", float64(last.gc - first.gc), "count", ""},
		metricValue{"runtime.gc_cpu_share", gcCPU, "ratio", ""},
		metricValue{"supervise.restarts", familySum(nodes, "vnetp_component_restarts_total"), "count", ""},
		metricValue{"gen.offered_per_s", offered, "frames/s", ""},
		metricValue{"gen.lag_ms", lagMs, "ms", "p99"},
		metricValue{"trace.overhead_pct", 100 * (1 - median(r.tr.fps)/median(r.plain.fps)), "%", ""},
		metricValue{"native.udp_frames_per_s", nat.fps, "frames/s", ""},
		metricValue{"native.rtt_p50_us", nat.rttP50, "us", ""},
		metricValue{"overlay_vs_native_pct", vsNative, "%", ""},
		metricValue{"consistency.layer_ns_sum", path, "ns", "per frame"},
		metricValue{"consistency.coverage_pct", 100 * path / 1e3 / e2e["cpu_us_per_frame"], "%", ""},
	)
	for i := range out {
		out[i].value = finite(out[i].value)
	}
	return out
}
