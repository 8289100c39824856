// Drop-site audit regression (ISSUE 10 satellite): every place the
// datapath sheds a frame or datagram must report to the unified drop
// ledger — exactly one reason per loss, never zero, never two. Each
// subtest drives one site in isolation on a fresh node and pins the
// ledger count against the legacy counter the site has always fed;
// the churn test then runs the sites concurrently under -race and
// checks the global invariant: vnetp_drops_total sums exactly to the
// observed drops, reason by reason.
package overlay

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"vnetp/internal/bridge"
	"vnetp/internal/core"
	"vnetp/internal/ethernet"
	"vnetp/internal/seal"
)

// dropNode builds a node for drop-site tests (anomaly watchdog off so
// alert sampling never races the assertions).
func dropNode(t testing.TB, cfg NodeConfig) *Node {
	t.Helper()
	cfg.Anomaly.Disabled = true
	n, err := NewNodeWithConfig("dropsite", "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// waitCount polls until the ledger's count for reason reaches want.
func waitCount(t *testing.T, n *Node, reason string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for n.ledger.Count(reason) < want {
		if time.Now().After(deadline) {
			t.Fatalf("ledger %s = %d, want >= %d", reason, n.ledger.Count(reason), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// testFrame builds a small unicast frame.
func testFrame(src, dst ethernet.MAC) *ethernet.Frame {
	return &ethernet.Frame{Dst: dst, Src: src, Type: ethernet.TypeTest, Payload: []byte("drop-site")}
}

// sealedDatagram crafts one sealed encap datagram under a private
// keyring the receiving node does not share, so opening it must fail.
func sealedDatagram(t testing.TB, tenant uint32) []byte {
	t.Helper()
	kr := seal.NewKeyring(7)
	key, err := seal.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	if err := kr.AddTenant(tenant, key); err != nil {
		t.Fatal(err)
	}
	sl, err := kr.Sealer(tenant)
	if err != nil {
		t.Fatal(err)
	}
	var enc bridge.Encapsulator
	pkt, err := enc.EncapsulateSealed(testFrame(ethernet.LocalMAC(1), ethernet.LocalMAC(2)), 1, maxDatagram, nil, sl)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkt.Datagrams) != 1 {
		t.Fatalf("sealed frame fragmented into %d datagrams", len(pkt.Datagrams))
	}
	d := append([]byte(nil), pkt.Datagrams[0]...)
	pkt.Release()
	return d
}

func TestDropSiteNoRoute(t *testing.T) {
	n := dropNode(t, NodeConfig{})
	ep, err := n.AttachEndpoint("src", ethernet.LocalMAC(1), 1500)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Send(testFrame(ep.MAC(), ethernet.LocalMAC(99))); err == nil {
		t.Fatal("send to unrouted destination succeeded")
	}
	if got, legacy := n.ledger.Count(dropNoRoute), n.NoRouteDrop.Load(); got != 1 || got != legacy {
		t.Fatalf("no_route ledger=%d legacy=%d, want 1", got, legacy)
	}
}

// TestDropSiteRouteToAbsentInterface: a route naming an interface no
// endpoint is attached under is a no_route drop, like a route naming a
// deleted link — not a silent loss.
func TestDropSiteRouteToAbsentInterface(t *testing.T) {
	n := dropNode(t, NodeConfig{})
	ep, err := n.AttachEndpoint("src", ethernet.LocalMAC(1), 1500)
	if err != nil {
		t.Fatal(err)
	}
	ghost := ethernet.LocalMAC(99)
	if err := n.AddRoute(core.Route{DstMAC: ghost, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestInterface, ID: "ghost"}}); err != nil {
		t.Fatal(err)
	}
	ep.Send(testFrame(ep.MAC(), ghost))
	if got, legacy := n.ledger.Count(dropNoRoute), n.NoRouteDrop.Load(); got != 1 || got != legacy {
		t.Fatalf("no_route ledger=%d legacy=%d, want 1", got, legacy)
	}
	var sum uint64
	for _, r := range dropReasons {
		sum += n.ledger.Count(r)
	}
	if total := n.ledger.Total(); total != sum {
		t.Fatalf("ledger total %d != sum of reasons %d", total, sum)
	}
	if tail := n.ledger.Tail(dropNoRoute); len(tail) != 1 || tail[0].Scope != "ghost" {
		t.Fatalf("no_route detail = %+v, want one drop scoped to ghost", tail)
	}
}

func TestDropSiteBadPacket(t *testing.T) {
	n := dropNode(t, NodeConfig{Dispatchers: 1})
	n.inject("10.0.0.1:1", []byte{0xde, 0xad, 0xbe, 0xef})
	waitCount(t, n, dropBadPacket, 1)
	if legacy := n.BadPackets.Load(); legacy != 1 {
		t.Fatalf("BadPackets = %d, want 1", legacy)
	}
}

func TestDropSiteEndpointRing(t *testing.T) {
	n := dropNode(t, NodeConfig{})
	src, err := n.AttachEndpoint("src", ethernet.LocalMAC(1), 1500)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := n.AttachEndpoint("dst", ethernet.LocalMAC(2), 1500)
	if err != nil {
		t.Fatal(err)
	}
	// Local delivery is synchronous, so overrunning the RX ring by 3 is
	// deterministic: nobody Recvs.
	const extra = 3
	for i := 0; i < epQueueDepth+extra; i++ {
		src.Send(testFrame(src.MAC(), dst.MAC()))
	}
	if got, legacy := n.ledger.Count(dropEndpointRing), dst.Drops.Load(); got != extra || got != legacy {
		t.Fatalf("endpoint_ring ledger=%d legacy=%d, want %d", got, legacy, extra)
	}
}

func TestDropSiteDispatcherRing(t *testing.T) {
	n := dropNode(t, NodeConfig{Dispatchers: 1, QueueDepth: 1})
	junk := []byte{0xde, 0xad}
	deadline := time.Now().Add(5 * time.Second)
	for n.ledger.Count(dropDispatcherRing) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("dispatcher ring never overran")
		}
		n.enqueue("10.0.0.2:2", junk, nil, time.Now())
	}
	// Quiesce, then the producer-side shard counters must agree with the
	// ledger exactly.
	time.Sleep(50 * time.Millisecond)
	var legacy uint64
	for _, s := range n.shards {
		legacy += s.Drops.Load()
	}
	if got := n.ledger.Count(dropDispatcherRing); got != legacy {
		t.Fatalf("dispatcher_ring ledger=%d shard drops=%d", got, legacy)
	}
}

func TestDropSiteProbeRing(t *testing.T) {
	n := dropNode(t, NodeConfig{})
	from := netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), 9)
	probe := marshalProbe("lk", 1)
	attr := &rxAttrib{}
	deadline := time.Now().Add(5 * time.Second)
	for n.ledger.Count(dropProbeRing) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("probe ring never overran")
		}
		for i := 0; i < 1024; i++ {
			n.handleDatagram(rxPacket{pkt: probe, from: from}, time.Now(), attr)
		}
	}
}

func TestDropSiteSealReject(t *testing.T) {
	n := dropNode(t, NodeConfig{Dispatchers: 1})
	n.inject("10.0.0.3:3", sealedDatagram(t, 42))
	waitCount(t, n, dropSealReject, 1)
	if legacy := n.metrics.sealRejects.Sum(); legacy != 1 {
		t.Fatalf("seal reject counter = %d, want 1", legacy)
	}
	// The reject also lands in the claimed tenant's SLI.
	if got := n.slis.get(42).sealRejects.Load(); got != 1 {
		t.Fatalf("tenant 42 seal_rejects = %d, want 1", got)
	}
}

func TestDropSiteReassemblyEvict(t *testing.T) {
	n := dropNode(t, NodeConfig{Dispatchers: 1, EvictInterval: 10 * time.Millisecond})
	f := testFrame(ethernet.LocalMAC(1), ethernet.LocalMAC(2))
	f.Payload = make([]byte, 9000) // fragments into several datagrams
	ds, err := bridge.Encapsulate(f, 77, maxDatagram)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) < 2 {
		t.Fatalf("frame did not fragment: %d datagrams", len(ds))
	}
	n.inject("10.0.0.4:4", ds[0]) // first fragment only: a partial that can never complete
	waitCount(t, n, dropReassemblyEvict, 1)
	if legacy := n.metrics.reasmEvictions.Load(); legacy != n.ledger.Count(dropReassemblyEvict) {
		t.Fatalf("reassembly_evict ledger=%d legacy=%d", n.ledger.Count(dropReassemblyEvict), legacy)
	}
}

func TestDropSiteCrossTenant(t *testing.T) {
	n := dropNode(t, NodeConfig{})
	src, err := n.AttachEndpoint("src", ethernet.LocalMAC(1), 1500)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.AttachEndpointTenant("other", ethernet.LocalMAC(2), 1500, 7); err != nil {
		t.Fatal(err)
	}
	// A misinstalled tenant-0 route pointing at tenant 7's endpoint: the
	// delivery leg must refuse and count it, not leak the frame.
	dst := ethernet.LocalMAC(3)
	n.AddRoute(core.Route{
		DstMAC: dst, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestInterface, ID: "other"},
	})
	src.Send(testFrame(src.MAC(), dst))
	if got, legacy := n.ledger.Count(dropCrossTenant), n.metrics.crossTenantDrops.Load(); got != 1 || got != legacy {
		t.Fatalf("cross_tenant ledger=%d legacy=%d, want 1", got, legacy)
	}
}

func TestDropSiteTxRing(t *testing.T) {
	n := dropNode(t, NodeConfig{TxBatch: 2, TxRing: 1})
	src, err := n.AttachEndpoint("src", ethernet.LocalMAC(1), 1500)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AddLink("wire", "127.0.0.1:9", "udp"); err != nil {
		t.Fatal(err)
	}
	dst := ethernet.LocalMAC(9)
	n.AddRoute(core.Route{
		DstMAC: dst, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestLink, ID: "wire"},
	})
	n.mu.Lock()
	lk := n.links["wire"]
	n.mu.Unlock()
	// Reap the sender so nothing drains the one-slot ring; once it has
	// exited, every send past the first must overrun.
	lk.txw.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for n.ledger.Count(dropTxRing) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("tx ring never overran")
		}
		src.Send(testFrame(src.MAC(), dst))
		time.Sleep(time.Millisecond)
	}
	// The sender may exit holding one frame in its partial batch (counted
	// as tx_teardown); the legacy counter spans both reasons.
	got := n.ledger.Count(dropTxRing) + n.ledger.Count(dropTxTeardown)
	if legacy := lk.txDrops.Load(); got != legacy {
		t.Fatalf("tx ledger=%d legacy=%d", got, legacy)
	}
}

func TestDropSiteTxTeardown(t *testing.T) {
	n := dropNode(t, NodeConfig{TxBatch: 4, TxRing: 64, TxFlushTimeout: time.Hour})
	src, err := n.AttachEndpoint("src", ethernet.LocalMAC(1), 1500)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AddLink("wire", "127.0.0.1:9", "udp"); err != nil {
		t.Fatal(err)
	}
	dst := ethernet.LocalMAC(9)
	n.AddRoute(core.Route{
		DstMAC: dst, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestLink, ID: "wire"},
	})
	n.mu.Lock()
	lk := n.links["wire"]
	n.mu.Unlock()
	// Two frames: fewer than the batch of 4, and an hour-long flush, so
	// the sender parks holding both in its partial batch.
	src.Send(testFrame(src.MAC(), dst))
	src.Send(testFrame(src.MAC(), dst))
	deadline := time.Now().Add(5 * time.Second)
	for len(lk.txq) > 0 {
		if time.Now().After(deadline) {
			t.Fatal("tx ring never drained into the batch")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // let the second pull land in the batch
	lk.txw.Stop()
	waitCount(t, n, dropTxTeardown, 2)
	if got := n.ledger.Count(dropTxTeardown); got != 2 {
		t.Fatalf("tx_teardown = %d, want 2", got)
	}
}

// TestDropLedgerChurn runs the drop sites concurrently (meant for
// -race) and then checks the audit invariant: the ledger total sums
// exactly to its per-reason counts, and every reason agrees with the
// legacy counter its sites have always fed — each loss counted once,
// under exactly one reason.
func TestDropLedgerChurn(t *testing.T) {
	n := dropNode(t, NodeConfig{Dispatchers: 2, QueueDepth: 4, TxBatch: 2, TxRing: 1, EvictInterval: 20 * time.Millisecond})
	src, err := n.AttachEndpoint("src", ethernet.LocalMAC(1), 1500)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := n.AttachEndpoint("sink", ethernet.LocalMAC(2), 1500)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.AttachEndpointTenant("other", ethernet.LocalMAC(3), 1500, 7); err != nil {
		t.Fatal(err)
	}
	crossDst := ethernet.LocalMAC(4)
	n.AddRoute(core.Route{
		DstMAC: crossDst, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestInterface, ID: "other"},
	})
	if err := n.AddLink("wire", "127.0.0.1:9", "udp"); err != nil {
		t.Fatal(err)
	}
	linkDst := ethernet.LocalMAC(5)
	n.AddRoute(core.Route{
		DstMAC: linkDst, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestLink, ID: "wire"},
	})
	n.mu.Lock()
	lk := n.links["wire"]
	n.mu.Unlock()
	lk.txw.Stop() // every TX past the one-slot ring fill must drop

	sealed := sealedDatagram(t, 42)
	partial := func() []byte {
		f := testFrame(ethernet.LocalMAC(1), ethernet.LocalMAC(2))
		f.Payload = make([]byte, 9000)
		ds, err := bridge.Encapsulate(f, 123, maxDatagram)
		if err != nil {
			t.Fatal(err)
		}
		return ds[0]
	}()

	const iters = 400
	var wg sync.WaitGroup
	churn := func(body func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				body(i)
			}
		}()
	}
	churn(func(i int) { src.Send(testFrame(src.MAC(), ethernet.LocalMAC(200))) }) // no_route
	churn(func(i int) { src.Send(testFrame(src.MAC(), sink.MAC())) })             // endpoint_ring once full
	churn(func(i int) { src.Send(testFrame(src.MAC(), crossDst)) })               // cross_tenant
	churn(func(i int) { src.Send(testFrame(src.MAC(), linkDst)) })                // tx_ring
	churn(func(i int) { n.enqueue(fmt.Sprintf("10.1.0.%d:1", i%4), []byte{1, 2, 3}, nil, time.Now()) })
	// The blocking inject path guarantees these reach processData even
	// while the enqueue churn keeps the rings overrun.
	churn(func(i int) { n.inject(fmt.Sprintf("10.2.0.%d:1", i%4), sealed) })
	churn(func(i int) { n.inject(fmt.Sprintf("10.4.0.%d:1", i%4), []byte{4, 5, 6}) })
	churn(func(i int) {
		if i%50 == 0 {
			n.inject(fmt.Sprintf("10.3.0.%d:1", i), partial) // distinct senders: partials pile up for the evictor
		}
	})
	wg.Wait()

	// Quiesce: wait until the total stops moving across two samples, so
	// in-flight datagrams and the evict sweep have all landed.
	var prev uint64
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur := n.ledger.Total()
		time.Sleep(100 * time.Millisecond)
		if n.ledger.Total() == cur && cur == prev && cur > 0 {
			break
		}
		prev = cur
		if time.Now().After(deadline) {
			t.Fatal("ledger never quiesced")
		}
	}

	var sum uint64
	for _, r := range n.ledger.Reasons() {
		sum += n.ledger.Count(r)
	}
	if total := n.ledger.Total(); total != sum {
		t.Fatalf("ledger total %d != per-reason sum %d", total, sum)
	}

	var shardDrops, epDrops uint64
	for _, s := range n.shards {
		shardDrops += s.Drops.Load()
	}
	n.mu.Lock()
	for _, ep := range n.eps {
		epDrops += ep.Drops.Load()
	}
	n.mu.Unlock()
	checks := []struct {
		reason string
		legacy uint64
	}{
		{dropNoRoute, n.NoRouteDrop.Load()},
		{dropBadPacket, n.BadPackets.Load()},
		{dropCrossTenant, n.metrics.crossTenantDrops.Load()},
		{dropSealReject, n.metrics.sealRejects.Sum()},
		{dropReassemblyEvict, n.metrics.reasmEvictions.Load()},
		{dropDispatcherRing, shardDrops},
		{dropEndpointRing, epDrops},
	}
	for _, c := range checks {
		if got := n.ledger.Count(c.reason); got != c.legacy {
			t.Errorf("%s: ledger=%d legacy=%d", c.reason, got, c.legacy)
		}
	}
	// The TX legacy counter spans both ring overrun and teardown loss.
	if got := n.ledger.Count(dropTxRing) + n.ledger.Count(dropTxTeardown); got != lk.txDrops.Load() {
		t.Errorf("tx drops: ledger=%d legacy=%d", got, lk.txDrops.Load())
	}
	for _, r := range []string{dropNoRoute, dropBadPacket, dropCrossTenant, dropSealReject, dropEndpointRing, dropTxRing} {
		if n.ledger.Count(r) == 0 {
			t.Errorf("churn never exercised %s", r)
		}
	}
}
