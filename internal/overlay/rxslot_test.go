// Receive-buffer ownership: datagrams within rxSlotSize travel in
// pooled slots that go back to the pool as soon as their datagram is
// handled, so nothing downstream may keep a reference into one. The
// burst test checks that end to end; the pins check that the sealed
// receive path allocates only the reassembled frame, and that reject
// and ring-full streams allocate nothing. Pins skip under -race, whose
// instrumentation allocates.
package overlay

import (
	"encoding/binary"
	"net/netip"
	"runtime"
	"strconv"
	"testing"
	"time"

	"vnetp/internal/bridge"
	"vnetp/internal/core"
	"vnetp/internal/ethernet"
	"vnetp/internal/race"
	"vnetp/internal/seal"
	"vnetp/internal/telemetry"
)

// ownershipPayload fills a size-byte payload for frame seq: the
// sequence number up front, then a byte pattern that differs from every
// other frame's at every position (seq < 256).
func ownershipPayload(seq, size int) []byte {
	p := make([]byte, size)
	binary.BigEndian.PutUint32(p, uint32(seq))
	for i := 4; i < size; i++ {
		p[i] = byte(seq*7 + i)
	}
	return p
}

// TestSealedRxSlotOwnershipMixedBurst sends a burst mixing unfragmented
// and six-fragment frames, plaintext and sealed, into endpoints that are
// read only after the whole burst has been reassembled. Each frame is
// paced behind the previous one's reassembly (an unpaced burst would
// overrun the loopback socket buffer), so the receive slots of early
// frames are recycled many times over before those frames are read: any
// reference a frame kept into a slot would show up as another frame's
// bytes. Under -race, a slot returned before its datagram is handled
// shows as a data race between the dispatcher and the reader.
func TestSealedRxSlotOwnershipMixedBurst(t *testing.T) {
	cfg := NodeConfig{Anomaly: AnomalyConfig{Disabled: true}}
	na, err := NewNodeWithConfig("own-a", "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := NewNodeWithConfig("own-b", "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { na.Close(); nb.Close() })
	key, err := seal.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []*Node{na, nb} {
		if err := n.AddTenant(7, key); err != nil {
			t.Fatal(err)
		}
	}
	type side struct {
		tenant   uint32
		src, dst *Endpoint
	}
	var sides []side
	for i, tenant := range []uint32{core.DefaultTenant, 7} {
		src, err := na.AttachEndpointTenant("src"+strconv.Itoa(i), ethernet.LocalMAC(uint32(1+i)), 9000, tenant)
		if err != nil {
			t.Fatal(err)
		}
		dst, err := nb.AttachEndpointTenant("dst"+strconv.Itoa(i), ethernet.LocalMAC(uint32(10+i)), 9000, tenant)
		if err != nil {
			t.Fatal(err)
		}
		lk := "to-b" + strconv.Itoa(i)
		if err := na.AddLinkTenant(lk, nb.Addr(), "udp", tenant); err != nil {
			t.Fatal(err)
		}
		if err := na.AddRoute(core.Route{DstMAC: dst.MAC(), DstQual: core.QualExact, SrcQual: core.QualAny,
			Dest: core.Destination{Type: core.DestLink, ID: lk}, Tenant: tenant}); err != nil {
			t.Fatal(err)
		}
		sides = append(sides, side{tenant, src, dst})
	}

	// seq%4 picks the kind: small plaintext, jumbo plaintext, jumbo
	// sealed, small sealed. 8000 B fragments into six datagrams.
	const frames = 160
	sizes := [4]int{200, 8000, 8000, 200}
	for seq := 0; seq < frames; seq++ {
		s := sides[(seq%4)/2]
		f := &ethernet.Frame{Dst: s.dst.MAC(), Src: s.src.MAC(), Type: ethernet.TypeTest,
			Payload: ownershipPayload(seq, sizes[seq%4])}
		if err := s.src.Send(f); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for nb.EncapRecv.Load() < uint64(seq+1) {
			if time.Now().After(deadline) {
				t.Fatalf("frame %d not reassembled (encap_recv %d)", seq, nb.EncapRecv.Load())
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	seen := make([]bool, frames)
	for _, s := range sides {
		for {
			f, ok := s.dst.TryRecv()
			if !ok {
				break
			}
			if len(f.Payload) < 4 {
				t.Fatalf("tenant %d: %d B payload", s.tenant, len(f.Payload))
			}
			seq := int(binary.BigEndian.Uint32(f.Payload))
			if seq >= frames || seen[seq] || (seq%4)/2 != int(s.tenant)/7 {
				t.Fatalf("tenant %d: unexpected sequence number %d", s.tenant, seq)
			}
			seen[seq] = true
			if len(f.Payload) != sizes[seq%4] {
				t.Fatalf("frame %d: %d B, want %d", seq, len(f.Payload), sizes[seq%4])
			}
			for i := 4; i < len(f.Payload); i++ {
				if f.Payload[i] != byte(seq*7+i) {
					t.Fatalf("frame %d (tenant %d, %d B): byte %d = %#x, want %#x — a recycled receive buffer showed through",
						seq, s.tenant, len(f.Payload), i, f.Payload[i], byte(seq*7+i))
				}
			}
		}
	}
	for seq, ok := range seen {
		if !ok {
			t.Fatalf("frame %d reassembled but never delivered", seq)
		}
	}
	if v := nb.metrics.sealOpened.Load(); v == 0 {
		t.Fatal("no sealed datagram opened")
	}
}

// rxPinNode returns a one-dispatcher node holding tenant 7 under key
// with a tenant-7 endpoint at LocalMAC(1).
func rxPinNode(t *testing.T, key []byte) (*Node, *Endpoint) {
	t.Helper()
	n := dropNode(t, NodeConfig{Dispatchers: 1})
	if err := n.AddTenant(7, key); err != nil {
		t.Fatal(err)
	}
	ep, err := n.AttachEndpointTenant("nic0", ethernet.LocalMAC(1), 9000, 7)
	if err != nil {
		t.Fatal(err)
	}
	return n, ep
}

// sealedFrames encapsulates count 8000 B frames for LocalMAC(1) under a
// peer keyring holding key, each as six owned sealed datagrams.
func sealedFrames(t *testing.T, key []byte, count int) [][][]byte {
	t.Helper()
	peer := seal.NewKeyring(0x0a0a)
	if err := peer.AddTenant(7, key); err != nil {
		t.Fatal(err)
	}
	sl, err := peer.Sealer(7)
	if err != nil {
		t.Fatal(err)
	}
	f := &ethernet.Frame{Dst: ethernet.LocalMAC(1), Src: ethernet.LocalMAC(2), Type: ethernet.TypeTest,
		Payload: make([]byte, 8000)}
	var enc bridge.Encapsulator
	out := make([][][]byte, count)
	for i := range out {
		pkt, err := enc.EncapsulateSealed(f, uint32(i), maxDatagram, nil, sl)
		if err != nil {
			t.Fatal(err)
		}
		if len(pkt.Datagrams) != 6 {
			t.Fatalf("%d datagrams, want 6", len(pkt.Datagrams))
		}
		for _, d := range pkt.Datagrams {
			out[i] = append(out[i], append([]byte(nil), d...))
		}
		pkt.Release()
	}
	return out
}

// feedSlots hands every datagram to handleDatagram in a pooled slot, as
// the read loop does.
func feedSlots(n *Node, attr *rxAttrib, dgs [][]byte) {
	from := netip.MustParseAddrPort("127.0.0.1:7000")
	for _, d := range dgs {
		pkt, slot := rxBuffer(len(d))
		copy(pkt, d)
		n.handleDatagram(rxPacket{pkt: pkt, slot: slot, from: from}, time.Now(), attr)
	}
}

// primeRxSlots tops up the slot pool, so a slot still on its way back
// from the dispatcher never forces a fresh one during a measurement.
func primeRxSlots() {
	var slots [32]*rxSlot
	for i := range slots {
		_, slots[i] = rxBuffer(1)
	}
	for _, s := range slots {
		putRxSlot(s)
	}
}

// spinUntil yields until cond holds, failing after five seconds.
func spinUntil(t *testing.T, what string, cond func() bool) {
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// TestAllocsSealedRxDispatch pins a six-fragment sealed frame from
// pooled slots through handleDatagram, the dispatcher ring, open,
// reassembly and delivery at two allocations: the reassembled buffer
// and the delivered Frame. Per datagram nothing else allocates.
func TestAllocsSealedRxDispatch(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	key, _ := seal.NewKey()
	n, ep := rxPinNode(t, key)
	const runs = 100
	frames := sealedFrames(t, key, runs+1) // AllocsPerRun makes one warm-up call
	primeRxSlots()
	var attr rxAttrib
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		feedSlots(n, &attr, frames[i])
		i++
		spinUntil(t, "delivery", func() bool { _, ok := ep.TryRecv(); return ok })
	})
	if allocs != 2 {
		t.Fatalf("a sealed six-fragment frame allocates %v on receive, want 2 (reassembled buffer and Frame)", allocs)
	}
	if r := n.metrics.sealRejects.Sum(); r != 0 {
		t.Fatalf("seal rejects = %d", r)
	}
}

// TestAllocsSealRejectRx pins a stream of sealed datagrams that fail
// authentication (the peer's key differs) at zero allocations.
func TestAllocsSealRejectRx(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	key, _ := seal.NewKey()
	wrong, _ := seal.NewKey()
	n, _ := rxPinNode(t, key)
	const runs = 100
	frames := sealedFrames(t, wrong, runs+1)
	primeRxSlots()
	var attr rxAttrib
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		feedSlots(n, &attr, frames[i])
		i++
		want := uint64(6 * i)
		spinUntil(t, "seal rejects", func() bool { return n.ledger.Count(dropSealReject) >= want })
	})
	if allocs != 0 {
		t.Fatalf("a rejected sealed frame allocates %v on receive, want 0", allocs)
	}
	if r := n.metrics.sealRejects.With(seal.RejectAuth).Load(); r != 6*(runs+1) {
		t.Fatalf("auth rejects = %d, want %d", r, 6*(runs+1))
	}
}

// enqueueDropAllocs is the measured cost of one ring-full enqueue drop.
const enqueueDropAllocs = 0

// TestAllocsEnqueueRingFullDrop pins a dispatcher-ring-full drop — the
// overload path, taken once per shed datagram — at its measured cost.
// The shard index takes two digits so that formatting it per drop
// would allocate (single-digit strings are static in the runtime).
func TestAllocsEnqueueRingFullDrop(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	reg := telemetry.NewRegistry()
	// QueueDepth 0 makes an unbuffered ring nobody drains: every
	// enqueue drops.
	n := &Node{metrics: newNodeMetrics(reg), ledger: telemetry.NewDropLedger(reg, dropReasons...), slis: newTenantSLIs(reg)}
	n.shards = []*rxShard{n.newRxShard(12)}
	pkt, slot := rxBuffer(64)
	at := time.Now()
	allocs := testing.AllocsPerRun(1000, func() {
		n.enqueue("10.0.0.9:9", pkt, slot, at)
		_, slot = rxBuffer(64) // the drop returned the slot; take one back
	})
	if allocs != enqueueDropAllocs {
		t.Fatalf("a ring-full enqueue drop allocates %v, pinned at %d", allocs, enqueueDropAllocs)
	}
	if got := n.ledger.Count(dropDispatcherRing); got != 1001 {
		t.Fatalf("dispatcher_ring drops = %d, want 1001", got)
	}
	if rec := n.ledger.Tail(dropDispatcherRing); len(rec) == 0 || rec[len(rec)-1].Scope != "12" {
		t.Fatalf("drop scope = %+v, want the shard index", rec)
	}
}
