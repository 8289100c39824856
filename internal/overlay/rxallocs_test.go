// Allocation pins for the steady-state receive path: the read loop's
// per-datagram work and Recv of a queued frame allocate nothing (the
// owned datagram copy and the delivered Frame are the path's only
// per-frame objects). Skipped under -race, whose instrumentation
// allocates.
package overlay

import (
	"net/netip"
	"testing"
	"time"

	"vnetp/internal/bridge"
	"vnetp/internal/ethernet"
	"vnetp/internal/race"
	"vnetp/internal/telemetry"
)

// TestAllocsRecvQueued pins Recv with a frame already queued at zero
// allocations.
func TestAllocsRecvQueued(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	ep := bareEndpoint(1)
	f := &ethernet.Frame{}
	allocs := testing.AllocsPerRun(1000, func() {
		ep.rx <- f
		if _, ok := ep.Recv(time.Second); !ok {
			t.Fatal("queued frame not received")
		}
	})
	if allocs != 0 {
		t.Fatalf("Recv with a frame queued allocates %v/op, want 0", allocs)
	}
}

// TestAllocsHandleDatagram pins the read loop's per-datagram work for a
// datagram from an already-seen peer — attribution, byte accounting,
// enqueue onto its dispatcher ring — at zero allocations.
func TestAllocsHandleDatagram(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	from := netip.MustParseAddrPort("127.0.0.1:7000")
	lk := &link{bytesRecv: new(telemetry.Counter)}
	n := &Node{
		linkByAddr: map[string]*link{from.String(): lk},
		shards:     []*rxShard{{in: make(chan inDatagram, 2048)}}, // room for every enqueue below: no drop path
	}
	pkt := (&bridge.EncapHeader{ID: 1, TotalLen: 64}).Marshal(nil)
	pkt = append(pkt, make([]byte, 64)...)
	var attr rxAttrib
	at := time.Now()
	n.handleDatagram(rxPacket{pkt: pkt, from: from}, at, &attr) // first sight: builds the key
	allocs := testing.AllocsPerRun(1000, func() {
		n.handleDatagram(rxPacket{pkt: pkt, from: from}, at, &attr)
	})
	if allocs != 0 {
		t.Fatalf("handleDatagram from a seen peer allocates %v/op, want 0", allocs)
	}
	if got := lk.bytesRecv.Load(); got != uint64(len(pkt))*1002 {
		t.Fatalf("link bytes_recv = %d, want %d", got, len(pkt)*1002)
	}
}
