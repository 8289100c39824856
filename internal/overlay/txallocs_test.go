// Allocation pins for the transmit path: a flow-cache hit sends with no
// allocation at 64 B and at 8000 B (one sendmmsg for the fragments),
// sealed or not, a miss pays only
// the cache entry it stores, and transmit of a collected batch is
// allocation-free. The sink is a plain UDP socket nobody reads, so no
// receive path allocates during a measurement. Skipped under -race,
// whose instrumentation allocates.
package overlay

import (
	"net"
	"testing"
	"time"

	"vnetp/internal/core"
	"vnetp/internal/ethernet"
	"vnetp/internal/race"
	"vnetp/internal/seal"
)

// txAllocNode returns a synchronous-path node with one endpoint routed
// over a UDP link to an undrained sink socket (tenant 0 plaintext, or a
// sealed link when tenant != 0).
func txAllocNode(t *testing.T, cfg NodeConfig, tenant uint32) (*Node, *Endpoint, ethernet.MAC) {
	t.Helper()
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sink.Close() })
	n := dropNode(t, cfg)
	if tenant != core.DefaultTenant {
		key, err := seal.NewKey()
		if err != nil {
			t.Fatal(err)
		}
		if err := n.AddTenant(tenant, key); err != nil {
			t.Fatal(err)
		}
	}
	ep, err := n.AttachEndpointTenant("nic0", ethernet.LocalMAC(1), 9000, tenant)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AddLinkTenant("sink", sink.LocalAddr().String(), "udp", tenant); err != nil {
		t.Fatal(err)
	}
	dst := ethernet.LocalMAC(2)
	if err := n.AddRoute(core.Route{DstMAC: dst, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestLink, ID: "sink"}, Tenant: tenant}); err != nil {
		t.Fatal(err)
	}
	return n, ep, dst
}

// sendAllocs measures one Send of a size-byte frame from ep to dst,
// after a warm-up send that fills the flow cache and the pools. before
// runs ahead of every measured Send.
func sendAllocs(t *testing.T, ep *Endpoint, dst ethernet.MAC, size int, before func()) float64 {
	t.Helper()
	f := &ethernet.Frame{Dst: dst, Src: ep.MAC(), Type: ethernet.TypeTest, Payload: make([]byte, size)}
	if err := ep.Send(f); err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(200, func() {
		if before != nil {
			before()
		}
		if err := ep.Send(f); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllocsSendCached(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	for _, size := range []int{64, 8000} {
		_, ep, dst := txAllocNode(t, NodeConfig{}, core.DefaultTenant)
		if a := sendAllocs(t, ep, dst, size, nil); a != 0 {
			t.Errorf("cached %d B plaintext Send allocates %v/op, want 0", size, a)
		}
	}
}

// TestAllocsSendCachedSealed pins the sealed 8000 B send at zero: each
// fragment's GCM nonce is read from its own wire header, so nothing
// escapes through the cipher.AEAD interface.
func TestAllocsSendCachedSealed(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	_, ep, dst := txAllocNode(t, NodeConfig{}, 7)
	if a := sendAllocs(t, ep, dst, 8000, nil); a != 0 {
		t.Fatalf("cached 8000 B sealed Send allocates %v/op, want 0", a)
	}
}

func TestAllocsSendLocalDelivery(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	n := dropNode(t, NodeConfig{})
	src, err := n.AttachEndpoint("src", ethernet.LocalMAC(1), 1500)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := n.AttachEndpoint("dst", ethernet.LocalMAC(2), 1500)
	if err != nil {
		t.Fatal(err)
	}
	a := sendAllocs(t, src, dst.MAC(), 64, func() { dst.TryRecv() })
	if a != 0 {
		t.Fatalf("cached local delivery allocates %v/op, want 0", a)
	}
}

// TestAllocsSendMiss pins a flow-cache miss at one allocation: the
// decision it stores.
func TestAllocsSendMiss(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	n, ep, dst := txAllocNode(t, NodeConfig{}, core.DefaultTenant)
	if a := sendAllocs(t, ep, dst, 64, n.bumpFlowEpoch); a != 1 {
		t.Fatalf("64 B Send on a flow-cache miss allocates %v/op, want 1 (the stored entry)", a)
	}
}

func TestAllocsSendCacheDisabled(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	_, ep, dst := txAllocNode(t, NodeConfig{FlowCacheDisabled: true}, core.DefaultTenant)
	if a := sendAllocs(t, ep, dst, 64, nil); a != 0 {
		t.Fatalf("64 B Send with the flow cache disabled allocates %v/op, want 0", a)
	}
}

// TestAllocsTransmitBatch pins transmit of a 32-frame batch — the
// batched sender's per-flush work, one sendmmsg — at zero allocations.
func TestAllocsTransmitBatch(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	n, ep, dst := txAllocNode(t, NodeConfig{}, core.DefaultTenant)
	n.mu.Lock()
	lk := n.links["sink"]
	n.mu.Unlock()
	frames := make([]txFrame, 32)
	for i := range frames {
		frames[i] = txFrame{
			f:  &ethernet.Frame{Dst: dst, Src: ep.MAC(), Type: ethernet.TypeTest, Payload: make([]byte, 64)},
			at: time.Now(),
		}
	}
	var s txScratch
	if err := n.transmit(lk, frames, &s); err != nil {
		t.Fatal(err)
	}
	a := testing.AllocsPerRun(200, func() {
		if err := n.transmit(lk, frames, &s); err != nil {
			t.Fatal(err)
		}
	})
	if a != 0 {
		t.Fatalf("transmit of a 32-frame batch allocates %v/op, want 0", a)
	}
}
