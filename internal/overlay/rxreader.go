// The batched receive front end: the read loop's socket access goes
// through a batchReader so linux/{amd64,arm64} hosts can drain the UDP
// socket with recvmmsg(2) — one syscall per batch, the receive-side twin
// of the sendmmsg transmit path (Sect. 4.3's per-batch, not per-packet,
// exit economics) — while every other platform keeps the portable
// one-ReadFromUDP-per-datagram loop with identical semantics.

package overlay

import (
	"net"
	"net/netip"
	"sync"
)

// defaultRxBatch is the read loop's per-wakeup datagram budget when
// NodeConfig.RxBatch is zero. 16 amortizes the syscall well past the
// knee of the curve without holding a burst's worth of 64KiB buffers.
const defaultRxBatch = 16

// rxSlotSize is the size of a pooled receive slot. Every datagram
// within the UDP datagram budget (maxDatagram) fits one; larger ones
// (TCP links, foreign senders) get an exact-size buffer that is never
// pooled.
const rxSlotSize = 2048

// rxSlot is one pooled receive buffer. The pool holds pointers: a
// []byte put into a sync.Pool would allocate its header on every Put.
type rxSlot [rxSlotSize]byte

var rxSlots = sync.Pool{New: func() any { return new(rxSlot) }}

// rxBuffer returns an owned size-byte receive buffer: the prefix of a
// pooled slot when it fits (slot non-nil), else an exact-size
// allocation (slot nil). Whoever consumes the datagram hands the slot
// back with putRxSlot once nothing refers to the bytes any more.
func rxBuffer(size int) ([]byte, *rxSlot) {
	if size <= rxSlotSize {
		s := rxSlots.Get().(*rxSlot)
		return s[:size], s
	}
	return make([]byte, size), nil
}

// putRxSlot returns a datagram's slot to the pool; nil (an unpooled or
// injected datagram) is a no-op.
func putRxSlot(s *rxSlot) {
	if s != nil {
		rxSlots.Put(s)
	}
}

// rxPacket is one received datagram: an owned copy of the payload (the
// reader's internal buffers are reused across batches), the pooled slot
// holding it (nil when unpooled), and its sender. The sender is a
// fixed-size value — decoding it allocates nothing — and IPv4-mapped
// IPv6 senders (a node bound to [::]) are unmapped, so a v4 peer's key
// reads "127.0.0.1:p" on either bind.
type rxPacket struct {
	pkt  []byte
	slot *rxSlot
	from netip.AddrPort
}

// batchReader abstracts "drain up to len(into) datagrams from the
// socket". readBatch blocks until at least one datagram is available,
// fills into[0:n] with owned packet copies (rxBuffer), and returns n. A
// socket error (including close during shutdown) returns err; the read
// loop treats any error as retirement, matching the old ReadFromUDP
// contract.
type batchReader interface {
	readBatch(into []rxPacket) (int, error)
}

// singleReader is the portable batchReader: one blocking
// ReadFromUDPAddrPort per call, so batches degenerate to size one. Used
// on platforms without recvmmsg and whenever RxBatch <= 1.
type singleReader struct {
	c   *net.UDPConn
	buf []byte
}

func (r *singleReader) readBatch(into []rxPacket) (int, error) {
	sz, from, err := r.c.ReadFromUDPAddrPort(r.buf)
	if err != nil {
		return 0, err
	}
	pkt, slot := rxBuffer(sz)
	copy(pkt, r.buf[:sz])
	into[0] = rxPacket{pkt: pkt, slot: slot, from: netip.AddrPortFrom(from.Addr().Unmap(), from.Port())}
	return 1, nil
}

// newBatchReader picks the best reader for this platform and batch
// size: the recvmmsg reader when the platform has one and batch > 1,
// the portable single-datagram reader otherwise.
func newBatchReader(c *net.UDPConn, batch int) batchReader {
	if batch > 1 {
		if r := newPlatformBatchReader(c, batch); r != nil {
			return r
		}
	}
	return &singleReader{c: c, buf: make([]byte, 65536)}
}
