// The transmit path. Every data frame leaves through transmit: the
// synchronous path calls it with a one-frame batch, and the batched path
// — the send-side twin of the paper's VMM-driven dispatch result (Sect.
// 4.3, Table 1) — with whatever a link's sender collected. With
// NodeConfig.TxBatch > 1, every link owns a bounded TX ring drained by a
// sender goroutine that coalesces frames per wakeup — flushing on
// batch-full or a short TxFlushTimeout, the adaptive hysteresis idea
// applied at the sender — so per-frame costs (goroutine wakeups, encap
// buffer allocation, and on Linux the syscall itself, via sendmmsg)
// amortize over the batch.

package overlay

import (
	"net"
	"sync"
	"time"

	"vnetp/internal/bridge"
	"vnetp/internal/core"
	"vnetp/internal/ethernet"
	"vnetp/internal/faultnet"
	"vnetp/internal/supervise"
	"vnetp/internal/telemetry"
	"vnetp/internal/trace"
	"vnetp/internal/virtio"
)

// txFrame is one outbound frame queued on a link's TX ring. at is the
// frame's local-arrival timestamp (zero for forwarded frames), carried
// across the ring so the TX latency histogram still measures frame-in →
// wire-out.
type txFrame struct {
	f  *ethernet.Frame
	at time.Time
}

// enqueueTx offers a frame to a link's TX ring without blocking the
// router; ring-full frames are dropped and counted, like a NIC TX ring
// under overrun.
func (n *Node) enqueueTx(lk *link, tf txFrame) {
	select {
	case lk.txq <- tf:
		lk.txFrames.Inc() // the adaptive controller's rate sensor
	default:
		lk.txDrops.Add(1)
		n.drop(dropTxRing, 1, telemetry.DropDetail{
			Tenant: lk.tenant, Scope: lk.id, Stage: "tx_ring",
			Flow: core.FlowKey{Tenant: lk.tenant, Src: tf.f.Src, Dst: tf.f.Dst}.String(),
		})
	}
}

// linkTransport is a link's transport state, immutable once published
// on link.tr: a fault install or a UDP→TCP upgrade publishes a fresh
// snapshot instead of mutating this one, so a transmit in flight uses
// one consistent view.
type linkTransport struct {
	proto  string
	addr   *net.UDPAddr      // UDP remote (kept after an upgrade to TCP)
	fault  *faultnet.Conduit // optional fault injection on the send path
	budget int               // encapsulation datagram budget for proto
	sa     rawSockaddr       // addr prepared for sendmmsg (UDP only)

	// deliver is the fault conduit's delivery callback (nil without a
	// conduit): it puts a released datagram on this transport's wire
	// leg, bypassing the conduit. Built once per snapshot.
	deliver func(any)
}

// newTransport builds a transport snapshot for lk.
func (n *Node) newTransport(lk *link, proto string, addr *net.UDPAddr, fault *faultnet.Conduit) *linkTransport {
	tr := &linkTransport{proto: proto, addr: addr, fault: fault, budget: maxDatagram}
	if proto == "tcp" {
		tr.budget = tcpMaxDatagram
	} else {
		tr.sa = sockaddrFor(n.conn, addr)
	}
	if fault != nil {
		wire := *tr
		wire.fault = nil
		tr.deliver = func(p any) { n.sendDatagram(lk, &wire, p.([]byte)) }
	}
	return tr
}

// txScratch is one transmit's reusable state: the frames that
// encapsulated, the flattened datagram list handed to the transport,
// and the platform's batch-send arrays. A txLoop owns one; synchronous
// sends borrow one from txScratches. Reusing them keeps a steady-state
// transmit allocation-free.
type txScratch struct {
	enc []encFrame
	dgs [][]byte
	udp udpBatch
}

// encFrame is one encapsulated frame of a transmit: its packet, held
// until Release, and the end of its datagrams in txScratch.dgs.
type encFrame struct {
	txFrame
	pkt *bridge.EncapPacket
	end int
}

// txScratches lends scratches to synchronous sends, heartbeat probes
// and fault-conduit deliveries.
var txScratches sync.Pool

func getTxScratch() *txScratch {
	s, _ := txScratches.Get().(*txScratch)
	if s == nil {
		s = new(txScratch)
	}
	return s
}

// txLoop is one link's sender goroutine: it blocks for the first frame
// of a batch, collects until batch-full or the flush timer fires, and
// pushes the whole batch onto the link's transport. The batch size and
// flush bound come from the link's tunables snapshot (lk.tun), loaded
// once per batch: a retune by the adaptive controller or LINK TUNE
// applies from the next batch with no locking here. It exits when the
// node closes or the link is deleted/replaced (the supervision handle's
// Stop); frames still queued at that point are dropped, as a NIC ring's
// are on teardown — and so is any partial batch already collected, which
// is counted into tx_ring_drops on the way out so drain accounting sees
// it. Supervised as "tx/<link>": a panic drops the batch in hand (also
// counted, by the same defer) and the restarted sender resumes draining
// the same ring; a sender stuck inside one batch past the watchdog
// timeout is superseded by a fresh instance over the same ring.
func (n *Node) txLoop(inst *supervise.Instance, lk *link) {
	batch := make([]txFrame, 0, n.cfg.TxBatch)
	// Teardown/panic accounting: whatever sits in batch when this
	// instance unwinds never reached the wire. Count it like a ring
	// overrun so DrainStats and the shutdown summary include it.
	defer func() {
		if len(batch) > 0 {
			lk.txDrops.Add(uint64(len(batch)))
			n.drop(dropTxTeardown, uint64(len(batch)), telemetry.DropDetail{
				Tenant: lk.tenant, Scope: lk.id, Stage: "tx_teardown",
			})
		}
	}()
	var scratch txScratch
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		select {
		case <-n.quit:
			return
		case <-inst.Quit():
			return
		case tf := <-lk.txq:
			inst.Working()
			batch = append(batch, tf)
		}
		tun := lk.tun.Load()
		if len(batch) < tun.batch {
			timer.Reset(tun.flush)
		collect:
			for len(batch) < tun.batch {
				select {
				case <-n.quit:
					return
				case <-inst.Quit():
					return
				case tf := <-lk.txq:
					batch = append(batch, tf)
				case <-timer.C:
					break collect
				}
			}
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		}
		n.transmit(lk, batch, &scratch)
		n.metrics.txBatchSize.Observe(float64(len(batch)))
		for i := range batch {
			batch[i] = txFrame{} // drop frame refs; the ring owns nothing past a flush
		}
		batch = batch[:0]
		inst.Idle()
	}
}

// transmit encapsulates frames and pushes every datagram onto the link's
// transport in one go. The transport snapshot is loaded once, so a
// concurrent fault install or auto-upgrade applies from the next call.
// It returns the first error, while failures are also counted under one
// rule: every datagram is charged to exactly one of bytes_sent and
// send_errors (an encapsulation failure is one send_errors); a frame is
// sent once the transport confirmed all its datagrams (a fault-conduit
// hand-off confirms), and only sent frames count in encap_sent and get
// the wire_tx hop and a TX latency sample.
func (n *Node) transmit(lk *link, frames []txFrame, s *txScratch) error {
	tr := lk.tr.Load()
	var err error
	for _, tf := range frames {
		pkt, eerr := n.encap.EncapsulateSealed(tf.f, n.nextID.Add(1), tr.budget, n.traceExt(tf.f.Tag), lk.sealer)
		if eerr != nil {
			lk.sendErrors.Add(1)
			if err == nil {
				err = eerr
			}
			continue
		}
		if tf.f.Tag != 0 {
			n.tracer.Record(tf.f.Tag, trace.StageEncap)
		}
		if lk.sealer != nil {
			n.metrics.sealSealed.Add(uint64(len(pkt.Datagrams)))
		}
		s.dgs = append(s.dgs, pkt.Datagrams...)
		s.enc = append(s.enc, encFrame{tf, pkt, len(s.dgs)})
	}
	sent, serr := n.send(lk, tr, s)
	if err == nil {
		err = serr
	}
	// The Fig. 7 TX stage budget: frame arrival to its last datagram
	// hitting the wire. Forwarded frames (zero at) are not sampled.
	var now time.Time
	confirmed := 0
	for _, e := range s.enc {
		e.pkt.Release()
		if e.end > sent {
			continue
		}
		confirmed++
		if !e.at.IsZero() {
			if now.IsZero() {
				now = time.Now()
			}
			n.metrics.txLatency.Observe(now.Sub(e.at).Seconds())
		}
		if e.f.Tag != 0 {
			n.tracer.Record(e.f.Tag, trace.StageWireTx)
		}
	}
	n.EncapSent.Add(uint64(confirmed))
	clear(s.enc)
	clear(s.dgs)
	s.enc = s.enc[:0]
	s.dgs = s.dgs[:0]
	return err
}

// send pushes s.dgs onto a link's transport and returns how many
// datagrams it confirmed. With a fault conduit installed each datagram
// is handed to the conduit — a private copy, since the conduit may
// deliver after the pooled buffers are recycled — and charged when the
// conduit releases it. Otherwise it is the wire leg: one flush on TCP,
// sendmmsg on UDP, each datagram charged to bytes_sent or send_errors.
func (n *Node) send(lk *link, tr *linkTransport, s *txScratch) (int, error) {
	if tr.fault != nil {
		for _, d := range s.dgs {
			tr.fault.Send(append([]byte(nil), d...), tr.deliver)
		}
		return len(s.dgs), nil
	}
	var sent int
	var err error
	if tr.proto == "tcp" {
		sent, err = n.sendBatchTCP(lk, s.dgs)
	} else {
		sent, err = s.udp.send(n.conn, tr, s.dgs)
	}
	lk.bytesSent.Add(sumLens(s.dgs[:sent]))
	if sent < len(s.dgs) {
		lk.sendErrors.Add(uint64(len(s.dgs) - sent))
	}
	return sent, err
}

// sendDatagram sends one datagram — a heartbeat probe, or one a fault
// conduit releases — through send on a borrowed scratch.
func (n *Node) sendDatagram(lk *link, tr *linkTransport, d []byte) {
	s := getTxScratch()
	s.dgs = append(s.dgs, d)
	n.send(lk, tr, s)
	s.dgs[0] = nil
	s.dgs = s.dgs[:0]
	txScratches.Put(s)
}

// sendBatchTCP pushes a batch of datagrams down a link's TCP transport
// under one writer lock and a single flush. Returns how many datagrams
// the transport confirmed (see sendDatagrams for what "confirmed"
// means); a failed dial confirms none.
func (n *Node) sendBatchTCP(lk *link, dgs [][]byte) (int, error) {
	if len(dgs) == 0 {
		return 0, nil
	}
	c, err := n.dialTCP(lk)
	if err != nil {
		return 0, err
	}
	sent, err := c.sendDatagrams(dgs)
	if err != nil {
		n.dropTransport(lk, c)
		return sent, err
	}
	return sent, nil
}

// sendBatchUDPFallback is the portable per-datagram transmit loop, used
// on platforms without sendmmsg and as the escape hatch when a batch
// send cannot be prepared (exotic socket family). Returns how many
// datagrams were fully sent.
func sendBatchUDPFallback(c *net.UDPConn, dgs [][]byte, addr *net.UDPAddr) (int, error) {
	for i, d := range dgs {
		if _, err := c.WriteToUDP(d, addr); err != nil {
			return i, err
		}
	}
	return len(dgs), nil
}

// sumLens totals the byte lengths of a datagram batch (for bytes_sent
// accounting with one atomic add).
func sumLens(dgs [][]byte) uint64 {
	var t uint64
	for _, d := range dgs {
		t += uint64(len(d))
	}
	return t
}

// DrainTX dequeues up to max frames (all if max <= 0) from a virtio TX
// queue with single-VM-exit batch semantics and routes them into the
// overlay via SendBatch. buf is an optional reusable scratch slice so a
// polling VMM loop allocates nothing per drain. Returns how many frames
// were drained (routing errors are aggregated, not counted out).
func (ep *Endpoint) DrainTX(q *virtio.Queue, buf []*ethernet.Frame, max int) (int, error) {
	frames := q.PopBatchInto(buf[:0], max)
	if len(frames) == 0 {
		return 0, nil
	}
	err := ep.SendBatch(frames)
	for i := range frames {
		frames[i] = nil
	}
	return len(frames), err
}
