//go:build !linux || !(amd64 || arm64)

package overlay

import "net"

// rawSockaddr is empty on platforms without sendmmsg: nothing to
// prepare.
type rawSockaddr struct{}

func sockaddrFor(*net.UDPConn, *net.UDPAddr) rawSockaddr { return rawSockaddr{} }

// udpBatch on platforms without sendmmsg: the per-datagram loop.
// Batching still amortizes wakeups and encapsulation buffers; only the
// syscall count stays per-datagram.
type udpBatch struct{}

func (udpBatch) send(c *net.UDPConn, tr *linkTransport, dgs [][]byte) (int, error) {
	return sendBatchUDPFallback(c, dgs, tr.addr)
}
