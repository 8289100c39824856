//go:build linux && (amd64 || arm64)

// sendmmsg(2) batch transmit: one syscall moves a whole TX batch, the
// userspace analogue of the per-batch (not per-packet) VMM exits the
// paper credits for VNET/P's throughput (Sect. 4.3). The netmap/mTCP
// line of work (PAPERS.md) identifies exactly this — syscall batching —
// as the dominant per-packet cost lever for user-level datapaths.

package overlay

import (
	"net"
	"syscall"
	"unsafe"
)

// mmsghdr mirrors struct mmsghdr on 64-bit Linux: a msghdr plus the
// kernel-filled per-message byte count, padded so array elements stay
// 8-byte aligned.
type mmsghdr struct {
	hdr syscall.Msghdr
	cnt uint32
	_   [4]byte
}

// rawSockaddr is a destination sockaddr prepared once per link
// transport for sendmmsg's msghdr.Name (p nil when the stdlib must
// translate the address instead).
type rawSockaddr struct {
	p unsafe.Pointer
	n uint32
}

// udpBatch is a scratch's sendmmsg state: the iovec and mmsghdr arrays,
// grown to the largest batch seen and reused, and the RawConn with its
// write callback, bound once per socket (a per-call SyscallConn and
// closure would allocate on every send).
type udpBatch struct {
	conn  *net.UDPConn
	rc    syscall.RawConn
	write func(fd uintptr) bool
	iovs  []syscall.Iovec
	msgs  []mmsghdr
	sent  int
	opErr error
}

// send transmits a batch of datagrams to tr's address in as few
// syscalls as possible. Returns how many datagrams were sent; on error
// the remainder were not. A single datagram is one plain write; the
// portable per-datagram loop covers destinations whose sockaddr could
// not be prepared for the socket's family (dual-stack wildcard binds,
// zoned IPv6).
func (b *udpBatch) send(c *net.UDPConn, tr *linkTransport, dgs [][]byte) (int, error) {
	switch {
	case len(dgs) == 0:
		return 0, nil
	case len(dgs) == 1:
		if _, err := c.WriteToUDP(dgs[0], tr.addr); err != nil {
			return 0, err
		}
		return 1, nil
	case tr.sa.p == nil:
		return sendBatchUDPFallback(c, dgs, tr.addr)
	}
	if b.conn != c {
		rc, err := c.SyscallConn()
		if err != nil {
			return sendBatchUDPFallback(c, dgs, tr.addr)
		}
		b.conn, b.rc = c, rc
		if b.write == nil {
			b.write = b.sendmmsg
		}
	}
	if cap(b.msgs) < len(dgs) {
		b.iovs = make([]syscall.Iovec, len(dgs))
		b.msgs = make([]mmsghdr, len(dgs))
	}
	b.msgs = b.msgs[:len(dgs)]
	for i, d := range dgs {
		b.iovs[i].Base = &d[0]
		b.iovs[i].SetLen(len(d))
		b.msgs[i].hdr.Name = (*byte)(tr.sa.p)
		b.msgs[i].hdr.Namelen = tr.sa.n
		b.msgs[i].hdr.Iov = &b.iovs[i]
		b.msgs[i].hdr.Iovlen = 1 // uint64 on both supported 64-bit arches
	}
	b.sent, b.opErr = 0, nil
	werr := b.rc.Write(b.write)
	sent, opErr := b.sent, b.opErr
	for i := range dgs {
		b.iovs[i].Base = nil // drop the pooled buffers' refs
	}
	if opErr == nil {
		opErr = werr
	}
	return sent, opErr
}

// sendmmsg is the poller callback: non-blocking sendmmsg(2) of the
// prepared messages until all are sent. It reports false (park until
// writable) on EAGAIN and retries EINTR in place.
func (b *udpBatch) sendmmsg(fd uintptr) bool {
	for b.sent < len(b.msgs) {
		r1, _, errno := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&b.msgs[b.sent])), uintptr(len(b.msgs)-b.sent), 0, 0, 0)
		switch {
		case errno == syscall.EINTR:
			continue
		case errno == syscall.EAGAIN:
			return false // reschedule on the poller until writable
		case errno != 0:
			b.opErr = errno
			return true
		case r1 == 0:
			b.opErr = syscall.EIO // defensive: sendmmsg never legally sends zero
			return true
		}
		b.sent += int(r1)
	}
	return true
}

// sockaddrFor builds the raw destination sockaddr matching the socket's
// address family, or none when the combination needs the stdlib's
// translation (dual-stack wildcard, v4/v6 mismatch, zoned address).
func sockaddrFor(c *net.UDPConn, addr *net.UDPAddr) rawSockaddr {
	local, _ := c.LocalAddr().(*net.UDPAddr)
	if local == nil || len(local.IP) == 0 {
		// Wildcard bind: the socket may be dual-stack AF_INET6 expecting
		// v4-mapped destinations — let WriteToUDP translate.
		return rawSockaddr{}
	}
	if local.IP.To4() != nil {
		dst := addr.IP.To4()
		if dst == nil {
			return rawSockaddr{}
		}
		sa := &syscall.RawSockaddrInet4{Family: syscall.AF_INET}
		copy(sa.Addr[:], dst)
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		p[0] = byte(addr.Port >> 8)
		p[1] = byte(addr.Port)
		return rawSockaddr{unsafe.Pointer(sa), uint32(unsafe.Sizeof(*sa))}
	}
	if addr.Zone != "" {
		return rawSockaddr{}
	}
	dst := addr.IP.To16()
	if dst == nil {
		return rawSockaddr{}
	}
	sa := &syscall.RawSockaddrInet6{Family: syscall.AF_INET6}
	copy(sa.Addr[:], dst)
	p := (*[2]byte)(unsafe.Pointer(&sa.Port))
	p[0] = byte(addr.Port >> 8)
	p[1] = byte(addr.Port)
	return rawSockaddr{unsafe.Pointer(sa), uint32(unsafe.Sizeof(*sa))}
}
