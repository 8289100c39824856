//go:build linux && (amd64 || arm64)

// recvmmsg(2) batch receive: one syscall drains a burst of datagrams
// from the UDP socket, mirroring the sendmmsg transmit path. The reader
// owns a fixed set of 64KiB buffers and mmsghdr/iovec/sockaddr arrays,
// rebuilt never. Each datagram is copied into a pooled receive slot
// (rxBuffer) handed up the stack; only datagrams over rxSlotSize get an
// allocated copy. Senders decode into netip.AddrPort values and the
// poller callback is built once, so a batch of datagrams within the
// slot size allocates nothing.

package overlay

import (
	"net"
	"net/netip"
	"syscall"
	"unsafe"
)

// mmsgReader is the linux batchReader: a non-blocking recvmmsg loop
// integrated with the runtime poller via RawConn.Read (EAGAIN parks the
// goroutine until readable; EINTR retries the syscall).
type mmsgReader struct {
	rc    syscall.RawConn
	bufs  [][]byte
	iovs  []syscall.Iovec
	msgs  []mmsghdr
	names []syscall.RawSockaddrInet6 // big enough for both families

	// recv is the RawConn.Read callback, bound once at construction (a
	// per-call closure would allocate on every batch); want is its input
	// and got/opErr its results, all owned by the single reader.
	recv      func(fd uintptr) bool
	want, got int
	opErr     error
}

func newPlatformBatchReader(c *net.UDPConn, batch int) batchReader {
	rc, err := c.SyscallConn()
	if err != nil {
		return nil
	}
	r := &mmsgReader{
		rc:    rc,
		bufs:  make([][]byte, batch),
		iovs:  make([]syscall.Iovec, batch),
		msgs:  make([]mmsghdr, batch),
		names: make([]syscall.RawSockaddrInet6, batch),
	}
	for i := range r.msgs {
		r.bufs[i] = make([]byte, 65536)
		r.iovs[i].Base = &r.bufs[i][0]
		r.iovs[i].SetLen(len(r.bufs[i]))
		r.msgs[i].hdr.Iov = &r.iovs[i]
		r.msgs[i].hdr.Iovlen = 1 // uint64 on both supported 64-bit arches
		r.msgs[i].hdr.Name = (*byte)(unsafe.Pointer(&r.names[i]))
	}
	r.recv = r.recvmmsg
	return r
}

// recvmmsg is the poller callback: one non-blocking recvmmsg(2) of up
// to r.want datagrams. It reports false (park until readable) on EAGAIN
// and retries EINTR in place.
func (r *mmsgReader) recvmmsg(fd uintptr) bool {
	for {
		n1, _, errno := syscall.Syscall6(sysRecvmmsg, fd,
			uintptr(unsafe.Pointer(&r.msgs[0])), uintptr(r.want), 0, 0, 0)
		switch {
		case errno == syscall.EINTR:
			continue // interrupted before any datagram: retry
		case errno == syscall.EAGAIN:
			return false // park on the poller until readable
		case errno != 0:
			r.opErr = errno
			return true
		}
		r.got = int(n1)
		return true
	}
}

func (r *mmsgReader) readBatch(into []rxPacket) (int, error) {
	want := len(into)
	if want > len(r.msgs) {
		want = len(r.msgs)
	}
	// Namelen is value-result: the kernel shrinks it to the sockaddr it
	// wrote, so it must be restored to the buffer size before every call.
	for i := 0; i < want; i++ {
		r.msgs[i].hdr.Namelen = uint32(unsafe.Sizeof(r.names[i]))
	}
	r.want, r.got, r.opErr = want, 0, nil
	if err := r.rc.Read(r.recv); err != nil {
		return 0, err // socket closed (shutdown) or poller error
	}
	if r.opErr != nil {
		return 0, r.opErr
	}
	got := r.got
	for i := 0; i < got; i++ {
		sz := int(r.msgs[i].cnt)
		pkt, slot := rxBuffer(sz)
		copy(pkt, r.bufs[i][:sz])
		into[i] = rxPacket{pkt: pkt, slot: slot, from: addrPortOf(&r.names[i])}
	}
	return got, nil
}

// addrPortOf decodes a kernel-written sockaddr into a netip.AddrPort.
// The storage is RawSockaddrInet6-sized; AF_INET reinterprets the prefix
// as RawSockaddrInet4 (the layouts agree through the family field). Ports
// are network byte order in both. An IPv4-mapped IPv6 sender (a socket
// bound to [::]) is unmapped so its key matches the v4 link address.
func addrPortOf(sa *syscall.RawSockaddrInet6) netip.AddrPort {
	switch sa.Family {
	case syscall.AF_INET:
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		p := (*[2]byte)(unsafe.Pointer(&sa4.Port))
		return netip.AddrPortFrom(netip.AddrFrom4(sa4.Addr), uint16(p[0])<<8|uint16(p[1]))
	case syscall.AF_INET6:
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		ip := netip.AddrFrom16(sa.Addr).Unmap()
		if sa.Scope_id != 0 {
			// Interface-name zone, or none when the index is unknown:
			// enough for equality and attribution; the overlay never
			// dials zoned addresses itself.
			if ifi, err := net.InterfaceByIndex(int(sa.Scope_id)); err == nil {
				ip = ip.WithZone(ifi.Name)
			}
		}
		return netip.AddrPortFrom(ip, uint16(p[0])<<8|uint16(p[1]))
	}
	return netip.AddrPort{}
}
