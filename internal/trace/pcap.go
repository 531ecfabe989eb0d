package trace

import (
	"encoding/binary"
	"sync"
)

// Packet is one network packet offered to the capturer.
type Packet struct {
	// TimeMS is the capture timestamp in milliseconds.
	TimeMS int64
	// Payload is the packet body.
	Payload []byte
}

// DefaultSnapLen mirrors tcpdump's classic default capture length.
const DefaultSnapLen = 262144

// PacketCapture is a tcpdump-like capturer: each packet costs a record
// header write plus a bounded payload copy. Unlike the syscall tracer it
// records no process context, which is why the paper prefers sysdig: raw
// addresses would have to be mapped to components externally and break
// under NAT (§3.1). It is only Fig. 5's cost comparison point, so it keeps
// counters and no addresses. It is safe for concurrent use.
type PacketCapture struct {
	mu      sync.Mutex
	snapLen int
	records int
	bytes   int
	buf     []byte
}

// NewPacketCapture creates a capturer; snapLen <= 0 uses DefaultSnapLen.
func NewPacketCapture(snapLen int) *PacketCapture {
	if snapLen <= 0 {
		snapLen = DefaultSnapLen
	}
	return &PacketCapture{snapLen: snapLen}
}

// Capture records one packet: a 16-byte pcap record header plus the
// truncated payload copy, the real per-packet work tcpdump performs.
func (p *PacketCapture) Capture(pkt Packet) {
	p.mu.Lock()
	defer p.mu.Unlock()

	n := len(pkt.Payload)
	if n > p.snapLen {
		n = p.snapLen
	}
	// pcap record header: ts_sec, ts_usec, incl_len, orig_len.
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(pkt.TimeMS/1000))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(pkt.TimeMS%1000)*1000)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(n))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(pkt.Payload)))

	p.buf = p.buf[:0]
	p.buf = append(p.buf, hdr[:]...)
	p.buf = append(p.buf, pkt.Payload[:n]...)

	p.records++
	p.bytes += len(p.buf)
}

// PcapStats summarizes capture activity.
type PcapStats struct {
	// Records is the number of captured packets.
	Records int
	// Bytes is the total pcap record volume (headers + snapped payloads).
	Bytes int
}

// Stats returns a snapshot of the counters.
func (p *PacketCapture) Stats() PcapStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PcapStats{Records: p.records, Bytes: p.bytes}
}
