package packet

import (
	"bytes"
	"testing"
)

// FuzzDecodeICMP: the ICMP decoder every received error and echo flows
// through must never panic; DecodeICMP and DecodeICMPInto (into a
// struct left dirty by an earlier message) must agree on acceptance
// and on every field; and any message they accept must re-serialize
// into bytes that decode to the same message. CI runs a short -fuzz
// smoke:
//
//	go test -run '^$' -fuzz=FuzzDecodeICMP -fuzztime=30s ./internal/packet
func FuzzDecodeICMP(f *testing.F) {
	quote, err := QuoteDatagram(&IPv4{ID: 9, TTL: 64, Protocol: ProtoUDP, Src: ipA, Dst: ipB, Payload: make([]byte, 40)})
	if err != nil {
		f.Fatal(err)
	}
	for _, ic := range []*ICMP{
		{Type: ICMPTypeEcho, ID: 0x55, Seq: 9, Payload: []byte("ping")},
		{Type: ICMPTypeEchoReply, ID: 1, Seq: 2},
		{Type: ICMPTypeDestUnreach, Code: ICMPCodePortUnreach, Payload: quote},
		{Type: ICMPTypeDestUnreach, Code: ICMPCodeFragNeeded, MTU: 292, Payload: quote},
		{Type: ICMPTypeTimeExceeded, Payload: quote},
	} {
		wire, err := ic.Serialize(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
	}
	f.Add([]byte{})
	f.Add(make([]byte, ICMPHeaderLen-1))
	f.Fuzz(func(t *testing.T, data []byte) {
		want, err := DecodeICMP(data)
		dirty := ICMP{Type: 0xff, Code: 0xff, ID: 0xffff, Seq: 0xffff, MTU: 0xffff, Payload: []byte("stale")}
		errInto := DecodeICMPInto(&dirty, data)
		if (err == nil) != (errInto == nil) {
			t.Fatalf("DecodeICMP error %v, DecodeICMPInto error %v", err, errInto)
		}
		if err != nil {
			return
		}
		if !sameICMP(want, &dirty) {
			t.Fatalf("DecodeICMP %+v, DecodeICMPInto %+v", want, dirty)
		}
		wire, err := want.Serialize(nil)
		if err != nil {
			t.Fatalf("accepted message does not re-serialize: %v", err)
		}
		again, err := DecodeICMP(wire)
		if err != nil {
			t.Fatalf("re-serialized message does not decode: %v", err)
		}
		if !sameICMP(want, again) {
			t.Fatalf("round trip changed the message: %+v vs %+v", want, again)
		}
	})
}

func sameICMP(a, b *ICMP) bool {
	return a.Type == b.Type && a.Code == b.Code && a.ID == b.ID && a.Seq == b.Seq &&
		a.MTU == b.MTU && bytes.Equal(a.Payload, b.Payload)
}

// FuzzDecodeIPv4: the IPv4 decoder, which reads the datagrams quoted
// in attacker-spoofable ICMP errors, must never panic, and any packet
// it accepts must re-serialize into bytes that decode to the same
// fields. Options and the reserved flag bit are not fields, so they do
// not survive; neither does a TTL of 0, which Serialize writes as its
// default 64.
//
//	go test -run '^$' -fuzz=FuzzDecodeIPv4 -fuzztime=30s ./internal/packet
func FuzzDecodeIPv4(f *testing.F) {
	for _, ip := range []*IPv4{
		{ID: 9, TTL: 64, Protocol: ProtoUDP, Src: ipA, Dst: ipB, Payload: []byte("hello-dns")},
		{ID: 0xbeef, DF: true, TTL: 1, Protocol: ProtoICMP, Src: ipB, Dst: ipA},
		{ID: 7, MF: true, FragOff: 185, TOS: 0x10, Protocol: ProtoUDP, Src: ipA, Dst: ipB, Payload: make([]byte, 48)},
		{ID: 7, FragOff: 0x1fff, Protocol: ProtoTCP, Src: ipA, Dst: ipB, Payload: []byte{1}},
	} {
		wire, err := ip.Serialize(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
	}
	f.Add([]byte{})
	f.Add(make([]byte, IPv4HeaderLen-1))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeIPv4(data)
		if err != nil {
			return
		}
		wire, err := got.Serialize(nil)
		if err != nil {
			t.Fatalf("accepted packet does not re-serialize: %v", err)
		}
		again, err := DecodeIPv4(wire)
		if err != nil {
			t.Fatalf("re-serialized packet does not decode: %v", err)
		}
		want := *got
		if want.TTL == 0 {
			want.TTL = 64
		}
		if !sameIPv4(&want, again) {
			t.Fatalf("round trip changed the packet: %+v vs %+v", want, again)
		}
	})
}

func sameIPv4(a, b *IPv4) bool {
	return a.TOS == b.TOS && a.ID == b.ID && a.DF == b.DF && a.MF == b.MF && a.FragOff == b.FragOff &&
		a.TTL == b.TTL && a.Protocol == b.Protocol && a.Src == b.Src && a.Dst == b.Dst &&
		bytes.Equal(a.Payload, b.Payload)
}

// FuzzDecodeUDP: the UDP decoder every delivered datagram flows
// through must never panic; DecodeUDP and DecodeUDPInto (into a struct
// left dirty by an earlier datagram) must agree on acceptance and on
// every decoded field; any datagram they accept must re-serialize into
// bytes that verify and decode to the same ports and payload; and a
// datagram whose nonzero checksum verifies re-serializes byte for byte.
// ForceChecksum is a serialize-side flag decoding leaves alone, so the
// dirty struct keeps it clear.
//
//	go test -run '^$' -fuzz=FuzzDecodeUDP -fuzztime=30s ./internal/packet
func FuzzDecodeUDP(f *testing.F) {
	for _, u := range []*UDP{
		{SrcPort: 53, DstPort: 33000, Payload: []byte("dns-response")},
		{SrcPort: 1, DstPort: 2},
		{SrcPort: 53, DstPort: 53, Payload: make([]byte, 513)},
		{SrcPort: 7, DstPort: 9, ForceChecksum: true, Payload: []byte("no checksum")},
		{SrcPort: 7, DstPort: 9, Checksum: 0xbeef, ForceChecksum: true, Payload: []byte("bad checksum")},
	} {
		wire, err := u.Serialize(nil, ipA, ipB)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
	}
	f.Add([]byte{})
	f.Add(make([]byte, UDPHeaderLen-1))
	f.Fuzz(func(t *testing.T, data []byte) {
		want, err := DecodeUDP(data, ipA, ipB, false)
		dirty := UDP{SrcPort: 0xffff, DstPort: 0xffff, Checksum: 0xffff, Payload: []byte("stale")}
		errInto := DecodeUDPInto(&dirty, data, ipA, ipB, false)
		if (err == nil) != (errInto == nil) {
			t.Fatalf("DecodeUDP error %v, DecodeUDPInto error %v", err, errInto)
		}
		if err != nil {
			return
		}
		if !sameUDP(want, &dirty) || want.Checksum != dirty.Checksum {
			t.Fatalf("DecodeUDP %+v, DecodeUDPInto %+v", want, dirty)
		}
		wire, err := want.Serialize(nil, ipA, ipB)
		if err != nil {
			t.Fatalf("accepted datagram does not re-serialize: %v", err)
		}
		again, err := DecodeUDP(wire, ipA, ipB, true)
		if err != nil {
			t.Fatalf("re-serialized datagram does not verify: %v", err)
		}
		if !sameUDP(want, again) {
			t.Fatalf("round trip changed the datagram: %+v vs %+v", want, again)
		}
		if want.Checksum != 0 && DecodeUDPInto(&dirty, data, ipA, ipB, true) == nil &&
			!bytes.Equal(wire, data[:UDPHeaderLen+len(want.Payload)]) {
			t.Fatalf("verified datagram re-serializes as %x, was %x", wire, data)
		}
	})
}

func sameUDP(a, b *UDP) bool {
	return a.SrcPort == b.SrcPort && a.DstPort == b.DstPort && a.ForceChecksum == b.ForceChecksum &&
		bytes.Equal(a.Payload, b.Payload)
}
