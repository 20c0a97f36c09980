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
