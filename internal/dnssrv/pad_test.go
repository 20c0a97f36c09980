package dnssrv

import (
	"bytes"
	"fmt"
	"net/netip"
	"strings"
	"testing"

	"crosslayer/internal/dnswire"
)

// referencePad is the original quadratic padding loop: repack the whole
// message before every filler and stop once the floor is reached. pad
// must reproduce its output byte for byte.
func referencePad(s *Server, resp *dnswire.Message, qname string) {
	fillerName := "filler." + strings.TrimPrefix(dnswire.CanonicalName(qname), "filler.")
	chunk := strings.Repeat("x", 194)
	for i := 0; i < 64; i++ {
		wire, err := resp.AppendPack(nil)
		if err != nil || len(wire) >= s.Cfg.PadAnswersTo {
			return
		}
		filler := dnswire.NewTXT(fillerName, 300, fmt.Sprintf("%s%06d", chunk, i))
		resp.Answers = append([]*dnswire.RR{filler}, resp.Answers...)
	}
}

// referenceBuild is BuildResponse with referencePad in place of pad,
// for the answer-bearing queries the differential test sends.
func referenceBuild(s *Server, query *dnswire.Message) *dnswire.Message {
	q := query.Question()
	resp := &dnswire.Message{
		ID: query.ID, Response: true, Authoritative: true,
		RecursionDesired: query.RecursionDesired,
		Questions:        query.Questions,
	}
	if sz, do, ok := query.EDNS(); ok {
		resp.SetEDNS(sz, do)
	}
	zone := s.Zone(q.Name)
	answers, _ := zone.Lookup(q.Name, q.Type)
	resp.Answers = append(resp.Answers, answers...)
	if s.Cfg.PadAnswersTo > 0 {
		referencePad(s, resp, q.Name)
	}
	stableByOrder(resp.Answers)
	if zone.Signed {
		s.sign(resp, zone)
	}
	return resp
}

func padTestZone(signed bool) *Zone {
	addr := netip.MustParseAddr("192.0.2.1")
	z := NewZone("pad.test.")
	z.Signed = signed
	long := "a-rather-long-label.with.several.more.labels.below.the-apex.pad.test."
	for _, name := range []string{"pad.test.", long, "filler.www.pad.test."} {
		z.Add(
			dnswire.NewA(name, 300, addr),
			dnswire.NewTXT(name, 300, "v=spf1 -all"),
			dnswire.NewMX(name, 300, 10, "mail.pad.test."),
		)
	}
	return z
}

// TestPadMatchesReference compares every padded response byte for byte
// with the original loop's, across floors from none to past the filler
// cap, short, long and filler-prefixed names (in 0x20 mixed case too),
// A and ANY, and signed and unsigned zones.
func TestPadMatchesReference(t *testing.T) {
	names := []string{
		"pad.test.",
		"a-rather-long-label.with.several.more.labels.below.the-apex.pad.test.",
		"filler.www.pad.test.",
		"FiLLeR.wWw.PaD.TeSt.",
	}
	for _, signed := range []bool{false, true} {
		zone := padTestZone(signed)
		for _, floor := range []int{0, 512, 1200, 1280, 1400, 20000} {
			s := &Server{Cfg: DefaultConfig(), zones: map[string]*Zone{}}
			s.Cfg.PadAnswersTo = floor
			s.AddZone(zone)
			for _, name := range names {
				for _, typ := range []dnswire.Type{dnswire.TypeA, dnswire.TypeANY} {
					q := dnswire.NewQuery(7, name, typ)
					q.SetEDNS(4096, false)
					got, err := s.BuildResponse(q).Pack()
					if err != nil {
						t.Fatal(err)
					}
					want, err := referenceBuild(s, q).Pack()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Errorf("signed=%v floor=%d %s %v: %d bytes, reference %d",
							signed, floor, name, typ, len(got), len(want))
					}
				}
			}
		}
	}
}
