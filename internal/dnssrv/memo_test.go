package dnssrv_test

import (
	"bytes"
	"net/netip"
	"testing"

	"crosslayer/internal/dnssrv"
	"crosslayer/internal/dnswire"
	"crosslayer/internal/netsim"
	"crosslayer/internal/scenario"
)

// udpClient sends raw queries from the attacker host to the victim
// nameserver and keeps a copy of every response payload.
type udpClient struct {
	s    *scenario.S
	port uint16
	got  [][]byte
}

func newUDPClient(s *scenario.S) *udpClient {
	c := &udpClient{s: s}
	c.port = s.Attacker.BindUDP(0, func(dg netsim.Datagram) {
		c.got = append(c.got, append([]byte(nil), dg.Payload...))
	})
	return c
}

// send queues n copies of q without running the network.
func (c *udpClient) send(t *testing.T, q *dnswire.Message, n int) {
	t.Helper()
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		c.s.Attacker.SendUDP(c.port, scenario.NSIP, 53, wire)
	}
}

// exchange sends q once and returns the one response it draws.
func (c *udpClient) exchange(t *testing.T, q *dnswire.Message) []byte {
	t.Helper()
	c.got = c.got[:0]
	c.send(t, q, 1)
	c.s.Run()
	if len(c.got) != 1 {
		t.Fatalf("%d responses to one query", len(c.got))
	}
	return c.got[0]
}

func query(id uint16, name string, typ dnswire.Type, edns uint16) *dnswire.Message {
	q := dnswire.NewQuery(id, name, typ)
	if edns > 0 {
		q.SetEDNS(edns, false)
	}
	return q
}

// rebuild computes the UDP response to q from scratch: BuildResponse,
// pack, then the EDNS truncation rule (TC with the question only once
// the response exceeds the advertised size, or 512 without EDNS).
func rebuild(t *testing.T, ns *dnssrv.Server, q *dnswire.Message) (wire []byte, truncated bool) {
	t.Helper()
	resp := ns.BuildResponse(q)
	wire, err := resp.Pack()
	if err != nil {
		t.Fatal(err)
	}
	limit := 512
	if sz, _, ok := q.EDNS(); ok {
		limit = int(sz)
	}
	if len(wire) <= limit {
		return wire, false
	}
	tr := &dnswire.Message{
		ID: resp.ID, Response: true, Authoritative: resp.Authoritative,
		Truncated: true, RecursionDesired: resp.RecursionDesired,
		RCode: resp.RCode, Questions: resp.Questions,
	}
	if wire, err = tr.Pack(); err != nil {
		t.Fatal(err)
	}
	return wire, true
}

// TestMemoMatchesRebuild sends a query sequence with repeats, ID and
// 0x20 case changes, EDNS sizes that force truncation, ANY, NXDOMAIN
// and REFUSED, and requires every response to equal a fresh rebuild.
func TestMemoMatchesRebuild(t *testing.T) {
	cfg := dnssrv.DefaultConfig()
	cfg.PadAnswersTo = 1300
	s := scenario.New(scenario.Config{Seed: 1, ServerCfg: cfg})
	c := newUDPClient(s)
	www := query(1, "www.vict.im.", dnswire.TypeA, 4096)
	seq := []*dnswire.Message{
		www, www, www,
		query(2, "www.vict.im.", dnswire.TypeA, 4096),
		query(2, "WwW.vIcT.iM.", dnswire.TypeA, 4096),
		query(3, "www.vict.im.", dnswire.TypeA, 1232),
		query(3, "www.vict.im.", dnswire.TypeA, 1232),
		query(3, "www.vict.im.", dnswire.TypeA, 0),
		query(3, "www.vict.im.", dnswire.TypeA, 0),
		query(4, "vict.im.", dnswire.TypeANY, 4096),
		query(4, "vict.im.", dnswire.TypeANY, 4096),
		query(5, "missing.vict.im.", dnswire.TypeA, 4096),
		query(5, "missing.vict.im.", dnswire.TypeA, 4096),
		query(6, "other.example.", dnswire.TypeA, 4096),
		query(6, "other.example.", dnswire.TypeA, 4096),
		www,
	}
	var truncated uint64
	for i, q := range seq {
		got := c.exchange(t, q)
		want, tc := rebuild(t, s.NS, q)
		if !bytes.Equal(got, want) {
			t.Fatalf("query %d (%s id=%d): response differs from rebuild", i, q.Question().Name, q.ID)
		}
		if tc {
			truncated++
		}
		if wire, _ := q.Pack(); !bytes.Equal(s.NS.MemoQuery(), wire) {
			t.Fatalf("query %d not memoized", i)
		}
	}
	if truncated != 4 {
		t.Fatalf("sequence truncated %d responses, want 4", truncated)
	}
	n := uint64(len(seq))
	if s.NS.Queries != n || s.NS.Responses != n || s.NS.Truncated != truncated || s.NS.RateDropped != 0 {
		t.Fatalf("counters q=%d r=%d tc=%d drop=%d, want %d/%d/%d/0",
			s.NS.Queries, s.NS.Responses, s.NS.Truncated, s.NS.RateDropped, n, n, truncated)
	}
}

// TestMemoBurstCounters floods the server with 400 identical queries,
// with RRL on and off, and requires the memoized server to count and
// send exactly what a server whose memo is bypassed (an observation
// hook is set) does.
func TestMemoBurstCounters(t *testing.T) {
	burst := func(rrl, bypass bool) ([4]uint64, [][]byte) {
		cfg := dnssrv.DefaultConfig()
		cfg.PadAnswersTo = 1300
		cfg.RateLimit, cfg.RateLimitQPS = rrl, 100
		s := scenario.New(scenario.Config{Seed: 1, ServerCfg: cfg})
		if bypass {
			s.NS.Observe = func(*dnswire.Message, netip.Addr, string) {}
		}
		c := newUDPClient(s)
		c.send(t, query(9, "www.vict.im.", dnswire.TypeA, 1232), 400)
		s.Run()
		return [4]uint64{s.NS.Queries, s.NS.Responses, s.NS.RateDropped, s.NS.Truncated}, c.got
	}
	for _, rrl := range []bool{false, true} {
		got, gotReplies := burst(rrl, false)
		want, wantReplies := burst(rrl, true)
		if got != want {
			t.Errorf("rrl=%v: queries/responses/dropped/truncated %v, bypassed %v", rrl, got, want)
		}
		sent := uint64(400)
		if rrl {
			sent = 100
		}
		if got != [4]uint64{400, sent, 400 - sent, sent} {
			t.Errorf("rrl=%v: counters %v, want [400 %d %d %d]", rrl, got, sent, 400-sent, sent)
		}
		if len(gotReplies) != len(wantReplies) {
			t.Fatalf("rrl=%v: %d replies, bypassed %d", rrl, len(gotReplies), len(wantReplies))
		}
		for i := range gotReplies {
			if !bytes.Equal(gotReplies[i], wantReplies[i]) {
				t.Fatalf("rrl=%v: reply %d differs from the bypassed server's", rrl, i)
			}
		}
	}
}

// TestMemoInvalidation edits each input a memoized response depends on
// and requires the next identical query to see the edit.
func TestMemoInvalidation(t *testing.T) {
	s := scenario.New(scenario.Config{Seed: 1})
	c := newUDPClient(s)
	q := query(1, "www.vict.im.", dnswire.TypeA, 4096)
	prev := c.exchange(t, q)
	edits := []struct {
		name string
		edit func()
	}{
		{"Zone.Add", func() {
			s.VictimZone.Add(dnswire.NewA("www.vict.im.", 300, netip.MustParseAddr("123.0.0.81")))
		}},
		{"Zone.Signed", func() { s.VictimZone.Signed = true }},
		{"AddZone", func() {
			s.NS.AddZone(dnssrv.NewZone("www.vict.im.").
				Add(dnswire.NewA("www.vict.im.", 60, netip.MustParseAddr("123.0.0.82"))))
		}},
		{"Cfg", func() { s.NS.Cfg.PadAnswersTo = 1000 }},
	}
	for _, e := range edits {
		e.edit()
		got := c.exchange(t, q)
		if want, _ := rebuild(t, s.NS, q); !bytes.Equal(got, want) {
			t.Fatalf("after %s: response differs from rebuild", e.name)
		}
		if bytes.Equal(got, prev) {
			t.Fatalf("after %s: response unchanged", e.name)
		}
		prev = got
	}
}

// TestMemoBypassedUnderRandomizeOrder requires repeated queries to keep
// reshuffling: the shuffle draws from the host RNG on every response.
func TestMemoBypassedUnderRandomizeOrder(t *testing.T) {
	cfg := dnssrv.DefaultConfig()
	cfg.RandomizeOrder = true
	cfg.PadAnswersTo = 900
	s := scenario.New(scenario.Config{Seed: 3, ServerCfg: cfg})
	c := newUDPClient(s)
	q := query(5, "www.vict.im.", dnswire.TypeA, 4096)
	distinct := map[string]bool{}
	for i := 0; i < 16; i++ {
		distinct[string(c.exchange(t, q))] = true
	}
	if len(distinct) < 2 {
		t.Fatal("repeated queries under RandomizeOrder got one answer order")
	}
	if len(s.NS.MemoQuery()) != 0 {
		t.Fatal("memo stored under RandomizeOrder")
	}
}

// TestMemoBypassedUnderObserve requires the observation hook to see
// every query of a burst of identical ones.
func TestMemoBypassedUnderObserve(t *testing.T) {
	s := scenario.New(scenario.Config{Seed: 1})
	seen := 0
	s.NS.Observe = func(*dnswire.Message, netip.Addr, string) { seen++ }
	c := newUDPClient(s)
	c.send(t, query(5, "www.vict.im.", dnswire.TypeA, 0), 50)
	s.Run()
	if seen != 50 || s.NS.Queries != 50 || len(c.got) != 50 {
		t.Fatalf("observed %d, counted %d, answered %d of 50 queries", seen, s.NS.Queries, len(c.got))
	}
	if len(s.NS.MemoQuery()) != 0 {
		t.Fatal("memo stored while observed")
	}
}

func TestResetDropsMemo(t *testing.T) {
	s := scenario.New(scenario.Config{Seed: 1})
	c := newUDPClient(s)
	q := query(5, "www.vict.im.", dnswire.TypeA, 0)
	c.exchange(t, q)
	if len(s.NS.MemoQuery()) == 0 {
		t.Fatal("answered query not memoized")
	}
	s.NS.Reset()
	if len(s.NS.MemoQuery()) != 0 {
		t.Fatal("Reset kept the memo")
	}
	if want, _ := rebuild(t, s.NS, q); !bytes.Equal(c.exchange(t, q), want) {
		t.Fatal("response after Reset differs from rebuild")
	}
}
