package crosslayer_test

import (
	"net/netip"
	"testing"
	"time"

	"crosslayer/internal/dnssrv"
	"crosslayer/internal/dnswire"
	"crosslayer/internal/engine"
	"crosslayer/internal/netsim"
	"crosslayer/internal/packet"
	"crosslayer/internal/resolver"
	"crosslayer/internal/scenario"
	"crosslayer/internal/sim"
)

// These tests pin the zero-allocation contract of the trial hot path:
// packing a DNS message into a reused buffer, serializing UDP/IPv4
// into sized buffers, and the netsim send/deliver cycle at steady
// state must not allocate. A regression here shows up as a number, not
// as a 5% benchmark drift someone has to argue about.

func TestAppendPackZeroAllocs(t *testing.T) {
	q := dnswire.NewQuery(0x1234, "www.vict.im.", dnswire.TypeA)
	q.SetEDNS(1232, false)
	var buf []byte
	// Warm the buffer to its steady-state capacity.
	wire, err := q.AppendPack(buf[:0])
	if err != nil {
		t.Fatal(err)
	}
	buf = wire
	allocs := testing.AllocsPerRun(100, func() {
		wire, err := q.AppendPack(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		buf = wire
	})
	if allocs != 0 {
		t.Fatalf("AppendPack into warmed buffer: %v allocs/op, want 0", allocs)
	}
}

func TestSerializeZeroAllocs(t *testing.T) {
	src := netip.MustParseAddr("10.0.0.1")
	dst := netip.MustParseAddr("10.0.0.2")
	payload := make([]byte, 512)
	u := packet.UDP{SrcPort: 5353, DstPort: 53, Payload: payload}
	ubuf := make([]byte, 0, packet.UDPHeaderLen+len(payload))
	ip := packet.IPv4{ID: 7, TTL: 64, Protocol: packet.ProtoUDP, Src: src, Dst: dst}
	ipbuf := make([]byte, 0, packet.IPv4HeaderLen+packet.UDPHeaderLen+len(payload))

	allocs := testing.AllocsPerRun(100, func() {
		uw, err := u.Serialize(ubuf[:0], src, dst)
		if err != nil {
			t.Fatal(err)
		}
		ip.Payload = uw
		if _, err := ip.Serialize(ipbuf[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("UDP+IPv4 Serialize into sized buffers: %v allocs/op, want 0", allocs)
	}
}

// TestAppendNameZeroAllocs pins the append-style name decoder: walking
// a compressed wire name into a warmed caller-owned buffer must not
// touch the heap. This is the decode half of the resident-server
// hot-path contract (AppendPack is the encode half).
func TestAppendNameZeroAllocs(t *testing.T) {
	q := dnswire.NewQuery(0x1234, "a.b.c.www.vict.im.", dnswire.TypeA)
	wire, err := q.AppendPack(nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, dnswire.MaxNameLen)
	allocs := testing.AllocsPerRun(100, func() {
		out, _, err := dnswire.AppendName(buf[:0], wire, dnswire.HeaderLen)
		if err != nil {
			t.Fatal(err)
		}
		buf = out
	})
	if allocs != 0 {
		t.Fatalf("AppendName into warmed buffer: %v allocs/op, want 0", allocs)
	}
	if string(buf) != "a.b.c.www.vict.im." {
		t.Fatalf("decoded %q", buf)
	}
}

// TestSteadyStateSendZeroAllocs drives a full spoofed-send round trip —
// serialize into a pooled buffer, schedule, deliver, recycle — and
// requires the warmed network to stop allocating: the wire pool feeds
// payload buffers back, the clock's event freelist feeds events back,
// and the delivery freelist feeds delivery nodes back.
func TestSteadyStateSendZeroAllocs(t *testing.T) {
	s := scenario.New(scenario.Config{Seed: 42})
	payload := make([]byte, 128)
	sink := 0
	s.ResolverHost.BindUDP(12345, func(dg netsim.Datagram) { sink += len(dg.Payload) })
	round := func() {
		s.Attacker.SendUDPSpoofed(scenario.NSIP, 53, scenario.ResolverIP, 12345, payload)
		s.Net.Run()
	}
	// Warm pools, freelists and the host's receive path.
	for i := 0; i < 10; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("steady-state spoofed send: %v allocs/op, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("payloads never delivered")
	}
}

// TestPortUnreachableZeroAllocs pins the SadDNS side-channel path: a
// spoofed probe and a verification probe to closed resolver ports, the
// two ICMP port-unreachable errors they draw (quoted into the host's
// scratch buffer, serialized into pooled buffers, decoded into the
// receiver's own message struct, payloads recycled after the
// handlers), and the attacker's observer reading the verification
// error must not allocate once warmed. The scan's bursts are almost
// all such errors.
func TestPortUnreachableZeroAllocs(t *testing.T) {
	s := scenario.New(scenario.Config{Seed: 42})
	// Answer every probe so each round draws both errors; the rate
	// limit itself is not what this test measures.
	s.ResolverHost.Cfg.ICMPLimitMode = netsim.ICMPLimitNone
	errs := 0
	s.Attacker.OnICMP(func(src netip.Addr, msg *packet.ICMP) {
		if src == scenario.ResolverIP && msg.IsPortUnreachable() {
			errs++
		}
	})
	probe, verify := []byte("probe"), []byte("verify")
	round := func() {
		s.Attacker.SendUDPSpoofed(scenario.NSIP, 53, scenario.ResolverIP, 1000, probe)
		s.Attacker.SendUDP(777, scenario.ResolverIP, 1001, verify)
		s.Net.Run()
	}
	for i := 0; i < 10; i++ {
		round() // warm the quote scratch, wire pool and freelists
	}
	sent := s.ResolverHost.ICMPSent
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("closed-port probe to ICMP error to observer: %v allocs/op, want 0", allocs)
	}
	rounds := (s.ResolverHost.ICMPSent - sent) / 2
	if rounds == 0 || uint64(errs) != 10+rounds {
		t.Fatalf("observer saw %d port-unreachable errors for %d rounds", errs, 10+rounds)
	}
}

// TestFloodBucketZeroAllocs pins the same-instant event queue: once a
// flood-sized burst has warmed the event freelist, scheduling 4096
// events at one timestamp and draining them must not allocate, however
// the freed timestamp buckets are handed out. Beside the burst, each
// round keeps 63 single-event timestamps in flight, scheduled so that
// the bucket that carried the last burst is passed on to another
// timestamp and the burst lands in a bucket that carried one event —
// the rotation a busy simulation's freelist goes through.
func TestFloodBucketZeroAllocs(t *testing.T) {
	const burst, others = 4096, 63
	c := sim.NewClock(1)
	act := &countAction{}
	flood := func() {
		base := c.Now()
		for i := 0; i < burst; i++ {
			c.AtAction(base+time.Millisecond, act)
		}
		// Latest first: with the freelist handing back the most
		// recently drained bucket first, this moves every bucket one
		// timestamp later per round.
		for k := others; k >= 1; k-- {
			c.AtAction(base+time.Duration(1+k)*time.Millisecond, act)
		}
		c.Run()
	}
	for i := 0; i < 3; i++ {
		flood()
	}
	if allocs := testing.AllocsPerRun(20, flood); allocs != 0 {
		t.Fatalf("scheduling and draining a %d-event burst: %v allocs/op, want 0", burst, allocs)
	}
	if want := (3 + 21) * (burst + others); act.n != want {
		t.Fatalf("fired %d events, want %d", act.n, want)
	}
}

// countAction is a pre-allocated sim.Action counting its firings.
type countAction struct{ n int }

func (a *countAction) Fire() { a.n++ }

// TestAuthoritativeMemoHitZeroAllocs pins the nameserver's memoized
// UDP path: once a query is memoized, answering a byte-identical repeat
// — receive, memo lookup, RRL check, SendUDP of the stored bytes, and
// delivery back to the client — must not allocate. Flood-style probes
// (the RRL burst, SadDNS's muting flood) are almost all such repeats.
func TestAuthoritativeMemoHitZeroAllocs(t *testing.T) {
	cfg := dnssrv.DefaultConfig()
	cfg.RateLimit = true
	cfg.PadAnswersTo = 1300
	s := scenario.New(scenario.Config{Seed: 42, ServerCfg: cfg})
	q := dnswire.NewQuery(0x1234, "www.vict.im.", dnswire.TypeA)
	q.SetEDNS(4096, false)
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	replies := 0
	port := s.Attacker.BindUDP(0, func(netsim.Datagram) { replies++ })
	round := func() {
		s.Attacker.SendUDP(port, scenario.NSIP, 53, wire)
		s.Net.Run()
	}
	for i := 0; i < 10; i++ {
		round() // memoize the response, warm pools and freelists
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("memoized authoritative answer: %v allocs/op, want 0", allocs)
	}
	if replies == 0 || s.NS.Responses != uint64(replies) {
		t.Fatalf("%d replies for %d responses", replies, s.NS.Responses)
	}
}

// TestResolverRoundTripZeroAllocs pins the resolver's full-resolution
// path at zero allocations per upstream round trip. The measurement is
// differential: two resolvers identical except for the retry count
// resolve against a muted server, and a resolution with four extra
// retransmission round trips must allocate exactly as much as one with
// none — the per-resolution cost (inflight struct, handler closure,
// callback slice) is allowed, a per-attempt cost is the regression.
func TestResolverRoundTripZeroAllocs(t *testing.T) {
	build := func(retries int) *scenario.S {
		prof := resolver.ProfileBIND
		prof.Retries = retries
		s := scenario.New(scenario.Config{Seed: 42, Profile: prof})
		// Route the test zone into a black hole — an address no host
		// owns, so the network drops each query after the propagation
		// delay and the only work measured is the resolver's own
		// retransmission machinery (a muted *server* would still pay
		// an Unpack per delivery and pollute the differential).
		s.Resolver.AddZoneServer("dead.vict.im.", netip.MustParseAddr("203.0.113.99"))
		return s
	}
	perResolution := func(s *scenario.S) float64 {
		round := func() {
			s.Resolver.Lookup("dead.vict.im.", dnswire.TypeA, func([]*dnswire.RR, error) {})
			s.Run()
		}
		for i := 0; i < 10; i++ {
			round() // warm wire pool, event freelist, port maps
		}
		return testing.AllocsPerRun(50, round)
	}
	base := perResolution(build(0))
	extra := perResolution(build(4))
	if extra != base {
		t.Fatalf("4 extra upstream round trips cost %v allocs (%v vs %v per resolution), want 0",
			extra-base, extra, base)
	}
}

// TestEngineDispatchAllocs bounds the engine's own per-trial overhead:
// dispatching trials through the burst executor must cost well under
// one allocation per trial once the per-job slices are amortized.
func TestEngineDispatchAllocs(t *testing.T) {
	const trials = 1024
	j := engine.Job{Items: trials, ShardSize: 1, Seed: 1, Parallelism: 1}
	allocs := testing.AllocsPerRun(10, func() {
		out := engine.RunWorkers(j, func() *struct{} { return nil },
			func(_ *struct{}, sh engine.Shard) int { return sh.Start })
		if len(out) != trials {
			t.Fatalf("%d results", len(out))
		}
	})
	if perTrial := allocs / trials; perTrial > 0.1 {
		t.Fatalf("engine dispatch: %v allocs/trial, want < 0.1", perTrial)
	}
}

// TestResetTrialAllocs bounds the steady-state cost of the build-once/
// reset-per-trial lifecycle. Both lifecycles run the same trial — one
// full resolution — so both pay its bookkeeping (the inflight record,
// the handler closure, cache inserts); the reset trial must shed the
// world-assembly cost on top, staying well under a third of the legacy
// build-per-trial figure. A regression here means Reset started
// rebuilding state that New owns, or a freelist stopped being reused.
func TestResetTrialAllocs(t *testing.T) {
	resolve := func(s *scenario.S) {
		done := false
		s.Resolver.Lookup("www.vict.im.", dnswire.TypeA, func(_ []*dnswire.RR, err error) {
			done = err == nil
		})
		s.Run()
		if !done {
			t.Fatal("resolution failed")
		}
	}
	freshAllocs := testing.AllocsPerRun(5, func() {
		resolve(scenario.New(scenario.Config{Seed: 42}))
	})

	s := scenario.New(scenario.Config{Seed: 42})
	s.Snapshot()
	trial := func() {
		s.Reset(42)
		resolve(s)
	}
	for i := 0; i < 10; i++ {
		trial() // warm pools, freelists and lazily-created maps
	}
	resetAllocs := testing.AllocsPerRun(50, trial)
	if resetAllocs*3 > freshAllocs {
		t.Fatalf("reset-path trial: %v allocs vs %v for a build-per-trial run; want under a third",
			resetAllocs, freshAllocs)
	}
}
