package dnssrv

import (
	"bytes"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"crosslayer/internal/dnswire"
	"crosslayer/internal/netsim"
	"crosslayer/internal/resolver"
)

// Config controls server behaviours the measurements distinguish.
type Config struct {
	// RateLimit enables response-rate limiting: at most RateLimitQPS
	// responses per one-second window, further responses silently
	// dropped. This is the behaviour the paper's §5.2.2 burst test
	// (4000 queries in one second) detects, and the lever SadDNS uses
	// to mute a nameserver.
	RateLimit    bool
	RateLimitQPS int
	// PadAnswersTo inflates responses with filler TXT answer records
	// until the DNS payload reaches at least this many bytes (the
	// paper's custom test nameserver "emits fragmented responses
	// padded to a certain size").
	PadAnswersTo int
	// RandomizeOrder shuffles answer records per response — the
	// countermeasure that breaks FragDNS checksum prediction (§6.1).
	RandomizeOrder bool
	// ServeANY: answer ANY queries with all RRsets (Unbound refuses).
	ServeANY bool
}

// DefaultConfig returns a typical authoritative server.
func DefaultConfig() Config {
	return Config{RateLimitQPS: 1000, ServeANY: true}
}

// Server is an authoritative nameserver bound to a netsim host on UDP
// port 53.
type Server struct {
	Host  *netsim.Host
	Cfg   Config
	zones map[string]*Zone
	// zonesGen counts AddZone calls: a changed zone set may change
	// which zone answers a name.
	zonesGen uint64

	window    time.Duration
	sentInWin int

	// scratch is the wire-format buffer reused across UDP responses
	// (and pad's trial packs). Safe because SendUDP serializes the
	// payload into its own pooled buffer before returning; handleTCP
	// must NOT use it — its return value is retained by the caller.
	scratch []byte

	// memo answers a UDP query byte-identical to the last answered one
	// without rebuilding its response (see respMemo).
	memo respMemo

	// Counters.
	Queries, Responses, RateDropped, Truncated uint64

	// Observe, when set, sees every received query with its transport
	// ("udp"/"tcp") and source — the measurement probes' server-side
	// vantage (e.g. reading the EDNS size resolvers advertise, or
	// detecting the re-query after a fragmented CNAME response).
	Observe func(q *dnswire.Message, src netip.Addr, transport string)
}

// New creates a server on host and binds UDP and TCP port 53, plus
// every session-transport service port (always-TCP, DoT, DoH, DoQ) so
// resolvers may pick any upstream transport. TCP fallback responses
// are never truncated or rate limited (RRL only protects the
// amplification-prone UDP path); session responses are never
// truncated but DO spend the RRL budget — the limit models a
// response-rate cap, so a muted server is silent on every transport.
func New(host *netsim.Host, cfg Config) *Server {
	s := &Server{Host: host, Cfg: cfg, zones: make(map[string]*Zone)}
	host.BindUDP(53, s.handle)
	host.BindTCP(53, s.handleTCP)
	for _, t := range resolver.StreamTransports() {
		host.BindSession(t.Port(), s.sessionHandler(t.Key()))
	}
	return s
}

// Reset rewinds the server to its post-New state for the next trial of
// a reused world: the RRL window bookkeeping and counters are zeroed,
// the response memo and the observation hook dropped. Zones (immutable
// under serving), config and bound ports survive; SadDNS-style config
// overrides are restored by the host-level snapshot, not here.
func (s *Server) Reset() {
	s.window = 0
	s.sentInWin = 0
	s.Queries, s.Responses, s.RateDropped, s.Truncated = 0, 0, 0, 0
	s.Observe = nil
	s.memo.drop()
}

// respMemo is the UDP path's one-entry memo: the bytes of the last
// answered query, the bytes sent back for it (after truncation), and
// the server state that response is a function of. Flood-style probes
// (the §5.2.2 RRL burst, SadDNS's muting flood) repeat one query byte
// for byte, so nearly every datagram of a burst is a hit. A response
// depends on nothing but the query bytes, Cfg, the zone set and the
// answering zone's records and Signed flag; the RNG is touched only
// under RandomizeOrder, which bypasses the memo. A hit therefore sends
// exactly the bytes a rebuild would.
type respMemo struct {
	query, wire []byte // empty query: nothing memoized
	truncated   bool
	cfg         Config
	zonesGen    uint64
	zone        *Zone // answering zone; nil when the query was refused
	zoneGen     uint64
	signed      bool
}

// matches reports whether the memoized response is the answer to
// payload under the server's current state.
func (m *respMemo) matches(s *Server, payload []byte) bool {
	return len(m.query) > 0 && bytes.Equal(m.query, payload) &&
		m.cfg == s.Cfg && m.zonesGen == s.zonesGen &&
		(m.zone == nil || m.zone.gen == m.zoneGen && m.zone.Signed == m.signed)
}

// store memoizes wire as the response to payload, copying both into
// the memo's own buffers.
func (m *respMemo) store(s *Server, payload, wire []byte, truncated bool, zone *Zone) {
	m.query = append(m.query[:0], payload...)
	m.wire = append(m.wire[:0], wire...)
	m.truncated = truncated
	m.cfg, m.zonesGen, m.zone = s.Cfg, s.zonesGen, zone
	if zone != nil {
		m.zoneGen, m.signed = zone.gen, zone.Signed
	}
}

// drop forgets the memoized response, keeping the buffers for reuse.
func (m *respMemo) drop() {
	m.query, m.zone = m.query[:0], nil
}

// sessionHandler serves one session service port. Streams carry any
// size, so there is no truncation path; the scratch buffer is safe
// because the session respond contract copies before returning.
func (s *Server) sessionHandler(transport string) netsim.SessionHandler {
	return func(src netip.Addr, req []byte, respond func([]byte)) {
		query, err := dnswire.Unpack(req)
		if err != nil || query.Response || len(query.Questions) == 0 {
			return
		}
		s.Queries++
		if s.Observe != nil {
			s.Observe(query, src, transport)
		}
		if s.muted() {
			return // silence: the SadDNS mute lever is transport-blind
		}
		resp := s.BuildResponse(query)
		wire, err := resp.AppendPack(s.scratch[:0])
		if err != nil {
			return
		}
		s.scratch = wire
		s.Responses++
		respond(wire)
	}
}

func (s *Server) handleTCP(src netip.Addr, req []byte) []byte {
	query, err := dnswire.Unpack(req)
	if err != nil || query.Response || len(query.Questions) == 0 {
		return nil
	}
	s.Queries++
	if s.Observe != nil {
		s.Observe(query, src, "tcp")
	}
	resp := s.BuildResponse(query)
	wire, err := resp.Pack()
	if err != nil {
		return nil
	}
	s.Responses++
	return wire
}

// AddZone attaches a zone to the server.
func (s *Server) AddZone(z *Zone) *Server {
	s.zones[z.Origin] = z
	s.zonesGen++
	return s
}

// Zone returns the zone whose origin is the longest suffix of name.
func (s *Server) Zone(name string) *Zone {
	name = dnswire.CanonicalName(name)
	var best *Zone
	for origin, z := range s.zones {
		if dnswire.InBailiwick(name, origin) {
			if best == nil || len(origin) > len(best.Origin) {
				best = z
			}
		}
	}
	return best
}

// handle serves one UDP query. A query byte-identical to the memoized
// one skips Unpack, BuildResponse and packing, and keeps the miss
// path's counter order: Queries, the RRL check, then Truncated and
// Responses. The observation hook needs the parsed query and the
// shuffle must keep drawing from the host RNG, so either bypasses the
// memo entirely.
func (s *Server) handle(dg netsim.Datagram) {
	memoize := s.Observe == nil && !s.Cfg.RandomizeOrder
	if memoize && s.memo.matches(s, dg.Payload) {
		s.Queries++
		if !s.muted() {
			s.sendUDP(dg, s.memo.wire, s.memo.truncated)
		}
		return
	}
	query, err := dnswire.Unpack(dg.Payload)
	if err != nil || query.Response || len(query.Questions) == 0 {
		return
	}
	s.Queries++
	if s.Observe != nil {
		s.Observe(query, dg.Src, "udp")
	}
	if s.muted() {
		return
	}
	resp, zone := s.buildResponse(query)
	wire, err := resp.AppendPack(s.scratch[:0])
	if err != nil {
		return
	}
	s.scratch = wire
	// EDNS truncation: if the client advertised a buffer smaller than
	// the response, set TC and cut to the advertised size (or 512).
	limit := 512
	if sz, _, ok := query.EDNS(); ok {
		limit = int(sz)
	}
	truncated := len(wire) > limit
	if truncated {
		tr := &dnswire.Message{
			ID: resp.ID, Response: true, Authoritative: resp.Authoritative,
			Truncated: true, RecursionDesired: resp.RecursionDesired,
			RCode: resp.RCode, Questions: resp.Questions,
		}
		if wire, err = tr.AppendPack(s.scratch[:0]); err != nil {
			return
		}
		s.scratch = wire
	}
	if memoize {
		s.memo.store(s, dg.Payload, wire, truncated, zone)
	}
	s.sendUDP(dg, wire, truncated)
}

// sendUDP counts and sends one UDP response.
func (s *Server) sendUDP(dg netsim.Datagram, wire []byte, truncated bool) {
	if truncated {
		s.Truncated++
	}
	s.Responses++
	s.Host.SendUDP(53, dg.Src, dg.SrcPort, wire)
}

// muted spends one unit of the RRL budget and reports whether the
// response must be dropped instead.
func (s *Server) muted() bool {
	if s.Cfg.RateLimit && !s.allowResponse() {
		s.RateDropped++
		return true
	}
	return false
}

func (s *Server) allowResponse() bool {
	now := s.Host.Network().Clock.Now()
	win := now / time.Second
	if win != s.window {
		s.window = win
		s.sentInWin = 0
	}
	s.sentInWin++
	return s.sentInWin <= s.Cfg.RateLimitQPS
}

// BuildResponse synthesises the authoritative answer for query. It is
// exported so the FragDNS attacker can predict the exact bytes the
// server will emit (the attacker queries public zone data itself).
func (s *Server) BuildResponse(query *dnswire.Message) *dnswire.Message {
	resp, _ := s.buildResponse(query)
	return resp
}

// buildResponse is BuildResponse that also returns the answering zone
// (nil when the query is refused), which the response memo watches.
func (s *Server) buildResponse(query *dnswire.Message) (*dnswire.Message, *Zone) {
	q := query.Question()
	resp := &dnswire.Message{
		ID: query.ID, Response: true, Authoritative: true,
		RecursionDesired: query.RecursionDesired,
		Questions:        query.Questions, // echo, preserving 0x20 case
	}
	if sz, do, ok := query.EDNS(); ok {
		resp.SetEDNS(sz, do)
	}
	zone := s.Zone(q.Name)
	if zone == nil {
		resp.RCode = dnswire.RCodeRefused
		return resp, nil
	}
	if q.Type == dnswire.TypeANY && !s.Cfg.ServeANY {
		// Unbound-style minimal ANY refusal (RFC 8482).
		resp.Answers = append(resp.Answers, dnswire.NewTXT(q.Name, 3600, "RFC8482"))
		return resp, zone
	}
	answers, exists := zone.Lookup(q.Name, q.Type)
	if len(answers) == 0 {
		if !exists {
			resp.RCode = dnswire.RCodeNXDomain
		}
		if soa := zone.SOA(); soa != nil {
			resp.Authority = append(resp.Authority, soa)
		}
		return resp, zone
	}
	resp.Answers = append(resp.Answers, answers...)
	if s.Cfg.PadAnswersTo > 0 {
		s.pad(resp, q.Name)
	}
	if s.Cfg.RandomizeOrder {
		rng := s.Host.Rand()
		rng.Shuffle(len(resp.Answers), func(i, j int) {
			resp.Answers[i], resp.Answers[j] = resp.Answers[j], resp.Answers[i]
		})
	} else {
		// Deterministic layout: filler/text first, address records
		// last (see Zone.Lookup). Stable-sort answers so A records
		// land at the tail of the packet for non-ANY lookups too.
		stableByOrder(resp.Answers)
	}
	if zone.Signed {
		s.sign(resp, zone)
	}
	return resp, zone
}

// maxFillers caps the filler records pad inserts into one response.
const maxFillers = 64

// fillerTexts are the filler TXT strings: a fixed 194-byte body and a
// six-digit serial. The distinct serials make answer-order
// randomisation genuinely change the response bytes (and so defeat
// FragDNS checksum prediction, §6.1).
var fillerTexts = func() (t [maxFillers]string) {
	body := strings.Repeat("x", 194)
	for i := range t {
		serial := strconv.Itoa(i)
		t[i] = body + "000000"[len(serial):] + serial
	}
	return t
}()

// pad inserts filler TXT answer records owned by a sibling label until
// the packed size reaches the configured floor, at most maxFillers.
// Filler is placed at the FRONT of the answer section, newest serial
// first, so genuine records sit in the final fragment (the layout
// FragDNS wants to overwrite).
//
// Every filler has the same wire size except the first in the packet,
// whose owner name compresses against the question rather than against
// an earlier filler. So packing with zero, one and two fillers gives
// the sizes of all larger counts, and the count follows directly.
func (s *Server) pad(resp *dnswire.Message, qname string) {
	target := s.Cfg.PadAnswersTo
	fillerName := "filler." + strings.TrimPrefix(dnswire.CanonicalName(qname), "filler.")
	// slots[maxFillers-n:] is the answer section with n fillers.
	slots := make([]*dnswire.RR, maxFillers+len(resp.Answers))
	copy(slots[maxFillers:], resp.Answers)
	n := 0
	setFillers := func(to int) {
		for ; n < to; n++ {
			slots[maxFillers-1-n] = dnswire.NewTXT(fillerName, 300, fillerTexts[n])
		}
		resp.Answers = slots[maxFillers-n:]
	}
	var size [3]int // packed size with 0, 1 and 2 fillers
	for k := range size {
		setFillers(k)
		// Only the packed length matters here; packing into the shared
		// scratch avoids one full-response allocation per probe.
		wire, err := resp.AppendPack(s.scratch[:0])
		if err != nil {
			return
		}
		s.scratch = wire
		if size[k] = len(wire); size[k] >= target {
			return
		}
	}
	step := size[2] - size[1]
	setFillers(min(maxFillers, 2+(target-size[2]+step-1)/step))
}

func stableByOrder(rrs []*dnswire.RR) {
	// insertion sort by anyOrder (stable, tiny slices)
	for i := 1; i < len(rrs); i++ {
		for j := i; j > 0 && anyOrder(rrs[j].Type) < anyOrder(rrs[j-1].Type); j-- {
			rrs[j], rrs[j-1] = rrs[j-1], rrs[j]
		}
	}
}

// sign appends RRSIG markers covering each answer RRset type.
func (s *Server) sign(resp *dnswire.Message, zone *Zone) {
	seen := map[dnswire.Type]bool{}
	var sigs []*dnswire.RR
	for _, rr := range resp.Answers {
		if rr.Type == dnswire.TypeRRSIG || seen[rr.Type] {
			continue
		}
		seen[rr.Type] = true
		sigs = append(sigs, &dnswire.RR{
			Name: rr.Name, Type: dnswire.TypeRRSIG, Class: dnswire.ClassIN, TTL: rr.TTL,
			Data: &dnswire.RRSIGData{Covered: rr.Type, Signer: zone.Origin, Valid: true},
		})
	}
	resp.Answers = append(resp.Answers, sigs...)
}
