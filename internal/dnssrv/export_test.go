package dnssrv

// MemoQuery exposes the memoized query bytes to the external tests
// (empty when nothing is memoized).
func (s *Server) MemoQuery() []byte { return s.memo.query }
